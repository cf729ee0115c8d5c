(* Machine-readable lint reports in canonical form — fixed key order,
   findings sorted by (file, line, col, rule) — so two runs over the same
   tree are byte-identical. *)

open Lint_engine
open Glassdb_util.Json

let finding_to_json f =
  Obj
    [ ("file", Str f.f_file);
      ("line", Num (float_of_int f.f_line));
      ("col", Num (float_of_int f.f_col));
      ("rule", Str f.f_rule);
      ("msg", Str f.f_msg) ]

let list_to_json fs = Arr (List.map finding_to_json (sort_findings fs))

let report_to_json r =
  to_string
    (Obj
       [ ("version", Num 1.);
         ("findings", list_to_json r.r_findings);
         ("suppressed", list_to_json r.r_suppressed) ])
