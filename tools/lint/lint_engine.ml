(* glassdb-lint: determinism & safety static analysis over the project's
   OCaml sources.

   GlassDB's verifiability rests on every replica and auditor recomputing
   bit-identical digests, and the observability layer promises
   byte-identical traces/metrics across runs.  These properties are easy
   to break silently — one wall-clock read, one unordered hashtable
   iteration feeding a serializer, one polymorphic compare on an abstract
   digest type.  This pass machine-checks the invariants on every build:
   it parses each source file with compiler-libs and walks the Parsetree
   (no type information — rules are syntactic, with documented
   exemptions; see DESIGN.md §4e). *)

type scope = Lib | Bench

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_msg : string;
}

type report = { r_findings : finding list; r_suppressed : finding list }

let rules =
  [ ("D001",
     "no ambient wall-clock (Unix.gettimeofday / Unix.time / Sys.time); \
      use the simulator clock, or Benchkit.Wallclock for bench reporting");
    ("D002",
     "no ambient randomness (global Random.*, Random.self_init); thread a \
      seeded Random.State / Glassdb_util.Rng explicitly, or use \
      Faults.random_seed to pick a reportable seed interactively");
    ("D003",
     "no unordered Hashtbl.iter/fold/to_seq; drain through \
      Glassdb_util.Det (sorted_bindings / unordered_fold) or annotate");
    ("D004",
     "no Domain.spawn / Domain.join / Domain.DLS.new_key / Thread.create \
      / Mutex.create / Condition.create; the library is single-domain, so \
      work runs serially and state lives in plain values");
    ("S001",
     "no polymorphic =/<>/compare in lib/; use String.equal, Int.compare, \
      Hash.equal or a type-specific comparator");
    ("S002",
     "no partial stdlib functions (List.hd, List.tl, Option.get) in lib/; \
      match explicitly");
    ("H001", "every lib/ module must ship an .mli interface") ]

let rule_ids = List.map fst rules

let compare_finding a b =
  match String.compare a.f_file b.f_file with
  | 0 ->
    (match Int.compare a.f_line b.f_line with
     | 0 ->
       (match Int.compare a.f_col b.f_col with
        | 0 -> String.compare a.f_rule b.f_rule
        | c -> c)
     | c -> c)
  | c -> c

let sort_findings = List.sort compare_finding

(* --- identifier classification --- *)

let dotted lid = String.concat "." (Longident.flatten lid)

let wall_clock_idents = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let unordered_idents =
  [ "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values" ]

let partial_idents = [ "List.hd"; "List.tl"; "Option.get" ]

let ambient_domain_idents =
  [ "Domain.spawn"; "Domain.join"; "Domain.DLS.new_key"; "Mutex.create";
    "Condition.create"; "Thread.create" ]

let is_ambient_random name =
  (* Any global Random.* entry point is ambient state; Random.State.* is
     fine (explicitly threaded) except make_self_init, which reads the
     environment for its seed. *)
  String.equal name "Random.State.make_self_init"
  || (String.length name > 7
      && String.equal (String.sub name 0 7) "Random."
      && not
           (String.length name > 13
            && String.equal (String.sub name 0 13) "Random.State."))

let is_poly_eq_op name = String.equal name "=" || String.equal name "<>"

let is_poly_compare name =
  String.equal name "compare" || String.equal name "Stdlib.compare"
  || String.equal name "Stdlib.=" || String.equal name "Stdlib.<>"

(* A "safe constant" operand makes polymorphic =/<> deterministic and
   idiomatic: literals, nullary constructors ([], None, true, ()), and
   constructors/tuples of safe constants (Some 0).  Comparisons against
   these are exempt from S001. *)
let rec safe_const (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> true
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) -> safe_const arg
  | Pexp_tuple es -> List.for_all safe_const es
  | _ -> false

(* --- suppression --- *)

let allow_attr_name = "glassdb.lint.allow"

let rules_of_payload (payload : Parsetree.payload) =
  let rec of_expr (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
    | Pexp_tuple es -> List.concat_map of_expr es
    | _ -> []
  in
  match payload with
  | PStr items ->
    List.concat_map
      (fun (it : Parsetree.structure_item) ->
        match it.pstr_desc with
        | Pstr_eval (e, _) -> of_expr e
        | _ -> [])
      items
  | _ -> []

let allows_of_attrs (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt allow_attr_name then
        rules_of_payload a.attr_payload
      else [])
    attrs

(* --- per-file analysis --- *)

type ctx = {
  c_file : string;
  c_scope : scope;
  mutable c_found : finding list;
  (* (start offset, end offset, rule) regions granted by allow attributes *)
  mutable c_allows : (int * int * string) list;
  (* character offsets of =/<> operator idents exempted by a safe-constant
     operand in the enclosing application *)
  c_exempt_ops : (int, unit) Hashtbl.t;
}

let add_finding ctx (loc : Location.t) rule msg =
  ctx.c_found <-
    { f_file = ctx.c_file;
      f_line = loc.loc_start.pos_lnum;
      f_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol + 1;
      f_rule = rule;
      f_msg = msg }
    :: ctx.c_found

let add_allow ctx (loc : Location.t) ~to_eof rules =
  let stop = if to_eof then max_int else loc.loc_end.pos_cnum in
  List.iter
    (fun r -> ctx.c_allows <- (loc.loc_start.pos_cnum, stop, r) :: ctx.c_allows)
    rules

let check_ident ctx (loc : Location.t) lid =
  let name = dotted lid in
  if List.mem name wall_clock_idents then
    add_finding ctx loc "D001"
      (Printf.sprintf
         "ambient wall-clock read %s; use the virtual clock (Sim.now) or \
          the allowlisted Benchkit.Wallclock helper"
         name)
  else if is_ambient_random name then
    add_finding ctx loc "D002"
      (Printf.sprintf
         "ambient randomness %s; thread a seeded Random.State or \
          Glassdb_util.Rng explicitly (the allowlisted Faults.random_seed \
          is the one sanctioned site)"
         name)
  else if List.mem name unordered_idents then
    add_finding ctx loc "D003"
      (Printf.sprintf
         "unordered %s; results must not feed hashing/serialization/export \
          — use Glassdb_util.Det.sorted_bindings, or \
          Det.unordered_fold/iter for commutative accumulation"
         name)
  else if List.mem name ambient_domain_idents then
    add_finding ctx loc "D004"
      (Printf.sprintf
         "concurrency primitive %s; the library is single-domain — run \
          the work serially and keep state in plain module-level values"
         name)
  else begin
    match ctx.c_scope with
    | Bench -> ()
    | Lib ->
      if
        is_poly_compare name
        || (is_poly_eq_op name
            && not (Hashtbl.mem ctx.c_exempt_ops loc.loc_start.pos_cnum))
      then
        add_finding ctx loc "S001"
          (Printf.sprintf
             "polymorphic %s on non-constant operands; use String.equal, \
              Int.compare, Hash.equal or a type-specific comparator"
             name)
      else if List.mem name partial_idents then
        add_finding ctx loc "S002"
          (Printf.sprintf "partial function %s; match explicitly instead" name)
  end

let iterator ctx =
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    (match allows_of_attrs e.pexp_attributes with
     | [] -> ()
     | rs -> add_allow ctx e.pexp_loc ~to_eof:false rs);
    (match e.pexp_desc with
     | Pexp_ident { txt; loc } -> check_ident ctx loc txt
     | Pexp_apply
         ( { pexp_desc = Pexp_ident { txt; loc = oploc }; _ },
           [ (_, a); (_, b) ] )
       when is_poly_eq_op (dotted txt) && (safe_const a || safe_const b) ->
       Hashtbl.replace ctx.c_exempt_ops oploc.loc_start.pos_cnum ()
     | _ -> ());
    default_iterator.expr it e
  in
  let value_binding it (vb : Parsetree.value_binding) =
    (match allows_of_attrs vb.pvb_attributes with
     | [] -> ()
     | rs -> add_allow ctx vb.pvb_loc ~to_eof:false rs);
    default_iterator.value_binding it vb
  in
  let structure_item it (si : Parsetree.structure_item) =
    (match si.pstr_desc with
     | Pstr_attribute a
       when String.equal a.attr_name.txt allow_attr_name ->
       (* Floating [@@@glassdb.lint.allow "..."]: grants the rest of the
          file from the attribute onward. *)
       add_allow ctx si.pstr_loc ~to_eof:true (rules_of_payload a.attr_payload)
     | _ -> ());
    default_iterator.structure_item it si
  in
  { default_iterator with expr; value_binding; structure_item }

let lint_source ~scope ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | exception _ ->
    { r_findings =
        [ { f_file = file; f_line = 1; f_col = 1; f_rule = "E000";
            f_msg = "source does not parse" } ];
      r_suppressed = [] }
  | ast ->
    let ctx =
      { c_file = file; c_scope = scope; c_found = []; c_allows = [];
        c_exempt_ops = Hashtbl.create 16 }
    in
    (* Allow regions are character-offset ranges; findings carry
       line/col, so re-derive each finding's offset from the file's
       line-start table to decide suppression after the whole file has
       been walked. *)
    let line_starts =
      let acc = ref [ 0 ] in
      String.iteri (fun i c -> if c = '\n' then acc := (i + 1) :: !acc) src;
      Array.of_list (List.rev !acc)
    in
    let offset_of_finding f =
      let l = f.f_line - 1 in
      if l >= 0 && l < Array.length line_starts then
        line_starts.(l) + (f.f_col - 1)
      else 0
    in
    let it = iterator ctx in
    it.structure it ast;
    let suppressed_by f =
      let off = offset_of_finding f in
      List.exists
        (fun (lo, hi, r) ->
          off >= lo && off <= hi
          && (String.equal r f.f_rule || String.equal r "*"))
        ctx.c_allows
    in
    let sup, live = List.partition suppressed_by ctx.c_found in
    { r_findings = sort_findings live; r_suppressed = sort_findings sup }

let lint_file ~scope path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  lint_source ~scope ~file:path src

(* --- H001: .mli presence --- *)

let h001_check ~disk_dir ~shown_dir mls =
  List.filter_map
    (fun ml ->
      let mli = Filename.chop_suffix ml ".ml" ^ ".mli" in
      if Sys.file_exists (Filename.concat disk_dir mli) then None
      else
        Some
          { f_file = Filename.concat shown_dir ml;
            f_line = 1;
            f_col = 1;
            f_rule = "H001";
            f_msg =
              Printf.sprintf "module %s has no .mli interface"
                (Filename.basename (Filename.chop_suffix ml ".ml")) })
    mls

(* --- tree walking --- *)

let list_dir dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort String.compare entries;
    Array.to_list entries
  | exception Sys_error _ -> []

(* Every .ml under [dir] (relative paths), skipping dot-directories and
   _build; deterministic order. *)
let rec walk_mls dir rel =
  List.concat_map
    (fun name ->
      if String.length name = 0 || name.[0] = '.' || String.equal name "_build"
      then []
      else begin
        let path = Filename.concat dir name in
        let rpath = if String.equal rel "" then name else Filename.concat rel name in
        if Sys.is_directory path then walk_mls path rpath
        else if Filename.check_suffix name ".ml" then [ rpath ]
        else []
      end)
    (list_dir dir)

(* --- allow.sexp: whole-file grants --- *)

(* Minimal s-expression reader: atoms (bare or quoted) and lists;
   ';' comments to end of line. *)
type sexp = Atom of string | List of sexp list

let parse_sexps src =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done;
      skip_ws ()
    | _ -> ()
  in
  let atom_char c =
    match c with
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> false
    | _ -> true
  in
  let rec parse_one () =
    skip_ws ();
    match peek () with
    | None -> None
    | Some '(' ->
      advance ();
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        match peek () with
        | Some ')' ->
          advance ();
          Some (List (List.rev !items))
        | None -> failwith "allow.sexp: unterminated list"
        | _ ->
          (match parse_one () with
           | Some s ->
             items := s :: !items;
             loop ()
           | None -> failwith "allow.sexp: unterminated list")
      in
      loop ()
    | Some ')' -> failwith "allow.sexp: stray ')'"
    | Some '"' ->
      advance ();
      let buf = Buffer.create 16 in
      let rec str () =
        match peek () with
        | None -> failwith "allow.sexp: unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
           | Some c ->
             Buffer.add_char buf c;
             advance ();
             str ()
           | None -> failwith "allow.sexp: unterminated escape")
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          str ()
      in
      str ();
      Some (Atom (Buffer.contents buf))
    | Some _ ->
      let buf = Buffer.create 16 in
      let rec bare () =
        match peek () with
        | Some c when atom_char c ->
          Buffer.add_char buf c;
          advance ();
          bare ()
        | _ -> ()
      in
      bare ();
      Some (Atom (Buffer.contents buf))
  in
  let out = ref [] in
  let rec loop () =
    match parse_one () with
    | Some s ->
      out := s :: !out;
      loop ()
    | None -> ()
  in
  loop ();
  List.rev !out

type grant = { g_file : string; g_rule : string; g_reason : string }

let grants_of_sexps sexps =
  let field key fields =
    List.find_map
      (function
        | List [ Atom k; Atom v ] when String.equal k key -> Some v
        | _ -> None)
      fields
  in
  List.map
    (function
      | List fields ->
        (match (field "file" fields, field "rule" fields) with
         | Some f, Some r ->
           { g_file = f; g_rule = r;
             g_reason = Option.value ~default:"" (field "reason" fields) }
         | _ -> failwith "allow.sexp: entry needs (file ...) and (rule ...)")
      | Atom a -> failwith (Printf.sprintf "allow.sexp: unexpected atom %S" a))
    sexps

let load_grants path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    grants_of_sexps (parse_sexps src)
  end

(* A grant matches a finding when its file is the finding's path, a path
   suffix component-wise ("d001_pos.ml" matches any directory), or a
   directory prefix (entry ending in "/"). *)
let grant_matches g ~file ~rule =
  (String.equal g.g_rule rule || String.equal g.g_rule "*")
  && (String.equal g.g_file file
      || (String.length g.g_file > 0
          && g.g_file.[String.length g.g_file - 1] = '/'
          && String.length file > String.length g.g_file
          && String.equal (String.sub file 0 (String.length g.g_file)) g.g_file)
      || (let suffix = "/" ^ g.g_file in
          String.length file > String.length suffix
          && String.equal
               (String.sub file
                  (String.length file - String.length suffix)
                  (String.length suffix))
               suffix))

let apply_grants grants report =
  let granted f =
    List.exists (fun g -> grant_matches g ~file:f.f_file ~rule:f.f_rule) grants
  in
  let sup, live = List.partition granted report.r_findings in
  { r_findings = live; r_suppressed = sort_findings (report.r_suppressed @ sup) }

(* --- whole-tree scan --- *)

let merge reports =
  { r_findings = sort_findings (List.concat_map (fun r -> r.r_findings) reports);
    r_suppressed =
      sort_findings (List.concat_map (fun r -> r.r_suppressed) reports) }

let scan ~root ~grants =
  let under sub = if String.equal root "." then sub else Filename.concat root sub in
  let lint_tree scope sub =
    List.map
      (fun rel ->
        let disk = Filename.concat (under sub) rel in
        let shown = Filename.concat sub rel in
        let r = lint_file ~scope disk in
        (* Findings carry the repo-relative path, not the on-disk one. *)
        { r_findings = List.map (fun f -> { f with f_file = shown }) r.r_findings;
          r_suppressed =
            List.map (fun f -> { f with f_file = shown }) r.r_suppressed })
      (walk_mls (under sub) "")
  in
  let parsed =
    lint_tree Lib "lib" @ lint_tree Bench "bench" @ lint_tree Bench "bin"
    @ lint_tree Bench "tools"
  in
  let h001 =
    h001_check ~disk_dir:(under "lib") ~shown_dir:"lib"
      (walk_mls (under "lib") "")
  in
  apply_grants grants (merge (parsed @ [ { r_findings = h001; r_suppressed = [] } ]))

(* --- fixture selftest --- *)

(* Fixture files are named <rule>_..._<case>.ml where case is pos | neg |
   sup: pos must yield the rule, neg must be clean, sup must be clean
   with the rule visible in the suppressed list.  H001 fixtures are
   directories h001_pos/ h001_neg/ h001_sup/ checked for .mli presence;
   the sup case is granted through allow_fixture.sexp. *)
type fixture_result = { x_name : string; x_ok : bool; x_detail : string }

let classify name =
  match String.index_opt name '_' with
  | None -> None
  | Some i ->
    let rule = String.uppercase_ascii (String.sub name 0 i) in
    if not (List.mem rule rule_ids) then None
    else begin
      let stem = Filename.remove_extension name in
      match String.rindex_opt stem '_' with
      | None -> None
      | Some j ->
        (match String.sub stem (j + 1) (String.length stem - j - 1) with
         | ("pos" | "neg" | "sup") as case -> Some (rule, case)
         | _ -> None)
    end

let run_fixtures ~dir =
  let grants = load_grants (Filename.concat dir "allow_fixture.sexp") in
  let has rule fs = List.exists (fun f -> String.equal f.f_rule rule) fs in
  let file_cases =
    List.filter_map
      (fun name ->
        if Filename.check_suffix name ".ml" then
          Option.map (fun (r, c) -> (name, r, c)) (classify name)
        else None)
      (list_dir dir)
  in
  let check_file (name, rule, case) =
    let report =
      apply_grants grants (lint_file ~scope:Lib (Filename.concat dir name))
    in
    let ok, detail =
      match case with
      | "pos" ->
        ( has rule report.r_findings,
          Printf.sprintf "expected a %s finding, got %d finding(s)" rule
            (List.length report.r_findings) )
      | "neg" ->
        ( report.r_findings = [],
          Printf.sprintf "expected clean, got %d finding(s)"
            (List.length report.r_findings) )
      | _ ->
        ( report.r_findings = [] && has rule report.r_suppressed,
          Printf.sprintf
            "expected %s suppressed (findings=%d suppressed=%d)" rule
            (List.length report.r_findings)
            (List.length report.r_suppressed) )
    in
    { x_name = name; x_ok = ok; x_detail = detail }
  in
  let dir_cases =
    List.filter_map
      (fun name ->
        let path = Filename.concat dir name in
        if Sys.file_exists path && Sys.is_directory path then
          Option.map (fun (r, c) -> (name, r, c)) (classify (name ^ ".ml"))
        else None)
      (list_dir dir)
  in
  let check_dir (name, rule, case) =
    let sub = Filename.concat dir name in
    let fs = h001_check ~disk_dir:sub ~shown_dir:name (walk_mls sub "") in
    let report = apply_grants grants { r_findings = fs; r_suppressed = [] } in
    let ok, detail =
      match case with
      | "pos" -> (has rule report.r_findings, "expected an H001 finding")
      | "neg" -> (report.r_findings = [], "expected no H001 finding")
      | _ ->
        ( report.r_findings = [] && has rule report.r_suppressed,
          "expected H001 suppressed via allow_fixture.sexp" )
    in
    { x_name = name; x_ok = ok; x_detail = detail }
  in
  List.map check_file file_cases @ List.map check_dir dir_cases
