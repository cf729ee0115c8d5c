(** glassdb-lint: determinism & safety static analysis over the project's
    OCaml sources (see DESIGN.md §4e for the rule catalogue). *)

type scope =
  | Lib    (** lib/: all rules, including S001/S002 *)
  | Bench  (** bench/ and bin/: determinism rules (D001–D003) only *)

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_msg : string;
}

type report = { r_findings : finding list; r_suppressed : finding list }

val rules : (string * string) list
(** Rule id, one-line description — the enforced catalogue. *)

val sort_findings : finding list -> finding list
(** Canonical (file, line, col, rule) order used everywhere output is
    emitted, so reports are stable across runs. *)

val lint_source : scope:scope -> file:string -> string -> report
(** Lint one compilation unit given as source text; [file] is used for
    positions. Findings inside a [[@glassdb.lint.allow "RULE"]] region
    land in [r_suppressed]. A file that fails to parse yields a single
    [E000] finding. *)

val lint_file : scope:scope -> string -> report
(** [lint_source] over the contents of a file on disk. *)

type grant = { g_file : string; g_rule : string; g_reason : string }

val load_grants : string -> grant list
(** Parse an allow.sexp of whole-file grants:
    [((file "bench/x.ml") (rule "D001") (reason "..."))] entries.
    Returns [] when the file does not exist; raises [Failure] on a
    malformed file. *)

val apply_grants : grant list -> report -> report
(** Move findings matched by a grant (exact path, "/"-suffixed directory
    prefix, or basename suffix) into [r_suppressed]. *)

val scan : root:string -> grants:grant list -> report
(** Lint every .ml under [root]/lib (Lib scope), [root]/bench and
    [root]/bin (Bench scope), plus the H001 .mli-presence check over
    lib/; findings carry repo-relative paths. *)

type fixture_result = { x_name : string; x_ok : bool; x_detail : string }

val run_fixtures : dir:string -> fixture_result list
(** Drive the linter over a fixture directory: files named
    [<rule>_..._<pos|neg|sup>.ml] must respectively trigger, not trigger,
    or suppress their rule; [h001_<case>/] directories exercise the
    .mli-presence check, with grants read from [allow_fixture.sexp]. *)
