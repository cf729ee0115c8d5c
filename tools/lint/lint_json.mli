(** Canonical JSON serialization of lint reports through
    {!Glassdb_util.Json}: fixed key order and sorted findings, so
    identical trees produce byte-identical output. *)

val report_to_json : Lint_engine.report -> string
