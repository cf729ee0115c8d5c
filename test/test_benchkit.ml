(* Tests for the benchmark kit: YCSB and TPC-C generators, the system
   adapters, and the closed-loop driver at miniature scale. *)

open Benchkit

let tiny_params =
  { System.default_params with
    System.shards = 2;
    persist_interval = 0.02;
    verify_delay = 0.05 }

let tiny_ycsb =
  { Ycsb.default_config with Ycsb.record_count = 200; ops_per_txn = 6 }

let tiny_setup sys =
  { Driver.sys; params = tiny_params; clients = 4; duration = 1.0;
    warmup = 0.2; seed = 7 }

(* --- YCSB generator --- *)

let test_ycsb_mix_ratios () =
  let rng = Glassdb_util.Rng.create 1 in
  let count_writes mix =
    let cfg = { tiny_ycsb with Ycsb.mix } in
    let ops = Ycsb.txn_ops rng cfg (Ycsb.keys cfg) in
    List.length
      (List.filter (function Ycsb.Op_put _ -> true | _ -> false) ops)
  in
  Alcotest.(check int) "read-heavy writes" 1 (count_writes Ycsb.Read_heavy);
  Alcotest.(check int) "balanced writes" 3 (count_writes Ycsb.Balanced);
  Alcotest.(check int) "write-heavy writes" 4 (count_writes Ycsb.Write_heavy)

let test_ycsb_distinct_keys_in_txn () =
  let rng = Glassdb_util.Rng.create 2 in
  let keys = Ycsb.keys tiny_ycsb in
  for _ = 1 to 20 do
    let ops = Ycsb.txn_ops rng tiny_ycsb keys in
    let keys =
      List.map (function Ycsb.Op_get k -> k | Ycsb.Op_put (k, _) -> k) ops
    in
    let distinct = List.sort_uniq compare keys in
    Alcotest.(check int) "no duplicate keys" (List.length keys)
      (List.length distinct)
  done

(* A run builds the Zipf table once and shares it; a seeded run must draw
   the same keys as one that rebuilds the table for every operation. *)
let test_ycsb_shared_table_same_keys () =
  let cfg = { tiny_ycsb with Ycsb.theta = 0.9 } in
  let op_key = function Ycsb.Op_get k -> k | Ycsb.Op_put (k, _) -> k in
  let txn_keys ~rebuild =
    let rng = Glassdb_util.Rng.create 11 and shared = Ycsb.keys cfg in
    List.concat
      (List.init 50 (fun _ ->
           let keys = if rebuild then Ycsb.keys cfg else shared in
           List.map op_key (Ycsb.txn_ops rng cfg keys)))
  in
  let shared = txn_keys ~rebuild:false in
  Alcotest.(check (list string)) "txn_ops keys" (txn_keys ~rebuild:true)
    shared;
  Alcotest.(check bool) "keys vary" true
    (List.length (List.sort_uniq compare shared) > 10);
  (* run_verified_op: record the key each verified put reaches the client
     with. *)
  let put_keys ~rebuild =
    let seen = ref [] in
    let unused _ = invalid_arg "stub client" in
    let client =
      { System.c_execute = unused;
        c_execute_verified = unused;
        c_verified_put = (fun k _ -> seen := k :: !seen; Ok ());
        c_verified_get_latest = unused;
        c_verified_get_historical = unused;
        c_flush = (fun ~force:_ -> []);
        c_history = (fun _ ~n:_ -> 0);
        c_failures = (fun () -> 0) }
    in
    let rng = Glassdb_util.Rng.create 12 and shared = Ycsb.keys cfg in
    for _ = 1 to 100 do
      let keys = if rebuild then Ycsb.keys cfg else shared in
      ignore (Ycsb.run_verified_op client rng cfg keys Ycsb.V_put)
    done;
    List.rev !seen
  in
  Alcotest.(check (list string)) "run_verified_op keys"
    (put_keys ~rebuild:true) (put_keys ~rebuild:false)

let test_workload_mixes () =
  let rng = Glassdb_util.Rng.create 3 in
  let n = 10_000 in
  let count pick p =
    let c = ref 0 in
    for _ = 1 to n do
      if pick rng = p then incr c
    done;
    float_of_int !c /. float_of_int n
  in
  let x_puts = count Ycsb.workload_x Ycsb.V_put in
  if x_puts < 0.45 || x_puts > 0.55 then
    Alcotest.failf "workload-X put ratio %f" x_puts;
  let y_puts = count Ycsb.workload_y Ycsb.V_put in
  if y_puts < 0.15 || y_puts > 0.25 then
    Alcotest.failf "workload-Y put ratio %f" y_puts

(* --- driver over each system --- *)

let run_tiny sys =
  Driver.run_ycsb (tiny_setup sys) tiny_ycsb

let check_sane r =
  Alcotest.(check bool) "made progress" true (r.Driver.r_commits > 50);
  Alcotest.(check bool) "throughput positive" true (r.Driver.r_throughput > 0.);
  Alcotest.(check int) "no verification failures" 0 r.Driver.r_failures;
  Alcotest.(check bool) "storage accounted" true (r.Driver.r_storage_bytes > 0)

let test_driver_glassdb () = check_sane (run_tiny Adapters.glassdb)
let test_driver_qldb () = check_sane (run_tiny Adapters.qldb)
let test_driver_ledgerdb () = check_sane (run_tiny Adapters.ledgerdb)
let test_driver_glassdb_no_ba () = check_sane (run_tiny Adapters.glassdb_no_ba)

let test_driver_glassdb_no_dv () =
  check_sane (run_tiny Adapters.glassdb_no_dv_no_ba)

let test_driver_deterministic () =
  let a = run_tiny Adapters.glassdb and b = run_tiny Adapters.glassdb in
  Alcotest.(check int) "same commits" a.Driver.r_commits b.Driver.r_commits;
  Alcotest.(check int) "same aborts" a.Driver.r_aborts b.Driver.r_aborts

let test_verified_workload_x () =
  let r =
    Driver.run_verified (tiny_setup Adapters.glassdb) tiny_ycsb
      ~pick:Ycsb.workload_x
  in
  Alcotest.(check bool) "ops completed" true (r.Driver.r_commits > 50);
  Alcotest.(check bool) "verifications happened" true (r.Driver.r_verifications > 0);
  Alcotest.(check int) "no failures" 0 r.Driver.r_failures;
  Alcotest.(check bool) "proof bytes recorded" true
    (Glassdb_util.Stats.count r.Driver.r_proof_bytes > 0)

let test_verified_workload_trillian () =
  let r =
    Driver.run_verified (tiny_setup Adapters.trillian) tiny_ycsb
      ~pick:Ycsb.workload_x
  in
  Alcotest.(check bool) "trillian ops completed" true (r.Driver.r_commits > 10);
  Alcotest.(check int) "no failures" 0 r.Driver.r_failures

let test_timeline_crash_dip () =
  let buckets =
    Driver.run_timeline
      { (tiny_setup Adapters.glassdb) with Driver.duration = 8.0 }
      ~load:(fun c -> Ycsb.load c tiny_ycsb)
      ~body:(let keys = Ycsb.keys tiny_ycsb in
             fun client rng -> Ycsb.run_txn client rng tiny_ycsb keys)
      ~events:
        [ (3.0, fun a -> a.System.a_crash 0);
          (5.0, fun a -> a.System.a_recover 0) ]
  in
  let rate t =
    match List.assoc_opt t buckets with Some n -> n | None -> 0
  in
  (* Throughput during the crash window collapses relative to before. *)
  let before = rate 1. + rate 2. in
  let during = rate 4. in
  Alcotest.(check bool) "crash dips throughput" true
    (during * 4 < before);
  let after = rate 6. + rate 7. in
  Alcotest.(check bool) "recovers afterwards" true (after * 2 > before)

(* --- TPC-C --- *)

let tiny_tpcc =
  { Tpcc.warehouses = 2; districts = 2; customers = 5; items = 30 }

let test_tpcc_load_and_each_kind () =
  let out = ref None in
  Sim.run (fun () ->
      let admin = Adapters.glassdb.System.make tiny_params in
      admin.System.a_start ();
      let c = admin.System.a_client 0 in
      Tpcc.load c tiny_tpcc;
      let rng = Glassdb_util.Rng.create 5 in
      let failed = ref [] in
      List.iter
        (fun kind ->
          for _ = 1 to 5 do
            match Tpcc.run_txn c rng tiny_tpcc kind with
            | Ok () -> ()
            | Error e -> failed := (Tpcc.kind_name kind, e) :: !failed
          done)
        Tpcc.all_kinds;
      admin.System.a_stop ();
      out := Some !failed);
  match Option.get !out with
  | [] -> ()
  | fails ->
    Alcotest.failf "failed txns: %s"
      (String.concat "; "
         (List.map
            (fun (k, e) -> k ^ ":" ^ Glassdb_util.Error.to_string e)
            fails))

let test_tpcc_new_order_consistency () =
  (* d_next_o_id advances once per new-order; order info exists. *)
  Sim.run (fun () ->
      let admin = Adapters.glassdb.System.make tiny_params in
      admin.System.a_start ();
      let c = admin.System.a_client 0 in
      Tpcc.load c tiny_tpcc;
      let rng = Glassdb_util.Rng.create 6 in
      let before = ref 0 and after = ref 0 in
      let sum_next () =
        let total = ref 0 in
        ignore
          (c.System.c_execute (fun ctx ->
               for w = 0 to 1 do
                 for d = 0 to 1 do
                   total :=
                     !total
                     + int_of_string
                         (Option.value ~default:"0"
                            (ctx.System.tget (Printf.sprintf "d_next_o_id_%d_%d" w d)))
                 done
               done));
        !total
      in
      before := sum_next ();
      let committed = ref 0 in
      for _ = 1 to 10 do
        match Tpcc.run_txn c rng tiny_tpcc Tpcc.New_order with
        | Ok () -> incr committed
        | Error _ -> ()
      done;
      after := sum_next ();
      admin.System.a_stop ();
      Alcotest.(check int) "next_o_id advanced per commit" !committed
        (!after - !before))

let test_tpcc_mix () =
  let rng = Glassdb_util.Rng.create 7 in
  let n = 20_000 in
  let counts = Hashtbl.create 8 in
  for _ = 1 to n do
    let k = Tpcc.pick_kind rng in
    Hashtbl.replace counts k
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let share k =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k))
    /. float_of_int n
  in
  if abs_float (share Tpcc.New_order -. 0.42) > 0.03 then
    Alcotest.failf "new-order share %f" (share Tpcc.New_order);
  if abs_float (share Tpcc.Payment -. 0.42) > 0.03 then
    Alcotest.failf "payment share %f" (share Tpcc.Payment);
  if abs_float (share Tpcc.Delivery -. 0.04) > 0.02 then
    Alcotest.failf "delivery share %f" (share Tpcc.Delivery)

let test_tpcc_driver_run () =
  let r =
    Driver.run_transactional (tiny_setup Adapters.glassdb)
      ~load:(fun c -> Tpcc.load c tiny_tpcc)
      ~body:(fun client rng ->
        Tpcc.run_txn client rng tiny_tpcc (Tpcc.pick_kind rng))
  in
  Alcotest.(check bool) "tpcc progress" true (r.Driver.r_commits > 20);
  Alcotest.(check int) "no verification failures" 0 r.Driver.r_failures

(* --- benchdiff round-trip --- *)

module Diff = Benchdiff_core.Diff

let doc wall =
  Bench1.(
    Obj
      [ ("schema", Str "glassdb.example/v1");
        ("stages",
         Arr
           [ Obj
               [ ("stage", Str "proofs");
                 ("runs", Arr [ Obj [ ("wall_s", Num wall) ] ]) ] ]);
        ("wallclock", Obj [ ("finished_unix_s", Num 1.) ]) ])

let test_benchdiff_roundtrip () =
  let r = Diff.diff (doc 1.0) (doc 1.0) in
  Alcotest.(check int) "identical docs: no changes" 0
    (List.length r.Diff.r_changes);
  Alcotest.(check int) "identical docs: no regressions" 0 (Diff.regressions r);
  let r = Diff.diff (doc 1.0) (doc 1.3) in
  Alcotest.(check int) "slower wall_s flagged" 1 (Diff.regressions r);
  let r = Diff.diff (doc 1.3) (doc 1.0) in
  Alcotest.(check int) "faster wall_s not a regression" 0 (Diff.regressions r);
  Alcotest.(check int) "but still reported" 1 (List.length r.Diff.r_changes);
  (* wallclock is exempt, like in the determinism checks. *)
  let with_wall t =
    Bench1.(Obj [ ("wallclock", Obj [ ("finished_unix_s", Num t) ]) ])
  in
  let r = Diff.diff (with_wall 1.) (with_wall 99.) in
  Alcotest.(check int) "wallclock ignored" 0
    (List.length r.Diff.r_changes + Diff.regressions r);
  (* Canonical report survives its own parser. *)
  let text = Bench1.to_string (Diff.report_json (Diff.diff (doc 1.0) (doc 1.3))) in
  match Bench1.parse text with
  | exception Bench1.Bad m -> Alcotest.fail ("report does not parse: " ^ m)
  | j ->
    Alcotest.(check bool) "schema tag" true
      (Bench1.field "schema" j = Some (Bench1.Str Diff.schema_id))

let () =
  Alcotest.run "benchkit"
    [ ("ycsb",
       [ Alcotest.test_case "mix ratios" `Quick test_ycsb_mix_ratios;
         Alcotest.test_case "distinct keys per txn" `Quick test_ycsb_distinct_keys_in_txn;
         Alcotest.test_case "shared Zipf table draws same keys" `Quick
           test_ycsb_shared_table_same_keys;
         Alcotest.test_case "verified workload mixes" `Quick test_workload_mixes ]);
      ("driver",
       [ Alcotest.test_case "glassdb" `Quick test_driver_glassdb;
         Alcotest.test_case "qldb" `Quick test_driver_qldb;
         Alcotest.test_case "ledgerdb" `Quick test_driver_ledgerdb;
         Alcotest.test_case "glassdb-no-BA" `Quick test_driver_glassdb_no_ba;
         Alcotest.test_case "glassdb-no-DV-no-BA" `Quick test_driver_glassdb_no_dv;
         Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
         Alcotest.test_case "workload-X verified" `Quick test_verified_workload_x;
         Alcotest.test_case "workload-X on trillian" `Quick test_verified_workload_trillian;
         Alcotest.test_case "crash timeline" `Quick test_timeline_crash_dip ]);
      ("tpcc",
       [ Alcotest.test_case "load + all kinds" `Quick test_tpcc_load_and_each_kind;
         Alcotest.test_case "new-order consistency" `Quick test_tpcc_new_order_consistency;
         Alcotest.test_case "mix ratios" `Quick test_tpcc_mix;
         Alcotest.test_case "driver run" `Quick test_tpcc_driver_run ]);
      ("benchdiff",
       [ Alcotest.test_case "round-trip: empty diff, flagged regression"
           `Quick test_benchdiff_roundtrip ]) ]
