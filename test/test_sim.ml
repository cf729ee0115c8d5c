(* Tests for the discrete-event simulator: scheduling order, virtual time,
   ivars, timeouts, resources, determinism, and failure propagation. *)

let test_sleep_ordering () =
  let log = ref [] in
  Sim.run (fun () ->
      Sim.spawn (fun () -> Sim.sleep 2.0; log := "late" :: !log);
      Sim.spawn (fun () -> Sim.sleep 1.0; log := "early" :: !log);
      log := "first" :: !log);
  Alcotest.(check (list string)) "order" [ "first"; "early"; "late" ]
    (List.rev !log)

let test_now_advances () =
  let times = ref [] in
  Sim.run (fun () ->
      times := Sim.now () :: !times;
      Sim.sleep 1.5;
      times := Sim.now () :: !times;
      Sim.sleep 0.25;
      times := Sim.now () :: !times);
  Alcotest.(check (list (float 1e-9))) "times" [ 0.; 1.5; 1.75 ]
    (List.rev !times)

let test_same_time_fifo () =
  (* Events at the same instant run in spawn order. *)
  let log = ref [] in
  Sim.run (fun () ->
      for i = 1 to 5 do
        Sim.spawn (fun () -> log := i :: !log)
      done);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_ivar_fill_before_read () =
  let got = ref 0 in
  Sim.run (fun () ->
      let iv = Sim.Ivar.create () in
      Sim.Ivar.fill iv 7;
      got := Sim.Ivar.read iv);
  Alcotest.(check int) "value" 7 !got

let test_ivar_read_before_fill () =
  let got = ref 0 in
  Sim.run (fun () ->
      let iv = Sim.Ivar.create () in
      Sim.spawn (fun () -> got := Sim.Ivar.read iv);
      Sim.spawn (fun () -> Sim.sleep 1.0; Sim.Ivar.fill iv 9));
  Alcotest.(check int) "value" 9 !got

let test_ivar_multiple_readers () =
  let sum = ref 0 in
  Sim.run (fun () ->
      let iv = Sim.Ivar.create () in
      for _ = 1 to 3 do
        Sim.spawn (fun () -> sum := !sum + Sim.Ivar.read iv)
      done;
      Sim.spawn (fun () -> Sim.Ivar.fill iv 5));
  Alcotest.(check int) "all readers woken" 15 !sum

let test_ivar_double_fill () =
  Sim.run (fun () ->
      let iv = Sim.Ivar.create () in
      Sim.Ivar.fill iv 1;
      Alcotest.(check bool) "try_fill on full" false (Sim.Ivar.try_fill iv 2);
      Alcotest.check_raises "fill on full"
        (Invalid_argument "Sim.Ivar.fill: already filled") (fun () ->
          Sim.Ivar.fill iv 2))

let test_timeout_expires () =
  let out = ref (Some 1) in
  Sim.run (fun () ->
      let iv = Sim.Ivar.create () in
      out := Sim.Ivar.read_timeout iv 0.5);
  Alcotest.(check (option int)) "timed out" None !out

let test_timeout_beaten_by_fill () =
  let out = ref None and t_end = ref 0. in
  Sim.run (fun () ->
      let iv = Sim.Ivar.create () in
      Sim.spawn (fun () -> Sim.sleep 0.2; Sim.Ivar.fill iv 3);
      Sim.spawn (fun () ->
          out := Sim.Ivar.read_timeout iv 5.0;
          t_end := Sim.now ()));
  Alcotest.(check (option int)) "got value" (Some 3) !out;
  Alcotest.(check (float 1e-9)) "woke at fill time" 0.2 !t_end

let test_resource_serializes () =
  (* Capacity-1 resource: holders never overlap. *)
  let active = ref 0 and max_active = ref 0 in
  Sim.run (fun () ->
      let r = Sim.Resource.create 1 in
      for _ = 1 to 4 do
        Sim.spawn (fun () ->
            Sim.Resource.use r (fun () ->
                incr active;
                max_active := max !max_active !active;
                Sim.sleep 1.0;
                decr active))
      done);
  Alcotest.(check int) "no overlap" 1 !max_active

let test_resource_capacity_two () =
  let max_active = ref 0 and active = ref 0 in
  Sim.run (fun () ->
      let r = Sim.Resource.create 2 in
      for _ = 1 to 6 do
        Sim.spawn (fun () ->
            Sim.Resource.use r (fun () ->
                incr active;
                max_active := max !max_active !active;
                Sim.sleep 1.0;
                decr active))
      done);
  Alcotest.(check int) "two concurrent" 2 !max_active

let test_resource_release_on_exception () =
  let second_ran = ref false in
  Sim.run (fun () ->
      let r = Sim.Resource.create 1 in
      (try Sim.Resource.use r (fun () -> raise Exit) with Exit -> ());
      Sim.Resource.use r (fun () -> second_ran := true));
  Alcotest.(check bool) "slot released" true !second_ran

let test_exception_propagates () =
  match Sim.run (fun () -> Sim.spawn (fun () -> Sim.sleep 1.0; failwith "boom")) with
  | exception Failure m -> Alcotest.(check string) "message" "boom" m
  | () -> Alcotest.fail "expected failure to propagate"

let test_until_bound () =
  let count = ref 0 in
  Sim.run ~until:10.0 (fun () ->
      let rec tick () =
        incr count;
        Sim.sleep 1.0;
        tick ()
      in
      Sim.spawn tick);
  (* Ticks at t=0..10 inclusive start; the one scheduled past 10 does not. *)
  Alcotest.(check bool) "bounded" true (!count >= 10 && !count <= 12)

let test_stop_ends_run () =
  let after_stop = ref false in
  Sim.run (fun () ->
      Sim.spawn (fun () -> Sim.sleep 100.0; after_stop := true);
      Sim.spawn (fun () -> Sim.sleep 1.0; Sim.stop ()));
  Alcotest.(check bool) "event after stop dropped" false !after_stop

let test_outside_run_fails () =
  match Sim.now () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure outside run"

let test_negative_sleep_rejected () =
  Sim.run (fun () ->
      Alcotest.check_raises "negative" (Invalid_argument "Sim.sleep: negative duration")
        (fun () -> Sim.sleep (-1.0)))

let test_determinism () =
  (* The same program must produce the identical event trace twice. *)
  let trace () =
    let log = ref [] in
    let rng = Glassdb_util.Rng.create 11 in
    Sim.run (fun () ->
        for i = 1 to 20 do
          Sim.spawn (fun () ->
              let d = Glassdb_util.Rng.float rng in
              Sim.sleep d;
              log := (i, Sim.now ()) :: !log)
        done);
    !log
  in
  let a = trace () and b = trace () in
  Alcotest.(check bool) "identical traces" true (a = b)

let test_net_latency () =
  let t = ref 0. in
  Sim.run (fun () ->
      let net = Net.create ~rtt:0.001 ~bandwidth:1000. () in
      Net.send net ~bytes_len:100;
      Sim.sleep 0.5;
      Net.send net ~bytes_len:200;
      t := Sim.now ());
  (* 0.0005 + 0.1 (req) + 0.5 (work) + 0.0005 + 0.2 (resp) = 0.801 *)
  Alcotest.(check (float 1e-9)) "rpc latency" 0.801 !t;
  Sim.run (fun () ->
      let net = Net.create () in
      Net.send net ~bytes_len:0;
      Alcotest.(check int) "bytes tracked" 0 (Net.bytes_sent net))

let test_many_processes () =
  (* Stress: 10k processes with staggered sleeps all complete. *)
  let done_count = ref 0 in
  Sim.run (fun () ->
      for i = 0 to 9_999 do
        Sim.spawn (fun () ->
            Sim.sleep (float_of_int (i mod 17) *. 0.001);
            incr done_count)
      done);
  Alcotest.(check int) "all completed" 10_000 !done_count

(* --- fault injection --- *)

let test_faults_schedule_in_time_order () =
  (* Actions fire at their times regardless of insertion order. *)
  let fired = ref [] in
  Sim.run (fun () ->
      let f = Faults.create ~seed:7 () in
      Faults.schedule f ~at:2.0 (Faults.Restart 0);
      Faults.schedule f ~at:1.0 (Faults.Crash 0);
      Faults.schedule f ~at:1.5 (Faults.Partition 1);
      Faults.schedule f ~at:1.8 (Faults.Heal 1);
      Faults.run f
        ~crash:(fun i -> fired := (Printf.sprintf "crash %d" i, Sim.now ()) :: !fired)
        ~restart:(fun i ->
          fired := (Printf.sprintf "restart %d" i, Sim.now ()) :: !fired));
  Alcotest.(check (list (pair string (float 1e-9))))
    "crash then restart, at their times"
    [ ("crash 0", 1.0); ("restart 0", 2.0) ]
    (List.rev !fired);
  ()

let test_faults_partition_toggles_delivery () =
  let during = ref true and after = ref false and other = ref false in
  Sim.run (fun () ->
      let f = Faults.create ~seed:7 () in
      Faults.schedule f ~at:1.0 (Faults.Partition 1);
      Faults.schedule f ~at:2.0 (Faults.Heal 1);
      Faults.run f ~crash:ignore ~restart:ignore;
      Sim.spawn (fun () ->
          Sim.sleep 1.5;
          during := Faults.deliver f ~shard:1 && not (Faults.partitioned f ~shard:1);
          other := Faults.deliver f ~shard:0;
          Sim.sleep 1.0;
          after := Faults.deliver f ~shard:1));
  Alcotest.(check bool) "partitioned link drops" false !during;
  Alcotest.(check bool) "other links unaffected" true !other;
  Alcotest.(check bool) "healed link delivers" true !after

let test_faults_seeded_drops_deterministic () =
  let draw seed =
    let f = Faults.create ~drop:0.3 ~seed () in
    List.init 200 (fun i -> Faults.deliver f ~shard:(i mod 4))
  in
  Alcotest.(check (list bool)) "same seed, same fate" (draw 11) (draw 11);
  Alcotest.(check bool) "different seed differs" true (draw 11 <> draw 12);
  let f = Faults.create ~drop:0.3 ~seed:11 () in
  let delivered =
    List.length (List.filter Fun.id (List.init 200 (fun _ -> Faults.deliver f ~shard:0)))
  in
  Alcotest.(check int) "drop counter exact" (200 - delivered) (Faults.drops f);
  Alcotest.(check bool) "some dropped, some delivered" true
    (delivered > 0 && delivered < 200)

let test_faults_none_is_inert () =
  let f = Faults.none () in
  Alcotest.(check bool) "delivers" true (Faults.deliver f ~shard:0);
  Alcotest.(check (float 0.)) "no delay" 0. (Faults.extra_delay f ~shard:0);
  Alcotest.(check (list (pair (float 0.) string))) "empty trace" []
    (Faults.trace f)

let test_faults_trace_records_events () =
  let tr = ref [] in
  Sim.run (fun () ->
      let f = Faults.create ~seed:3 () in
      Faults.schedule f ~at:0.5 (Faults.Crash 2);
      Faults.schedule f ~at:1.0 (Faults.Restart 2);
      Faults.run f ~crash:ignore ~restart:ignore;
      Sim.spawn (fun () ->
          Sim.sleep 2.0;
          tr := Faults.trace f));
  Alcotest.(check (list string)) "events in order" [ "crash 2"; "restart 2" ]
    (List.map snd !tr)

let () =
  Alcotest.run "sim"
    [ ("scheduler",
       [ Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
         Alcotest.test_case "now advances" `Quick test_now_advances;
         Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
         Alcotest.test_case "until bound" `Quick test_until_bound;
         Alcotest.test_case "stop ends run" `Quick test_stop_ends_run;
         Alcotest.test_case "outside run fails" `Quick test_outside_run_fails;
         Alcotest.test_case "negative sleep rejected" `Quick test_negative_sleep_rejected;
         Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
         Alcotest.test_case "determinism" `Quick test_determinism;
         Alcotest.test_case "10k processes" `Quick test_many_processes ]);
      ("ivar",
       [ Alcotest.test_case "fill before read" `Quick test_ivar_fill_before_read;
         Alcotest.test_case "read before fill" `Quick test_ivar_read_before_fill;
         Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
         Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
         Alcotest.test_case "timeout expires" `Quick test_timeout_expires;
         Alcotest.test_case "timeout beaten by fill" `Quick test_timeout_beaten_by_fill ]);
      ("resource",
       [ Alcotest.test_case "capacity 1 serializes" `Quick test_resource_serializes;
         Alcotest.test_case "capacity 2" `Quick test_resource_capacity_two;
         Alcotest.test_case "release on exception" `Quick test_resource_release_on_exception ]);
      ("net", [ Alcotest.test_case "rpc latency" `Quick test_net_latency ]);
      ("faults",
       [ Alcotest.test_case "schedule fires in time order" `Quick
           test_faults_schedule_in_time_order;
         Alcotest.test_case "partition toggles delivery" `Quick
           test_faults_partition_toggles_delivery;
         Alcotest.test_case "seeded drops deterministic" `Quick
           test_faults_seeded_drops_deterministic;
         Alcotest.test_case "none is inert" `Quick test_faults_none_is_inert;
         Alcotest.test_case "trace records events" `Quick
           test_faults_trace_records_events ]) ]
