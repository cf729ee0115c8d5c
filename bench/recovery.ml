(* PR-4 measurement: fault injection and recovery (the paper's Figure 11
   failure-recovery experiment, driven by the deterministic fault layer).

   A seeded {!Faults} schedule crashes one shard mid-workload and restarts
   it later while closed-loop clients keep committing through per-RPC
   timeouts and bounded retries.  The run emits a commit/abort timeline
   (the throughput dip), the time from restart to the first commit on the
   recovered shard, WAL-replay and retry counters, the fault event trace,
   and a replicated variant where a Raft group of three keeps shard 0
   committing while its leader is down.

   Results land in BENCH_4.json.  The whole run lives in virtual time, so
   one seed produces byte-identical output apart from the "wallclock"
   block; the faults-smoke alias re-runs it twice and checks exactly
   that. *)

open Glassdb_util
module Config = Glassdb.Config
module Cluster = Glassdb.Cluster
module Client = Glassdb.Client

(* Reuse bench1's dependency-free JSON emitter/parser. *)
open Bench1

(* v3: drops v2's "prof" section (the pool/lock profile) and its sampled
   glassdb.prof.* gauges.  v1 was the first version. *)
let schema_id = "glassdb.recovery/v3"

type profile = {
  shards : int;
  clients : int;
  keys : int;
  duration : float;
  bucket : float;
  crash_at : float;
  restart_at : float;
  drop : float;
  seed : int;
}

let profile ~quick =
  if quick then
    { shards = 2; clients = 4; keys = 64; duration = 6.0; bucket = 0.5;
      crash_at = 2.0; restart_at = 3.5; drop = 0.005; seed = 404 }
  else
    { shards = 4; clients = 16; keys = 512; duration = 20.0; bucket = 0.5;
      crash_at = 8.0; restart_at = 12.0; drop = 0.005; seed = 404 }

(* --- the primary run: one shard crashes and recovers mid-workload --- *)

type outcome = {
  o_timeline : (int * int * int) array; (* per bucket: commits, aborts *)
  o_recover_s : float option;          (* restart -> first commit on shard *)
  o_retries : int;
  o_coordinator_aborts : int;
  o_verification_failures : int;
  o_fault_trace : (float * string) list;
  o_fault_counters : int * int * int;  (* crashes, drops, delays *)
}

let primary_run p =
  Obs.Metrics.reset ();
  let crashed_shard = 0 in
  let buckets = int_of_float (Float.ceil (p.duration /. p.bucket)) in
  let commits = Array.make buckets 0 and aborts = Array.make buckets 0 in
  let first_after_restart = ref None in
  let retries = ref 0 and coord_aborts = ref 0 and vfails = ref 0 in
  let trace = ref [] and counters = ref (0, 0, 0) in
  Sim.run (fun () ->
      let faults = Faults.create ~drop:p.drop ~seed:p.seed () in
      Faults.schedule faults ~at:p.crash_at (Faults.Crash crashed_shard);
      Faults.schedule faults ~at:p.restart_at (Faults.Restart crashed_shard);
      let cluster =
        Cluster.create
          (Config.make ~shards:p.shards ~rpc_timeout:0.15 ~rpc_retries:2
             ~retry_backoff:0.01 ~verify_delay:0.2 ~faults ())
      in
      Cluster.start cluster;
      let sampler = Obs.Sampler.start ~interval:(p.bucket /. 2.) () in
      let master = Rng.create p.seed in
      let sessions =
        Array.init p.clients (fun i ->
            Client.create cluster ~id:i ~sk:(Printf.sprintf "sk-%d" i))
      in
      Array.iteri
        (fun i c ->
          let rng = Rng.split master in
          Sim.spawn (fun () ->
              while Sim.now () < p.duration do
                let t0 = Sim.now () in
                let k = Printf.sprintf "key-%04d" (Rng.int_below rng p.keys) in
                let v = Printf.sprintf "v-%d-%.3f" i t0 in
                (match Client.execute c (fun h -> Client.put h k v) with
                 | Ok (_, promises) ->
                   Client.queue_promises c promises;
                   let b = int_of_float (Sim.now () /. p.bucket) in
                   if b < buckets then commits.(b) <- commits.(b) + 1;
                   if
                     !first_after_restart = None
                     && Sim.now () >= p.restart_at
                     && Cluster.shard_of_key cluster k = crashed_shard
                   then first_after_restart := Some (Sim.now ())
                 | Error _ ->
                   let b = int_of_float (Sim.now () /. p.bucket) in
                   if b < buckets then aborts.(b) <- aborts.(b) + 1);
                if Sim.now () = t0 then Sim.sleep 1e-6
              done))
        sessions;
      Sim.spawn (fun () ->
          Sim.sleep (p.duration +. 1.0);
          Array.iter
            (fun c ->
              ignore (Client.flush_verifications c ~force:true ());
              retries := !retries + Client.rpc_retry_count c;
              coord_aborts :=
                !coord_aborts + List.length (Client.coordinator_aborts c);
              vfails := !vfails + Client.verification_failures c)
            sessions;
          trace := Faults.trace faults;
          counters := (Faults.crashes faults, Faults.drops faults,
                       Faults.delays faults);
          Obs.Sampler.stop sampler;
          Cluster.stop cluster;
          Sim.stop ()));
  { o_timeline =
      Array.init buckets (fun b -> (b, commits.(b), aborts.(b)));
    o_recover_s =
      Option.map (fun t -> t -. p.restart_at) !first_after_restart;
    o_retries = !retries;
    o_coordinator_aborts = !coord_aborts;
    o_verification_failures = !vfails;
    o_fault_trace = !trace;
    o_fault_counters = !counters }

(* --- the replicated variant: a Raft group of three behind shard 0 keeps
   committing while the crashed leader is down --- *)

type raft_outcome = {
  ro_commits_before : int;
  ro_commits_during : int;  (* between leader crash and replica restart *)
  ro_commits_after : int;
  ro_leader_changed : bool;
}

let raft_run p =
  let before = ref 0 and during = ref 0 and after = ref 0 in
  let crashed = ref (-1) and new_leader = ref None in
  Sim.run (fun () ->
      let group =
        Raft.create ~n:3 ~seed:(p.seed + 1) ~election_timeout:(0.6, 1.2)
          ~heartbeat:0.1
          ~apply:(fun ~replica_id:_ ~index:_ _ -> ())
          ()
      in
      Raft.start group;
      Sim.sleep 2.0 (* let a leader settle *);
      let stop_at = Sim.now () +. p.duration in
      let crash_at = Sim.now () +. p.crash_at in
      let restart_at = Sim.now () +. p.restart_at in
      Sim.spawn (fun () ->
          while Sim.now () < stop_at do
            let t0 = Sim.now () in
            if Raft.submit group ~timeout:1.0 "txn" then begin
              let n = Sim.now () in
              if n < crash_at then incr before
              else if n < restart_at then incr during
              else incr after
            end;
            if Sim.now () = t0 then Sim.sleep 1e-6
          done);
      Sim.spawn (fun () ->
          Sim.sleep p.crash_at;
          match Raft.leader group with
          | Some l ->
            crashed := l;
            Raft.crash group l
          | None -> ());
      Sim.spawn (fun () ->
          Sim.sleep p.restart_at;
          new_leader := Raft.leader group;
          for r = 0 to 2 do
            if not (Raft.is_alive group r) then Raft.recover group r
          done);
      Sim.spawn (fun () ->
          Sim.sleep (p.duration +. 2.5);
          Raft.stop group;
          Sim.stop ()));
  { ro_commits_before = !before;
    ro_commits_during = !during;
    ro_commits_after = !after;
    ro_leader_changed =
      (match !new_leader with Some l -> l <> !crashed | None -> false) }

(* --- JSON assembly --- *)

let run ~quick () =
  let p = profile ~quick in
  let o = primary_run p in
  let metrics =
    List.map (fun (k, v) -> (k, of_export v)) (Obs.Export.metrics_fields ())
  in
  let r = raft_run p in
  let crashes, drops, delays = o.o_fault_counters in
  let wall = Benchkit.Wallclock.now_s () in
  to_string
    (Obj
       [ ("schema", Str schema_id);
         ("profile", Str (if quick then "smoke" else "full"));
         ("config",
          Obj
            [ ("shards", Num (float_of_int p.shards));
              ("clients", Num (float_of_int p.clients));
              ("duration_s", Num p.duration);
              ("crash_at_s", Num p.crash_at);
              ("restart_at_s", Num p.restart_at);
              ("drop_prob", Num p.drop);
              ("seed", Num (float_of_int p.seed)) ]);
         ("crashed_shard", Num 0.);
         ("timeline",
          Arr
            (Array.to_list o.o_timeline
            |> List.map (fun (b, c, a) ->
                   Obj
                     [ ("t", Num (float_of_int b *. p.bucket));
                       ("commits", Num (float_of_int c));
                       ("aborts", Num (float_of_int a)) ])));
         ("time_to_recover_s",
          match o.o_recover_s with Some s -> Num s | None -> Null);
         ("rpc_retries", Num (float_of_int o.o_retries));
         ("coordinator_aborts", Num (float_of_int o.o_coordinator_aborts));
         ("verification_failures",
          Num (float_of_int o.o_verification_failures));
         ("fault_trace",
          Arr
            (List.map
               (fun (t, e) -> Obj [ ("t", Num t); ("event", Str e) ])
               o.o_fault_trace));
         ("fault_counters",
          Obj
            [ ("crashes", Num (float_of_int crashes));
              ("drops", Num (float_of_int drops));
              ("delays", Num (float_of_int delays)) ]);
         ("raft",
          Obj
            [ ("commits_before_crash", Num (float_of_int r.ro_commits_before));
              ("commits_during_crash", Num (float_of_int r.ro_commits_during));
              ("commits_after_restart", Num (float_of_int r.ro_commits_after));
              ("leader_changed", Bool r.ro_leader_changed) ]);
         ("metrics", Obj metrics);
         (* Human-facing only; stripped before any determinism check. *)
         ("wallclock", Obj [ ("finished_unix_s", Num wall) ]) ])

(* --- schema validation + determinism helper (used by faults-smoke) --- *)

let bucket_commits row =
  match field "commits" row with Some (Num c) -> c | _ -> raise (Bad "commits")

let validate text =
  match parse text with
  | exception Bad m -> Stdlib.Error ("malformed JSON: " ^ m)
  | j ->
    (try
       (match field "schema" j with
        | Some (Str s) when s = schema_id -> ()
        | _ -> raise (Bad "schema tag"));
       let timeline =
         match field "timeline" j with
         | Some (Arr (_ :: _ as rows)) -> rows
         | _ -> raise (Bad "timeline must be a non-empty array")
       in
       List.iter
         (fun row ->
           List.iter (require_num row) [ "t"; "commits"; "aborts" ])
         timeline;
       (match field "verification_failures" j with
        | Some (Num 0.) -> ()
        | _ -> raise (Bad "verification_failures must be 0"));
       (match field "time_to_recover_s" j with
        | Some (Num s) when s >= 0. -> ()
        | _ -> raise (Bad "time_to_recover_s missing: shard never recovered"));
       (match field "fault_trace" j with
        | Some (Arr (_ :: _)) -> ()
        | _ -> raise (Bad "fault_trace empty: no fault ever fired"));
       (match field "fault_counters" j with
        | Some fc ->
          (match field "crashes" fc with
           | Some (Num c) when c >= 1. -> ()
           | _ -> raise (Bad "fault_counters.crashes must be >= 1"))
        | None -> raise (Bad "fault_counters"));
       (* The throughput dip itself: the crash+timeout window commits
          strictly less than the same-width steady window before it. *)
       (match (field "config" j, field "crashed_shard" j) with
        | Some cfg, Some (Num _) ->
          let getf name =
            match field name cfg with
            | Some (Num v) -> v
            | _ -> raise (Bad ("config." ^ name))
          in
          let crash_at = getf "crash_at_s" and restart_at = getf "restart_at_s" in
          let in_window lo hi row =
            match field "t" row with
            | Some (Num t) -> t >= lo && t < hi
            | _ -> false
          in
          let sum lo hi =
            List.fold_left
              (fun acc row ->
                if in_window lo hi row then acc +. bucket_commits row else acc)
              0. timeline
          in
          let width = restart_at -. crash_at in
          let steady = sum (crash_at -. width) crash_at in
          let dipped = sum crash_at restart_at in
          if not (dipped < steady) then
            raise (Bad "no throughput dip across the crash window")
        | _ -> raise (Bad "config"));
       (match field "raft" j with
        | Some r ->
          (match field "commits_during_crash" r with
           | Some (Num c) when c >= 1. -> ()
           | _ ->
             raise
               (Bad "raft.commits_during_crash: group stalled with leader down"))
        | None -> raise (Bad "raft"));
       (match field "metrics" j with
        | Some (Obj _ as m) -> validate_metrics m
        | _ -> raise (Bad "metrics must be an object"));
       Ok ()
     with Bad m -> Stdlib.Error m)

let strip_wallclock text =
  (* Canonical form for determinism comparison: drop the one block allowed
     to differ between identically-seeded runs. *)
  match parse text with
  | Obj fields ->
    to_string (Obj (List.filter (fun (k, _) -> k <> "wallclock") fields))
  | j -> to_string j
  | exception Bad _ -> text

let run_and_write ~quick ~path () =
  let text = run ~quick () in
  (match validate text with
   | Ok () -> ()
   | Stdlib.Error m ->
     failwith ("recovery: generated JSON failed validation: " ^ m));
  write_file path text;
  Printf.printf "recovery: wrote %s (%d bytes)\n%!" path (String.length text)
