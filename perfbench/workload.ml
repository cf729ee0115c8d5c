(* The three benchmark workloads and the closed-loop run that drives them.

   Each run builds a 4-shard GlassDB cluster inside [Sim.run], loads the
   records, and lets 8 client fibers issue operations back to back — a
   client sends its next operation only when the previous one returned
   (closed loop).  The measured window is a fixed span of simulated time,
   so every simulated-clock number is a pure function of the seed; the
   host clock times the same window.  Inputs come from generators built
   once per run from the seed. *)

open Glassdb_util
module Kv = Txnkit.Kv
module Cluster = Glassdb.Cluster
module Client = Glassdb.Client
module Auditor = Glassdb.Auditor
module Node = Glassdb.Node
module Ledger = Glassdb.Ledger
module Wallclock = Benchkit.Wallclock

type mix =
  | Verified_ops of { put_pct : int }
      (** VerifiedPut with this percentage, VerifiedGetLatest otherwise *)
  | Txns of { puts : int; gets : int; deferred : bool }
      (** YCSB transactions; [deferred] queues every write's promise *)

type spec = {
  name : string;
  records : int;
  theta : float;            (** 0. = uniform keys *)
  mix : mix;
  audit : bool;             (** one auditor runs [audit_all] periodically *)
  warmup_s : float;         (** simulated seconds before measuring *)
  sim_s_per_host_s : float;
      (** simulated seconds measured per requested host second.  The
          windows take about [--seconds] on a 2-core host, deferred-txn's
          about twice that, so that each of its simulations has 1000
          latency samples (10 beyond the p99) at [--seconds 10]. *)
}

let shards = 4
let clients = 8
let value_size = 64
let persist_interval = 0.05
let verify_delay = 0.1
let audit_interval = 0.1
let load_batch = 500
let max_attempts = 16
let check_every = 8

(* Why each workload is in the benchmark: perfbench/README.md and the
   workloads of BENCHMARK.json. *)
let verified_read =
  { name = "verified-read";
    records = 20_000;
    theta = 0.9;
    mix = Verified_ops { put_pct = 10 };
    audit = false;
    warmup_s = 0.1;
    sim_s_per_host_s = 0.065 }

let bulk_write =
  { name = "bulk-write";
    records = 100_000;
    theta = 0.;
    mix = Txns { puts = 8; gets = 2; deferred = false };
    audit = false;
    warmup_s = 0.1;
    sim_s_per_host_s = 0.12 }

let deferred_txn =
  { name = "deferred-txn";
    records = 20_000;
    theta = 0.5;
    mix = Txns { puts = 5; gets = 5; deferred = true };
    audit = true;
    warmup_s = 0.1;
    sim_s_per_host_s = 0.22 }

let all = [ verified_read; bulk_write; deferred_txn ]

let find name = List.find_opt (fun s -> s.name = name) all

(* --- input generation --- *)

type gen = { rng : Rng.t; zipf : Zipf.t option; n_records : int }

let draw_key g =
  Benchkit.Ycsb.key_of
    (match g.zipf with
     | None -> Rng.int_below g.rng g.n_records
     | Some z -> Zipf.scrambled g.rng z)

let draw_value g = Rng.alphanum g.rng value_size

type op =
  | Verified_put of Kv.key * Kv.value
  | Verified_get of Kv.key
  | Txn of (Kv.key * Kv.value) list * Kv.key list

(* [n] distinct keys (within a bounded number of redraws, as YCSB does),
   so a transaction never writes one key twice. *)
let distinct_keys g n =
  let rec go acc n tries =
    if n = 0 then List.rev acc
    else
      let k = draw_key g in
      if List.mem k acc && tries < 32 then go acc n (tries + 1)
      else go (k :: acc) (n - 1) 0
  in
  go [] n 0

let next_op spec g =
  match spec.mix with
  | Verified_ops { put_pct } ->
    if Rng.int_below g.rng 100 < put_pct then
      let k = draw_key g in
      Verified_put (k, draw_value g)
    else Verified_get (draw_key g)
  | Txns { puts; gets; _ } ->
    let keys = distinct_keys g (puts + gets) in
    let w = List.filteri (fun i _ -> i < puts) keys in
    let r = List.filteri (fun i _ -> i >= puts) keys in
    Txn (List.map (fun k -> (k, draw_value g)) w, r)

(* One generator per client plus one for loading, split from the seed. *)
let generators spec ~seed =
  let master = Rng.create seed in
  let zipf =
    if spec.theta = 0. then None
    else Some (Zipf.create ~n:spec.records ~theta:spec.theta)
  in
  let mk rng = { rng; zipf; n_records = spec.records } in
  let load = mk (Rng.split master) in
  (load, Array.map mk (Rng.split_n master clients))

(* --- set-up --- *)

type deployment = {
  cluster : Cluster.t;
  clients : Client.t array;
  auditor : Auditor.t option;
}

let config () =
  Glassdb.Config.make ~shards ~persist_interval ~verify_delay ()

(* Build the cluster and load the records through ordinary transactions
   of [load_batch] keys, persist them, start the persisters and (with an
   auditor) let it catch up with the loaded blocks.  Runs inside
   [Sim.run]. *)
let setup spec ~load_gen =
  Obs.Metrics.reset ();
  let cluster = Cluster.create (config ()) in
  let loader = Client.create cluster ~id:0 ~sk:"sk-0" in
  let lo = ref 0 in
  while !lo < spec.records do
    let hi = min spec.records (!lo + load_batch) in
    (match
       Client.execute loader (fun h ->
           for k = !lo to hi - 1 do
             Client.put h (Benchkit.Ycsb.key_of k) (draw_value load_gen)
           done)
     with
     | Ok _ -> ()
     | Error e -> failwith ("load failed: " ^ Error.to_string e));
    lo := hi
  done;
  ignore (Cluster.persist_all cluster ~now:(Sim.now ()));
  Cluster.start cluster;
  let clients =
    Array.init clients (fun i ->
        Client.create cluster ~id:(i + 1) ~sk:(Printf.sprintf "sk-%d" (i + 1)))
  in
  let auditor =
    if not spec.audit then None
    else begin
      let a = Auditor.create cluster ~id:0 in
      Auditor.register_client a ~client:0 ~pk:(Client.public_key loader);
      Array.iter
        (fun c ->
          Auditor.register_client a ~client:(Client.id c)
            ~pk:(Client.public_key c))
        clients;
      if not (List.for_all (fun r -> r.Auditor.ar_ok) (Auditor.audit_all a))
      then failwith "auditor rejected the loaded blocks";
      Some a
    end
  in
  { cluster; clients; auditor }

(* --- the measured run --- *)

type window = {
  ops : int;                 (** committed ops completing in the window *)
  failed : int;              (** ops that still failed after retries *)
  attempts : int;            (** execute attempts of those ops *)
  conflicts : int;           (** attempts aborted by OCC *)
  op_latency : float array;  (** simulated seconds, sorted *)
  verify_latency : float array;
  verifications : int;
  verified_keys : int;
  proof_bytes : int;
  user_bytes : int;          (** key + value bytes of committed writes *)
  storage_bytes : int;       (** node-store + WAL bytes added *)
  wal_bytes : int;
  sim_s : float;             (** length of the measured window *)
  host_s : float;            (** host seconds simulating it, final flush included *)
  gen_s : float;             (** host seconds in the input generator (traced) *)
  blocks : int;
  block_writes : int;
  duplicate_puts : int;
  cache_hits : int;
  cache_misses : int;
  audited_blocks : int;
  audit_sim_s : float;
  minor_words : float;
  major_collections : int;
  work : Work.counters;      (** all work counted on the simulating domain *)
  attribution : (string * Work.counters) list;
  prof : Obs.Prof.snapshot option;
  events : Obs.Trace.event list;
  trace_dropped : int;
  phases : (string * Stats.t) list;
}

type run = {
  spec : spec;
  setup_s : float;           (** set-up host seconds, scaled by {!Refclock} *)
  setup_host_s : float;      (** set-up host seconds as measured *)
  w : window;
  digests : Ledger.digest array;
  peak_heap_mb : float;      (** the process's top heap at the run's end *)
  problems : string list;    (** failed correctness checks *)
  deployment : deployment;   (** final state, for the host probes *)
  probe_gen : gen;
}

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let nodes d = Array.to_list (Cluster.nodes d.cluster)
let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let storage_bytes d =
  Cluster.total_storage_bytes d.cluster + sum Node.wal_size_bytes (nodes d)
let wal_bytes d = sum Node.wal_size_bytes (nodes d)
let store_stat f d = sum (fun nd -> f (Node.store nd)) (nodes d)

let written_in_blocks d ~from_blocks =
  List.fold_left2
    (fun acc nd b0 ->
      let ledger = Node.ledger_of nd in
      let acc = ref acc in
      for b = b0 to Ledger.latest_block ledger do
        match Ledger.header_at ledger b with
        | Some h -> acc := !acc + h.Ledger.n_writes
        | None -> ()
      done;
      !acc)
    0 (nodes d) from_blocks

(* The counters a window is measured by, read at its start and end. *)
type counters = {
  c_host : float;
  c_storage : int;
  c_wal : int;
  c_blocks : int list;  (** per node *)
  c_duplicate_puts : int;
  c_cache_hits : int;
  c_cache_misses : int;
  c_minor_words : float;
  c_major_collections : int;
  c_work : Work.counters;
  c_attribution : (string * Work.counters) list;
}

let read_counters d =
  { c_host = Wallclock.now_s ();
    c_storage = storage_bytes d;
    c_wal = wal_bytes d;
    c_blocks = List.map Node.block_count (nodes d);
    c_duplicate_puts = store_stat Storage.Node_store.duplicate_puts d;
    c_cache_hits = store_stat Storage.Node_store.cache_hits d;
    c_cache_misses = store_stat Storage.Node_store.cache_misses d;
    c_minor_words = Gc.minor_words ();
    c_major_collections = (Gc.quick_stat ()).Gc.major_collections;
    c_work = Work.snapshot ();
    c_attribution = Work.attribution () }

let attribution_delta before after =
  List.map
    (fun (c, v) ->
      match List.assoc_opt c before with
      | Some b -> (c, Work.sub v b)
      | None -> (c, v))
    after

(* Per-phase latency samples of every node, merged by phase name. *)
let merge_phases per_node =
  List.fold_left
    (fun acc stats ->
      List.fold_left
        (fun acc (phase, st) ->
          match List.assoc_opt phase acc with
          | Some prev -> (phase, Stats.merge prev st) :: List.remove_assoc phase acc
          | None -> (phase, st) :: acc)
        acc stats)
    [] per_node

let trace_capacity = 4_000_000

(* Run [spec] for a measured window of [window_s] simulated seconds.
   [traced] turns on span recording, work attribution, the pool profiler
   and generator timing for the window — the per-layer run. *)
let run spec ~seed ~window_s ~traced =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let result = ref None and dep = ref None and setup_host_s = ref 0. in
  let ref_s = ref 0. and pool = Pool.global_size () in
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  Work.set_attribution traced;
  (* Start from a collected heap, so an earlier run's garbage is not
     charged to this run's set-up and window. *)
  Gc.compact ();
  let ref_before = Refclock.time () in
  Sim.run (fun () ->
      let load_gen, gens = generators spec ~seed in
      (* Set-up runs on one domain.  With a second one, every minor
         collection waits for both domains, and on a shared host that wait
         swings with how promptly the host runs the other core: identical
         set-ups took 0.4 s or 0.8 s for minutes at a time.  The window
         runs at the configured pool size. *)
      Pool.set_global_size 1;
      let d, s = Wallclock.wall_timed (fun () -> setup spec ~load_gen) in
      Pool.set_global_size pool;
      setup_host_s := s;
      ref_s := (ref_before +. Refclock.time ()) /. 2.;
      let measure_from = Sim.now () +. spec.warmup_s in
      let stop_at = measure_from +. window_s in
      let in_window t = t >= measure_from in
      (* accumulators *)
      let ops = ref 0 and failed = ref 0 and attempts = ref 0
      and conflicts = ref 0 and user_bytes = ref 0 and gen_s = ref 0. in
      let op_lat = ref [] and v_lat = ref [] in
      let verifications = ref 0 and verified_keys = ref 0
      and proof_bytes = ref 0 in
      let audited = ref 0 and audit_sim = ref 0. in
      let check_promises = ref [] and unverified_txns = ref 0 in
      let note_verification (v : Client.verification) =
        if not v.Client.v_ok then problem "a proof check failed";
        if in_window (Sim.now ()) then begin
          incr verifications;
          verified_keys := !verified_keys + v.Client.v_keys;
          proof_bytes := !proof_bytes + v.Client.v_proof_bytes;
          v_lat := v.Client.v_latency :: !v_lat
        end
      in
      let note_audit reports =
        List.iter
          (fun r ->
            if not r.Auditor.ar_ok then
              problem "auditor rejected shard %d" r.Auditor.ar_shard;
            if in_window (Sim.now ()) then begin
              audited := !audited + r.Auditor.ar_blocks;
              audit_sim := !audit_sim +. r.Auditor.ar_latency
            end)
          reports
      in
      let deferred =
        match spec.mix with Txns { deferred; _ } -> deferred | _ -> false
      in
      (* One logical operation, retried on OCC conflicts as an application
         would; returns the user bytes written and the attempts used. *)
      let perform c op =
        let tries = ref 0 in
        let rec retry exec =
          incr tries;
          match exec () with
          | Error (Error.Txn_conflict _) when !tries < max_attempts ->
            retry exec
          | r -> r
        in
        let outcome =
          match op with
          | Verified_put (k, v) ->
            retry (fun () -> Client.verified_put c k v)
            |> Result.map (fun _ -> String.length k + String.length v)
          | Verified_get k ->
            retry (fun () -> Client.verified_get_latest c k)
            |> Result.map (fun (value, v) ->
                   if value = None then problem "verified read of %s found nothing" k;
                   note_verification v;
                   0)
          | Txn (writes, reads) ->
            retry (fun () ->
                match
                  Client.execute c (fun h ->
                      List.iter (fun (k, v) -> Client.put h k v) writes;
                      List.iter (fun k -> ignore (Client.get h k)) reads)
                with
                | r -> r
                | exception Client.Abort e -> Error e)
            |> Result.map (fun ((), promises) ->
                   if deferred then Client.queue_promises c promises
                   else begin
                     (* Without client verification the run checks a
                        deterministic sample of the writes afterwards. *)
                     incr unverified_txns;
                     if !unverified_txns mod check_every = 0 then
                       check_promises := promises :: !check_promises
                   end;
                   List.fold_left
                     (fun a (k, v) -> a + String.length k + String.length v)
                     0 writes)
        in
        (outcome, !tries)
      in
      let done_ivars =
        Array.mapi
          (fun i c ->
            let fin = Sim.Ivar.create () in
            let g = gens.(i) in
            Sim.spawn (fun () ->
                while Sim.now () < stop_at do
                  let op =
                    if traced then begin
                      let op, s = Wallclock.wall_timed (fun () -> next_op spec g) in
                      (* Only the measured window, which host_s covers. *)
                      if in_window (Sim.now ()) then gen_s := !gen_s +. s;
                      op
                    end
                    else next_op spec g
                  in
                  let t0 = Sim.now () in
                  let outcome, tries = perform c op in
                  let t1 = Sim.now () in
                  if in_window t1 then begin
                    (match outcome with
                     | Ok bytes -> user_bytes := !user_bytes + bytes
                     | Error _ -> ());
                    if t1 < stop_at then begin
                      attempts := !attempts + tries;
                      (match outcome with
                       | Ok _ ->
                         incr ops;
                         conflicts := !conflicts + tries - 1;
                         op_lat := (t1 -. t0) :: !op_lat
                       | Error _ ->
                         incr failed;
                         conflicts := !conflicts + tries)
                    end
                  end;
                  List.iter note_verification
                    (Client.flush_verifications c ~force:false ());
                  if Float.equal t1 t0 then Sim.sleep 1e-6
                done;
                Sim.Ivar.fill fin ());
            fin)
          d.clients
      in
      let auditor_done = Sim.Ivar.create () in
      (match d.auditor with
       | None -> Sim.Ivar.fill auditor_done ()
       | Some a ->
         Sim.spawn (fun () ->
             while Sim.now () < stop_at do
               Sim.sleep audit_interval;
               note_audit (Auditor.audit_all a)
             done;
             Sim.Ivar.fill auditor_done ()));
      (* Window start: snapshot every counter the window is measured by. *)
      let start = ref None in
      Sim.spawn (fun () ->
          Sim.sleep (measure_from -. Sim.now ());
          Cluster.reset_stats d.cluster;
          if traced then begin
            Obs.Trace.enable ~capacity:trace_capacity ();
            Obs.Prof.enable ~clock:Wallclock.now_s ()
          end;
          start := Some (read_counters d));
      (* Window end: wait for the clients, let the persisters drain every
         committed write, verify every outstanding promise, audit to the
         head, then read the counters. *)
      Sim.spawn (fun () ->
          Sim.sleep (stop_at -. Sim.now ());
          Array.iter Sim.Ivar.read done_ivars;
          Sim.Ivar.read auditor_done;
          let rec drain n =
            if List.exists (fun nd -> Node.pending_blocks nd > 0) (nodes d)
            then
              if n = 0 then problem "committed writes never persisted"
              else begin
                Sim.sleep persist_interval;
                drain (n - 1)
              end
          in
          drain 1000;
          Array.iter
            (fun c ->
              let rec flush n =
                List.iter note_verification
                  (Client.flush_verifications c ~force:true ());
                if Client.pending_verifications c > 0 then
                  if n = 0 then problem "client %d: promises left unverified" (Client.id c)
                  else begin
                    Sim.sleep persist_interval;
                    flush (n - 1)
                  end
              in
              flush 100)
            d.clients;
          Option.iter (fun a -> note_audit (Auditor.audit_all a)) d.auditor;
          let c1 = read_counters d in
          let prof =
            if traced then begin
              let s = Obs.Prof.snapshot () in
              Obs.Prof.disable ();
              Some s
            end
            else None
          in
          let events = if traced then Obs.Trace.events () else [] in
          let trace_dropped = Obs.Trace.dropped () in
          Obs.Trace.disable ();
          (match !start with
           | None -> problem "the window never started"
           | Some c0 ->
             result :=
               Some
                 { ops = !ops;
                   failed = !failed;
                   attempts = !attempts;
                   conflicts = !conflicts;
                   op_latency = sorted !op_lat;
                   verify_latency = sorted !v_lat;
                   verifications = !verifications;
                   verified_keys = !verified_keys;
                   proof_bytes = !proof_bytes;
                   user_bytes = !user_bytes;
                   storage_bytes = c1.c_storage - c0.c_storage;
                   wal_bytes = c1.c_wal - c0.c_wal;
                   sim_s = window_s;
                   host_s = c1.c_host -. c0.c_host;
                   gen_s = !gen_s;
                   blocks = sum Fun.id c1.c_blocks - sum Fun.id c0.c_blocks;
                   block_writes = written_in_blocks d ~from_blocks:c0.c_blocks;
                   duplicate_puts = c1.c_duplicate_puts - c0.c_duplicate_puts;
                   cache_hits = c1.c_cache_hits - c0.c_cache_hits;
                   cache_misses = c1.c_cache_misses - c0.c_cache_misses;
                   audited_blocks = !audited;
                   audit_sim_s = !audit_sim;
                   minor_words = c1.c_minor_words -. c0.c_minor_words;
                   major_collections =
                     c1.c_major_collections - c0.c_major_collections;
                   work = Work.sub c1.c_work c0.c_work;
                   attribution =
                     attribution_delta c0.c_attribution c1.c_attribution;
                   prof;
                   events;
                   trace_dropped;
                   phases = merge_phases (List.map Node.phase_stats (nodes d)) });
          (* Outside the measured host time: a workload without client
             verification has a sample of its writes' promises checked. *)
          if !check_promises <> [] then begin
            let checker =
              Client.create d.cluster ~id:(clients + 1) ~sk:"sk-check"
            in
            Client.queue_promises checker (List.concat !check_promises);
            let rec flush n =
              List.iter
                (fun (v : Client.verification) ->
                  if not v.Client.v_ok then
                    problem "a write's promise failed to verify")
                (Client.flush_verifications checker ~force:true ());
              if Client.pending_verifications checker > 0 then
                if n = 0 then problem "write promises left unverified"
                else begin
                  Sim.sleep persist_interval;
                  flush (n - 1)
                end
            in
            flush 100
          end;
          Cluster.stop d.cluster;
          Sim.stop ());
      dep := Some (d, gens.(0)));
  match (!result, !dep) with
  | Some w, Some (d, probe_gen) ->
    Array.iter
      (fun c ->
        if Client.verification_failures c > 0 then
          problem "client %d: %d failed proof checks" (Client.id c)
            (Client.verification_failures c))
      d.clients;
    let digests = Array.map Node.digest (Cluster.nodes d.cluster) in
    Option.iter
      (fun a ->
        if Auditor.failures a > 0 then
          problem "auditor: %d violations" (Auditor.failures a);
        Array.iteri
          (fun s dg ->
            if not (Ledger.digest_equal dg (Auditor.digest_of_shard a s)) then
              problem "auditor did not reach the head of shard %d" s)
          digests)
      d.auditor;
    if w.trace_dropped > 0 then
      problem "trace dropped %d events" w.trace_dropped;
    let heap = (Gc.quick_stat ()).Gc.top_heap_words in
    { spec;
      setup_s = !setup_host_s *. Refclock.nominal_s /. !ref_s;
      setup_host_s = !setup_host_s;
      w;
      digests;
      peak_heap_mb = float_of_int (heap * (Sys.word_size / 8)) /. 1e6;
      problems = List.rev !problems;
      deployment = d;
      probe_gen }
  | _ -> failwith (spec.name ^ ": the simulation ended without a result")
