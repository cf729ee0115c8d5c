(* Per-layer numbers of the traced run.

   Three sources, all read from outside the program through its public
   functions: the counters it already keeps (Work attribution, node-store
   and node statistics, the pool profiler, Gc), the simulated-clock spans
   it records (self time per span name, from the parent span ids), and
   host probes — timed direct calls into Sha256, Pos_tree and Ledger on
   the traced run's final state, with inputs shaped like that run's mean
   call. *)

open Glassdb_util
module Ledger = Glassdb.Ledger
module Node = Glassdb.Node
module Pos_tree = Postree.Pos_tree
module Wallclock = Benchkit.Wallclock
module W = Workload

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

let component (w : W.window) c =
  match List.assoc_opt c w.W.attribution with
  | Some v -> v
  | None -> Work.zero

(* --- spans --- *)

let span_names =
  [ "execute"; "prepare"; "commit"; "verified-get"; "deferred-verify";
    "get-proof"; "persist"; "audit" ]

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time per span name, in simulated seconds: each span's duration
   minus the part of it its child spans cover. *)
let self_times (events : Obs.Trace.event list) =
  let children = Hashtbl.create 4096 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.Obs.Trace.ev_dur >= 0. && e.Obs.Trace.ev_parent <> 0 then
        Hashtbl.replace children e.Obs.Trace.ev_parent
          ((e.Obs.Trace.ev_ts, e.Obs.Trace.ev_ts +. e.Obs.Trace.ev_dur)
           :: Option.value ~default:[]
                (Hashtbl.find_opt children e.Obs.Trace.ev_parent)))
    events;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.Obs.Trace.ev_dur >= 0. && e.Obs.Trace.ev_span <> 0 then begin
        let lo = e.Obs.Trace.ev_ts in
        let hi = lo +. e.Obs.Trace.ev_dur in
        let kids =
          Option.value ~default:[]
            (Hashtbl.find_opt children e.Obs.Trace.ev_span)
        in
        let self = e.Obs.Trace.ev_dur -. covered ~lo ~hi kids in
        let name = e.Obs.Trace.ev_name in
        Hashtbl.replace totals name
          (self +. Option.value ~default:0. (Hashtbl.find_opt totals name))
      end)
    events;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt totals name)

(* --- host probes --- *)

(* Median host seconds of [f], called at least [min_calls] times and until
   [budget] seconds have passed. *)
let median_time ?(min_calls = 5) ?(budget = 0.25) f =
  let samples = ref [] and spent = ref 0. and n = ref 0 in
  while !n < min_calls || !spent < budget do
    let (), s = Wallclock.wall_timed f in
    samples := s :: !samples;
    spent := !spent +. s;
    incr n
  done;
  W.percentile (W.sorted !samples) 0.5

type probes = {
  sha_ns_per_block : float;
  insert_us_per_update : float;
  hashify_us_per_block : float;
  prove_us_per_key : float;
  verify_us_per_key : float;
  write_us_per_hash : float;   (** hashify host time per hash it counts *)
  prove_us_per_fetch : float;  (** proving host time per node fetch *)
  verify_us_per_hash : float;  (** verifying host time per hash *)
}

(* Host seconds per call (median) and the work one call counts. *)
let timed_work ~budget f =
  let (), work = Work.measure f in
  (median_time ~budget f, work)

let fetches c = c.Work.page_reads + c.Work.cache_hits

(* Keys of shard 0 from the workload's own key distribution. *)
let shard0_keys g n =
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      let k = W.draw_key g in
      if Txnkit.Kv.shard_of_key ~shards:W.shards k = 0 && not (List.mem k acc)
      then go (k :: acc) (n - 1)
      else go acc n
  in
  go [] n

let probe ?(budget = 0.25) (r : W.run) =
  let median_time f = median_time ~budget f in
  let timed_work f = timed_work ~budget f in
  let w = r.W.w in
  let g = r.W.probe_gen in
  let node = Glassdb.Cluster.node r.W.deployment.W.cluster 0 in
  let store = Node.store node in
  (* SHA-256 over a chunk-sized message. *)
  let chunk =
    max 1 (Storage.Node_store.total_bytes store
           / max 1 (Storage.Node_store.node_count store))
  in
  let msg = String.make chunk 'c' in
  let blocks_per_digest = (chunk + 9 + 63) / 64 in
  let reps = 200 in
  let sha_s =
    median_time (fun () ->
        for _ = 1 to reps do
          ignore (Sha256.digest_string msg)
        done)
  in
  (* One block's worth of updates, as the run's mean block; every call
     applies the same batch to the same kind of base. *)
  let per_block = max 1 (int_of_float (Float.round (ratio_i w.W.block_writes w.W.blocks))) in
  let updates =
    List.map (fun k -> (k, W.draw_value g)) (shard0_keys g per_block)
  in
  let ledger0 = Node.ledger_of node in
  let tree =
    match Ledger.header_at ledger0 (Ledger.latest_block ledger0) with
    | Some h ->
      Option.get
        (Pos_tree.load
           (Pos_tree.config ~pattern_bits:(Glassdb.Config.default.Glassdb.Config.pattern_bits) store)
           h.Ledger.state_root)
    | None -> failwith "probe: shard 0 has no block"
  in
  let insert_s =
    median_time (fun () -> ignore (Pos_tree.insert_batch tree updates))
  in
  (* Stage + hashify, chaining blocks onto shard 0's final ledger. *)
  let writes =
    List.map (fun (k, v) -> { Ledger.wkey = k; wvalue = v; wtid = "probe" }) updates
  in
  let ledger = ref ledger0 and prev = ref ledger0 and time = ref 1e6 in
  let hashify_s, hashify_work =
    timed_work (fun () ->
        time := !time +. 1.;
        let staged = Ledger.stage !ledger ~time:!time ~writes ~txns:[] in
        prev := !ledger;
        ledger := fst (Ledger.hashify !ledger staged))
  in
  let l = !ledger in
  let latest = Ledger.latest_block l in
  let digest = Ledger.digest l and old_digest = Ledger.digest !prev in
  let appendp = Ledger.prove_append_only l ~old_block:old_digest.Ledger.block_no in
  let deferred =
    match r.W.spec.W.mix with W.Txns { deferred; _ } -> deferred | _ -> false
  in
  let (prove_s, prove_work), (verify_s, verify_work), keys =
    if deferred then begin
      (* One batch multiproof per verification, as many keys as the run's
         mean verification, all written in the proved block. *)
      let kpv =
        max 1 (int_of_float (Float.round (ratio_i w.W.verified_keys w.W.verifications)))
      in
      let keys =
        List.filteri (fun i _ -> i < kpv)
          (List.map (fun x -> x.Ledger.wkey) (Ledger.writes_of_block l latest))
      in
      let bp = Ledger.prove_inclusion_batch l keys ~block:latest in
      let prove () =
        ignore (Ledger.prove_inclusion_batch l keys ~block:latest);
        ignore (Ledger.prove_append_only l ~old_block:old_digest.Ledger.block_no)
      in
      let verify () =
        if not (Ledger.verify_inclusion_batch ~digest bp
                && Ledger.verify_append_only ~old_digest ~new_digest:digest appendp)
        then failwith "probe: batch proof failed to verify"
      in
      (timed_work prove, timed_work verify, List.length keys)
    end
    else begin
      (* A current-value proof plus the append-only proof from the
         previous block, per key. *)
      let k = List.hd (shard0_keys g 1) in
      let value = Option.map (fun (v, _, _) -> v) (Ledger.get l k) in
      let p = Ledger.prove_current l k in
      let prove () =
        ignore (Ledger.prove_current l k);
        ignore (Ledger.prove_append_only l ~old_block:old_digest.Ledger.block_no)
      in
      let verify () =
        if not (Ledger.verify_current ~digest ~key:k ~value p
                && Ledger.verify_append_only ~old_digest ~new_digest:digest appendp)
        then failwith "probe: proof failed to verify"
      in
      (timed_work prove, timed_work verify, 1)
    end
  in
  let us s = s *. 1e6 in
  { sha_ns_per_block =
      us sha_s *. 1e3 /. float_of_int (reps * blocks_per_digest);
    insert_us_per_update = us insert_s /. float_of_int per_block;
    hashify_us_per_block = us hashify_s;
    prove_us_per_key = us prove_s /. float_of_int keys;
    verify_us_per_key = us verify_s /. float_of_int keys;
    write_us_per_hash = ratio (us hashify_s) (float_of_int hashify_work.Work.hashes);
    prove_us_per_fetch = ratio (us prove_s) (float_of_int (fetches prove_work));
    verify_us_per_hash = ratio (us verify_s) (float_of_int verify_work.Work.hashes) }

(* --- the per-layer metrics --- *)

(* [traced] and [plain] are one seed and window measured with tracing on
   and off; [p] the probes taken on [traced]'s final state. *)
let metrics ~(traced : W.run) ~(plain : W.window) (p : probes) =
  let w = traced.W.w and wp = plain in
  let ops = float_of_int w.W.ops in
  let per_op x = ratio x ops and per_op_i x = ratio (float_of_int x) ops in
  let keys = w.W.verified_keys in
  let postree = component w "postree" in
  let self = self_times w.W.events in
  let phase name f =
    match List.assoc_opt name w.W.phases with
    | Some s when Stats.count s > 0 -> 1000. *. f s
    | _ -> 0.
  in
  let pool f =
    match w.W.prof with Some s -> f s.Obs.Prof.s_pool | None -> 0.
  in
  let host_us_per_op = ratio (wp.W.host_s *. 1e6) (float_of_int wp.W.ops) in
  let writes_per_block = ratio_i w.W.block_writes w.W.blocks in
  (* The probes' host cost per unit of counted work, times that work per
     op in the run: the write path per postree + ledger hash (the
     auditor's replica inserts included), proof serving per node fetch,
     client verification per hash. *)
  let modelled_us_per_op =
    (p.write_us_per_hash
     *. per_op_i (postree.Work.hashes + (component w "ledger").Work.hashes))
    +. (p.prove_us_per_fetch *. per_op_i (fetches (component w "proof")))
    +. (p.verify_us_per_hash *. per_op_i (component w "verify").Work.hashes)
  in
  [ ("host_ops_per_s", ratio (float_of_int wp.W.ops) wp.W.host_s);
    ("verify_p50_ms", 1000. *. W.percentile w.W.verify_latency 0.5);
    ("verify_p99_ms", 1000. *. W.percentile w.W.verify_latency 0.99);
    ("proof_bytes_per_key", ratio_i w.W.proof_bytes keys);
    ("bench.failed_op_share", ratio_i w.W.failed (w.W.ops + w.W.failed));
    ("sha256.digests_per_op", per_op_i w.W.work.Work.hashes);
    ("client.verify_hashes_per_key",
     ratio_i (component w "verify").Work.hashes keys);
    ("ledger.proof_page_reads_per_key",
     ratio_i (component w "proof").Work.page_reads keys);
    ("client.keys_per_verification", ratio_i keys w.W.verifications);
    ("pos_tree.hashes_per_op", per_op_i postree.Work.hashes);
    ("pos_tree.node_writes_per_op", per_op_i postree.Work.node_writes);
    ("pos_tree.page_reads_per_op", per_op_i postree.Work.page_reads);
    ("pos_tree.cache_hits_per_op", per_op_i postree.Work.cache_hits);
    ("node_store.hit_ratio",
     ratio_i w.W.cache_hits (w.W.cache_hits + w.W.cache_misses));
    ("node_store.duplicate_puts_per_block",
     ratio_i w.W.duplicate_puts w.W.blocks);
    ("wal.bytes_per_op", per_op_i w.W.wal_bytes);
    ("ledger.writes_per_block", writes_per_block);
    ("ledger.page_reads_per_op",
     per_op_i (component w "ledger").Work.page_reads);
    ("occ.abort_share", ratio_i w.W.conflicts w.W.attempts);
    ("auditor.ms_per_block",
     ratio (1000. *. w.W.audit_sim_s) (float_of_int w.W.audited_blocks));
    ("auditor.hashes_per_block",
     ratio_i (component w "audit").Work.hashes w.W.audited_blocks);
    ("pool.parallel_jobs",
     pool (fun s -> float_of_int s.Obs.Prof.p_parallel_jobs));
    ("pool.bypass_jobs", pool (fun s -> float_of_int s.Obs.Prof.p_bypass_jobs));
    ("pool.busy_s", pool (fun s -> s.Obs.Prof.p_busy_s));
    ("pool.idle_s", pool (fun s -> s.Obs.Prof.p_idle_s));
    ("pool.queue_wait_p99_us",
     pool (fun s -> 1e6 *. s.Obs.Prof.p_wait.Obs.Prof.w_p99_s));
    (* Gc counts come from the untraced run: recording spans allocates. *)
    ("gc.minor_words_per_op", ratio wp.W.minor_words (float_of_int wp.W.ops));
    ("gc.major_collections_per_op",
     ratio_i wp.W.major_collections wp.W.ops) ]
  @ List.map
      (fun name ->
        (Printf.sprintf "span.%s.self_ms_per_op" name, per_op (1000. *. self name)))
      span_names
  @ [ ("node.prepare_ms_p99", phase "prepare" (fun s -> Stats.percentile s 0.99));
      ("node.commit_ms_p99", phase "commit" (fun s -> Stats.percentile s 0.99));
      ("node.get_proof_ms_p99",
       phase "get-proof" (fun s -> Stats.percentile s 0.99));
      ("node.persist_ms_per_key", phase "persist" Stats.mean);
      ("sha256.ns_per_block", p.sha_ns_per_block);
      ("pos_tree.insert_us_per_update", p.insert_us_per_update);
      ("ledger.hashify_us_per_block", p.hashify_us_per_block);
      ("ledger.prove_us_per_key", p.prove_us_per_key);
      ("ledger.verify_us_per_key", p.verify_us_per_key);
      ("bench.modelled_host_share", ratio modelled_us_per_op host_us_per_op);
      ("bench.gen_host_share", ratio w.W.gen_s w.W.host_s);
      ("obs.trace_overhead", ratio w.W.host_s wp.W.host_s -. 1.) ]
