(* One measurement as the command line runs it.

   The end-to-end run (tracing off) is [sub_runs] independent simulations,
   with seeds derived from the run's seed, each over an equal share of the
   window; their samples and counters are pooled.  Pooling averages over
   the seed-to-seed swings of a contended closed loop (deferred-txn has
   fast and slow seeds), and the five set-ups give setup_s as a median.

   The per-layer run is one untraced and one traced simulation of the
   whole window (their host-time ratio is the tracing overhead), then the
   host probes on the traced run's final state. *)

module W = Workload

let sub_runs = 5

type outcome = {
  ops : int;
  failed : int;
  op_latency : float array;    (** simulated seconds, sorted *)
  min_samples : int;           (** fewest latency samples of one simulation *)
  verify_samples : int;
  blocks : int;
  host_s : float;              (** host seconds of the measured windows *)
  host_rates : float list;     (** host ops per second, per simulation *)
  setup_s : float;             (** median scaled set-up seconds *)
  setups : float list;         (** scaled seconds of each set-up *)
  setup_host_s : float;        (** median host seconds of the set-ups *)
  digests : Glassdb.Ledger.digest array list;  (** per simulation *)
  problems : string list;      (** failed correctness checks *)
  metrics : (string * float) list;  (** name and value, catalog order *)
}

let sub_seed seed i = (seed * sub_runs) + i

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a))

let end_to_end spec ~seed ~window_s =
  let runs =
    List.init sub_runs (fun i ->
        (* Keep only the numbers, so each deployment is garbage before the
           next set-up starts. *)
        let r =
          W.run spec ~seed:(sub_seed seed i)
            ~window_s:(window_s /. float_of_int sub_runs) ~traced:false
        in
        (r.W.w, r.W.digests, r.W.problems, (r.W.setup_s, r.W.setup_host_s),
         r.W.peak_heap_mb))
  in
  let ws = List.map (fun (w, _, _, _, _) -> w) runs in
  let total f = List.fold_left (fun a w -> a + f w) 0 ws in
  let totalf f = List.fold_left (fun a w -> a +. f w) 0. ws in
  let op_latency =
    W.sorted (List.concat_map (fun w -> Array.to_list w.W.op_latency) ws)
  in
  let ops = total (fun w -> w.W.ops) in
  let host_s = totalf (fun w -> w.W.host_s) in
  let _, _, _, _, first_peak = List.hd runs in
  let p99 a = W.percentile a 0.99 in
  let setups = List.map (fun (_, _, _, (s, _), _) -> s) runs in
  let median l = W.percentile (W.sorted l) 0.5 in
  let setup_s = median setups in
  { ops;
    failed = total (fun w -> w.W.failed);
    op_latency;
    min_samples =
      List.fold_left (fun a w -> min a (Array.length w.W.op_latency)) max_int ws;
    verify_samples = total (fun w -> Array.length w.W.verify_latency);
    blocks = total (fun w -> w.W.blocks);
    host_s;
    host_rates =
      List.map (fun w -> float_of_int w.W.ops /. w.W.host_s) ws;
    setup_s;
    setups;
    setup_host_s = median (List.map (fun (_, _, _, (_, h), _) -> h) runs);
    digests = List.map (fun (_, d, _, _, _) -> d) runs;
    problems = List.concat_map (fun (_, _, p, _, _) -> p) runs;
    metrics =
      [ ("setup_s", setup_s);
        ("sim_ops_per_s", float_of_int ops /. totalf (fun w -> w.W.sim_s));
        ("op_mean_ms", 1000. *. mean op_latency);
        (* Each simulation's p99, averaged: steadier over seeds than the
           p99 of the pooled samples, which the heaviest tail sets. *)
        ("op_p99_ms",
         1000. *. mean (Array.of_list (List.map (fun w -> p99 w.W.op_latency) ws)));
        ("storage_bytes_per_user_byte",
         float_of_int (total (fun w -> w.W.storage_bytes))
         /. float_of_int (total (fun w -> w.W.user_bytes)));
        (* The first simulation's: it starts from a fresh heap.  Later
           ones reuse the heap the earlier ones left, and the process's top
           heap creeps with that fragmentation (±15% over seeds). *)
        ("peak_heap_mb", first_peak) ] }

let per_layer ?probe_budget spec ~seed ~window_s =
  let plain, plain_digests, plain_problems =
    let r = W.run spec ~seed ~window_s ~traced:false in
    (r.W.w, r.W.digests, r.W.problems)
  in
  let r = W.run spec ~seed ~window_s ~traced:true in
  let w = r.W.w in
  let same =
    plain.W.ops = w.W.ops
    && Array.for_all2 Glassdb.Ledger.digest_equal plain_digests r.W.digests
  in
  { ops = w.W.ops;
    failed = w.W.failed;
    op_latency = w.W.op_latency;
    min_samples = Array.length w.W.op_latency;
    verify_samples = Array.length w.W.verify_latency;
    blocks = w.W.blocks;
    host_s = w.W.host_s;
    host_rates = [ float_of_int w.W.ops /. w.W.host_s ];
    setup_s = r.W.setup_s;
    setups = [ r.W.setup_s ];
    setup_host_s = r.W.setup_host_s;
    digests = [ r.W.digests ];
    problems =
      plain_problems @ r.W.problems
      @ (if same then [] else [ "tracing changed the simulated run" ]);
    metrics =
      Layers.metrics ~traced:r ~plain (Layers.probe ?budget:probe_budget r) }

let run ?probe_budget spec ~seed ~window_s ~trace =
  let o =
    if trace then per_layer ?probe_budget spec ~seed ~window_s
    else end_to_end spec ~seed ~window_s
  in
  let bad =
    List.filter_map
      (fun (name, v) ->
        if Float.is_finite v then None else Some (name ^ " is not finite"))
      o.metrics
  in
  { o with problems = o.problems @ bad }
