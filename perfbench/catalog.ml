(* Every metric the benchmark reports, by name, with its unit and the
   direction in which it improves.  BENCHMARK.json lists the same names;
   the self-test checks that the two agree. *)

type better = Higher | Lower

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* Measured with tracing off; every workload reports all of them. *)
let end_to_end =
  [ m "setup_s" "s" Lower;
    m "sim_ops_per_s" "1/s" Higher;
    m "op_mean_ms" "ms" Lower;
    m "op_p99_ms" "ms" Lower;
    m "storage_bytes_per_user_byte" "ratio" Lower;
    m "peak_heap_mb" "MB" Lower ]

(* Measured by the per-layer run.  Metrics of a layer a workload does not
   use (verification on bulk-write, the auditor outside deferred-txn)
   read 0 there.  Host throughput is here rather than end to end: on a
   shared host its spread over ten seeds reached 28%, beyond any bound a
   gate could hold it to (see perfbench/README.md). *)
let per_layer =
  [ (* host throughput of the untraced window *)
    m "host_ops_per_s" "1/s" Higher;
    (* client-side verification, simulated clock *)
    m "verify_p50_ms" "ms" Lower;
    m "verify_p99_ms" "ms" Lower;
    m "proof_bytes_per_key" "B" Lower;
    m "bench.failed_op_share" "ratio" Lower;
    (* counters the program exposes *)
    m "sha256.digests_per_op" "count" Lower;
    m "client.verify_hashes_per_key" "count" Lower;
    m "ledger.proof_page_reads_per_key" "count" Lower;
    m "client.keys_per_verification" "count" Higher;
    m "pos_tree.hashes_per_op" "count" Lower;
    m "pos_tree.node_writes_per_op" "count" Lower;
    m "pos_tree.page_reads_per_op" "count" Lower;
    m "pos_tree.cache_hits_per_op" "count" Higher;
    m "node_store.hit_ratio" "ratio" Higher;
    m "node_store.duplicate_puts_per_block" "count" Lower;
    m "wal.bytes_per_op" "B" Lower;
    m "ledger.writes_per_block" "count" Higher;
    m "ledger.page_reads_per_op" "count" Lower;
    m "occ.abort_share" "ratio" Lower;
    m "auditor.ms_per_block" "ms" Lower;
    m "auditor.hashes_per_block" "count" Lower;
    m "pool.parallel_jobs" "count" Higher;
    m "pool.bypass_jobs" "count" Lower;
    m "pool.busy_s" "s" Lower;
    m "pool.idle_s" "s" Lower;
    m "pool.queue_wait_p99_us" "us" Lower;
    m "gc.minor_words_per_op" "words" Lower;
    m "gc.major_collections_per_op" "count" Lower;
    (* simulated-clock spans, self time *)
    m "span.execute.self_ms_per_op" "ms" Lower;
    m "span.prepare.self_ms_per_op" "ms" Lower;
    m "span.commit.self_ms_per_op" "ms" Lower;
    m "span.verified-get.self_ms_per_op" "ms" Lower;
    m "span.deferred-verify.self_ms_per_op" "ms" Lower;
    m "span.get-proof.self_ms_per_op" "ms" Lower;
    m "span.persist.self_ms_per_op" "ms" Lower;
    m "span.audit.self_ms_per_op" "ms" Lower;
    m "node.prepare_ms_p99" "ms" Lower;
    m "node.commit_ms_p99" "ms" Lower;
    m "node.get_proof_ms_p99" "ms" Lower;
    m "node.persist_ms_per_key" "ms" Lower;
    (* host probes into public functions *)
    m "sha256.ns_per_block" "ns" Lower;
    m "pos_tree.insert_us_per_update" "us" Lower;
    m "ledger.hashify_us_per_block" "us" Lower;
    m "ledger.prove_us_per_key" "us" Lower;
    m "ledger.verify_us_per_key" "us" Lower;
    m "bench.modelled_host_share" "ratio" Higher;
    m "bench.gen_host_share" "ratio" Lower;
    m "obs.trace_overhead" "ratio" Lower ]

let find name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x
  | None -> invalid_arg ("Catalog.find: unknown metric " ^ name)

(* --- output --- *)

(* Shortest decimal that reads back as the same float: all the digits
   the measurement has, and valid JSON (non-finite values are refused
   upstream). *)
let number f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* The result line: exactly the keys correct / attempted / failed /
   metrics, each metric as {"value", "unit"}.  Names and units are plain
   ASCII without quotes or backslashes, so OCaml's %S quoting is JSON's. *)
let result_json ~correct ~attempted ~failed values =
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v)
      (find name).unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric values))
