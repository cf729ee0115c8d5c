open Glassdb_util
module Kv = Txnkit.Kv
module Occ = Txnkit.Occ
module Committed_map = Txnkit.Committed_map

type config = {
  persist_interval : float;
  workers : int;
  batching : bool;
  sync_persist : bool;
  pattern_bits : int;
  cost : Cost.t;
  queue_capacity : int;
}

type promise = {
  pr_shard : int;
  pr_tid : Kv.txn_id;
  pr_key : Kv.key;
  pr_value : Kv.value;
  pr_block : int;
}

type t = {
  id : int;
  cfg : config;
  occ : Occ.t;
  cmap : Committed_map.t;
  mutable ledger : Ledger.t;
  wal : Storage.Wal.t;
  node_store : Storage.Node_store.t;
  worker_pool : Sim.Resource.t;
  disk : Sim.Resource.t;
  mutable is_alive : bool;
  (* Per-transaction bookkeeping between prepare and persist. *)
  signed : (Kv.txn_id, Kv.signed_txn) Hashtbl.t;
  (* FIFO of committed transactions for per-transaction blocks (no-BA). *)
  txn_blocks : (Kv.txn_id * (Kv.key * Kv.value) list) Queue.t;
  stats : (string, Stats.t) Hashtbl.t;
  mutable commits : int;
  mutable aborts : int;
  (* Trace context of the earliest commit whose writes are still
     unpersisted: the persister adopts it as the persist span's parent, so
     a client-originated trace reaches its remote persist child. *)
  mutable persist_ctx : Obs.Trace.ctx option;
  (* Observability handles (hot-path: a field update, no registry probe). *)
  labels : (string * string) list;
  m_commits : Obs.Metrics.counter;
  m_aborts : Obs.Metrics.counter;
}

(* Blocks a full drain would build right now: under batching every block
   drains one pending version per key, so the deepest key queue decides.
   The persister bounds each wake-up by this so commits arriving mid-drain
   wait for the next one. *)
let pending_blocks t =
  if t.cfg.batching then Committed_map.max_depth t.cmap
  else Queue.length t.txn_blocks

(* Callback gauges into the node's live state, scraped periodically by the
   Obs sampler.  Registration replaces any gauge a previous run's node left
   behind for the same shard. *)
let register_gauges t =
  let g name read = Obs.Metrics.gauge ~name ~labels:t.labels read in
  g "glassdb.node.wal_bytes" (fun () ->
      float_of_int (Storage.Wal.size_bytes t.wal));
  g "glassdb.node.pending_blocks" (fun () ->
      float_of_int (pending_blocks t));
  g "glassdb.node.committed_keys" (fun () ->
      float_of_int (Committed_map.pending_keys t.cmap));
  g "glassdb.node.blocks" (fun () ->
      float_of_int (Ledger.latest_block t.ledger + 1));
  g "glassdb.node.workers_in_use" (fun () ->
      float_of_int (Sim.Resource.in_use t.worker_pool));
  g "glassdb.node.workers_queued" (fun () ->
      float_of_int (Sim.Resource.queue_length t.worker_pool));
  g "glassdb.node.disk_in_use" (fun () ->
      float_of_int (Sim.Resource.in_use t.disk));
  g "glassdb.node.disk_queued" (fun () ->
      float_of_int (Sim.Resource.queue_length t.disk));
  g "glassdb.node.store_cache_hit_ratio" (fun () ->
      let h = Storage.Node_store.cache_hits t.node_store in
      let m = Storage.Node_store.cache_misses t.node_store in
      if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m))

let create cfg ~shard_id =
  let node_store = Storage.Node_store.create () in
  let labels = [ ("shard", string_of_int shard_id) ] in
  let t =
    { id = shard_id;
      cfg;
      occ = Occ.create ();
      cmap = Committed_map.create ();
      ledger =
        Ledger.create (Ledger.config ~pattern_bits:cfg.pattern_bits node_store);
      wal = Storage.Wal.create ();
      node_store;
      worker_pool = Sim.Resource.create cfg.workers;
      disk = Sim.Resource.create 1;
      is_alive = true;
      signed = Hashtbl.create 256;
      txn_blocks = Queue.create ();
      stats = Hashtbl.create 8;
      commits = 0;
      aborts = 0;
      persist_ctx = None;
      labels;
      m_commits = Obs.Metrics.counter ~name:"glassdb.node.commits" ~labels ();
      m_aborts = Obs.Metrics.counter ~name:"glassdb.node.aborts" ~labels () }
  in
  register_gauges t;
  t

let shard_id t = t.id
let alive t = t.is_alive
let workers t = t.worker_pool
let disk t = t.disk
let store t = t.node_store
let ledger_of t = t.ledger

let note_phase t phase v =
  let s =
    match Hashtbl.find_opt t.stats phase with
    | Some s -> s
    | None ->
      let s = Stats.create () in
      Hashtbl.replace t.stats phase s;
      s
  in
  Stats.add s v;
  Obs.Metrics.observe
    (Obs.Metrics.histogram ~name:"glassdb.node.phase_seconds"
       ~labels:(("phase", phase) :: t.labels) ())
    v

let phase_stats t = Det.sorted_bindings ~cmp:String.compare t.stats

let commit_count t = t.commits
let abort_count t = t.aborts
let block_count t = Ledger.latest_block t.ledger + 1

let reset_stats t =
  Hashtbl.reset t.stats;
  t.commits <- 0;
  t.aborts <- 0

(* Version visible to OCC validation: newest pending predicted block, else
   the persisted version, else -1 for absent keys. *)
let current_version t k =
  match Committed_map.latest t.cmap k with
  | Some (_, predicted, _) -> predicted
  | None ->
    (match Ledger.get t.ledger k with
     | Some (_, version, _) -> version
     | None -> -1)

let wal_commit_payload tid writes =
  Codec.to_string
    (fun buf () ->
      Codec.write_string buf tid;
      Codec.write_list buf
        (fun b (k, v) ->
          Codec.write_string b k;
          Codec.write_string b v)
        writes)
    ()

let parse_wal_commit payload =
  Codec.of_string
    (fun r ->
      let tid = Codec.read_string r in
      let writes =
        Codec.read_list r (fun r ->
            let k = Codec.read_string r in
            let v = Codec.read_string r in
            (k, v))
      in
      (tid, writes))
    payload

(* A "block" record marks its (tid, key) pairs persisted: recovery drops
   them from the replayed commits instead of re-queueing them. *)
let wal_block_payload ~block writes =
  Codec.to_string
    (fun buf () ->
      Codec.write_varint buf block;
      Codec.write_list buf
        (fun b (k, _, tid) ->
          Codec.write_string b tid;
          Codec.write_string b k)
        writes)
    ()

let parse_wal_block payload =
  Codec.of_string
    (fun r ->
      let block = Codec.read_varint r in
      let pairs =
        Codec.read_list r (fun r ->
            let tid = Codec.read_string r in
            let k = Codec.read_string r in
            (tid, k))
      in
      (block, pairs))
    payload

(* --- persistence --- *)

(* Append one block holding [layer]'s writes (at most one version per
   key) and the signed transactions behind them, then log a WAL "block"
   record naming every (tid, key) pair it persisted. *)
let append_layer t ~now layer =
  let tids =
    List.sort_uniq String.compare (List.map (fun (_, _, tid) -> tid) layer)
  in
  let txns = List.filter_map (Hashtbl.find_opt t.signed) tids in
  let writes =
    List.map
      (fun (k, v, tid) -> { Ledger.wkey = k; wvalue = v; wtid = tid })
      layer
  in
  t.ledger <- Ledger.append_block t.ledger ~time:now ~writes ~txns;
  ignore
    (Storage.Wal.append t.wal ~kind:"block"
       ~payload:
         (wal_block_payload ~block:(Ledger.latest_block t.ledger) layer))

(* Build at most one block; true when a block was appended.  The caller
   (the persister process) charges each step separately so ledger writes
   interleave with foreground traffic on the shared disk instead of
   convoying. *)
let persist_step t ~now =
  if not t.is_alive then false
  else if t.cfg.batching then begin
    match Committed_map.drain_layer t.cmap with
    | [] -> false
    | layer ->
      append_layer t ~now layer;
      true
  end
  else begin
    (* One block per committed transaction, in commit order. *)
    let rec next () =
      match Queue.take_opt t.txn_blocks with
      | None -> false
      | Some (_, writes) ->
        let layer =
          List.filter_map
            (fun (k, _) ->
              match Committed_map.pop_key t.cmap k with
              | Some (v, _, tid') -> Some (k, v, tid')
              | None -> None)
            writes
        in
        if layer = [] then next ()
        else begin
          append_layer t ~now layer;
          true
        end
    in
    next ()
  end

let persist t ~now =
  let blocks = ref 0 in
  while persist_step t ~now do
    incr blocks
  done;
  !blocks

(* Queue committed writes for the persister and return each with its
   predicted block.  Both [commit] and WAL replay go through here, so a
   replayed version lands in the block its original promise named. *)
let enqueue t tid writes =
  let persisted_block = Ledger.latest_block t.ledger in
  if t.cfg.batching then
    List.map
      (fun (k, v) ->
        let predicted = Committed_map.predict t.cmap ~persisted_block k in
        Committed_map.add t.cmap ~predicted k v tid;
        (k, v, predicted))
      writes
  else if writes = [] then []
  else begin
    (* One block per transaction: its position in the queue decides the
       block number for all of its keys.  Read-only participants must not
       enqueue — they would consume a block position without ever
       producing a block. *)
    let predicted = persisted_block + Queue.length t.txn_blocks + 1 in
    Queue.add (tid, writes) t.txn_blocks;
    List.map
      (fun (k, v) ->
        Committed_map.add t.cmap ~predicted k v tid;
        (k, v, predicted))
      writes
  end

(* --- transaction phases --- *)

let prepare t ~rw stxn =
  (* A retransmitted prepare (the first response was lost) is acknowledged,
     not re-validated or re-logged: the tid already holds its locks. *)
  if Occ.is_prepared t.occ ~tid:stxn.Kv.tid then Txnkit.Occ.Ok
  else begin
    let verdict =
      if Occ.prepared_count t.occ >= t.cfg.queue_capacity then
        Txnkit.Occ.Conflict "queue full"
      else
        Occ.prepare t.occ ~tid:stxn.Kv.tid ~current_version:(current_version t)
          rw
    in
    (match verdict with
     | Txnkit.Occ.Ok ->
       Hashtbl.replace t.signed stxn.Kv.tid stxn;
       ignore
         (Storage.Wal.append t.wal ~kind:"prepare"
            ~payload:(Codec.to_string Kv.encode_signed_txn stxn))
     | Txnkit.Occ.Conflict _ -> ());
    verdict
  end

let take_persist_ctx t =
  let c = t.persist_ctx in
  t.persist_ctx <- None;
  c

let commit t ?ctx tid =
  match Occ.commit t.occ ~tid with
  | None -> []
  | Some rw ->
    (match ctx with
     | Some c when c.Obs.Trace.trace_id <> 0 && t.persist_ctx = None ->
       t.persist_ctx <- Some c
     | _ -> ());
    t.commits <- t.commits + 1;
    Obs.Metrics.inc t.m_commits;
    ignore
      (Storage.Wal.append t.wal ~kind:"commit"
         ~payload:(wal_commit_payload tid rw.Kv.writes));
    let promises =
      List.map
        (fun (k, v, predicted) ->
          { pr_shard = t.id; pr_tid = tid; pr_key = k; pr_value = v;
            pr_block = predicted })
        (enqueue t tid rw.Kv.writes)
    in
    if t.cfg.sync_persist && rw.Kv.writes <> [] then
      ignore (persist t ~now:(Sim.now ()));
    promises

let abort t tid =
  t.aborts <- t.aborts + 1;
  Obs.Metrics.inc t.m_aborts;
  Occ.abort t.occ ~tid;
  Hashtbl.remove t.signed tid;
  ignore (Storage.Wal.append t.wal ~kind:"abort" ~payload:tid)

(* Checkpoint: committed data up to the current ledger head is durable in
   the authenticated storage, so the WAL prefix is no longer needed for
   recovery. *)
let checkpoint t =
  let horizon = Storage.Wal.last_seq t.wal + 1 in
  Storage.Wal.truncate_before t.wal horizon

let wal_size_bytes t = Storage.Wal.size_bytes t.wal
let wal_records t = List.length (Storage.Wal.records_from t.wal 0)

(* --- reads and proofs --- *)

let get t k =
  match Committed_map.latest t.cmap k with
  | Some (v, predicted, _) -> Some (v, predicted)
  | None ->
    (match Ledger.get t.ledger k with
     | Some (v, version, _) -> Some (v, version)
     | None -> None)

let get_history t k ~n = Ledger.get_history t.ledger k ~n

let digest t = Ledger.digest t.ledger

type verified_read = {
  vr_value : Kv.value option;
  vr_proof : Ledger.proof;
  vr_append : Ledger.append_proof;
  vr_digest : Ledger.digest;
}

let get_verified_latest t k ~from =
  if Ledger.latest_block t.ledger < 0 then None
  else begin
    let proof = Ledger.prove_current t.ledger k in
    let value = Option.map (fun (v, _, _) -> v) (Ledger.get t.ledger k) in
    let appendp =
      Ledger.prove_append_only t.ledger ~old_block:from.Ledger.block_no
    in
    Some
      { vr_value = value;
        vr_proof = proof;
        vr_append = appendp;
        vr_digest = Ledger.digest t.ledger }
  end

let get_verified_at t k ~block ~from =
  match Ledger.header_at t.ledger block with
  | None -> None
  | Some _ ->
    let proof = Ledger.prove_inclusion t.ledger k ~block in
    let value = Option.map (fun (v, _, _) -> v) (Ledger.get ~block t.ledger k) in
    let appendp =
      Ledger.prove_append_only t.ledger ~old_block:from.Ledger.block_no
    in
    Some
      { vr_value = value;
        vr_proof = proof;
        vr_append = appendp;
        vr_digest = Ledger.digest t.ledger }

let get_proofs t promises ~from =
  (* Deferred-verification flush: group the persisted promises by block and
     answer each group with ONE batch proof — a single header, upper-tree
     path and lower-tree multiproof per block, however many keys the client
     is resolving.  Promises for not-yet-persisted blocks are simply
     omitted; the returned digest tells the client which those are. *)
  let latest = Ledger.latest_block t.ledger in
  let by_block = Hashtbl.create 4 in
  List.iter
    (fun p ->
      if p.pr_block <= latest then
        Hashtbl.replace by_block p.pr_block
          (p.pr_key
           :: Option.value ~default:[] (Hashtbl.find_opt by_block p.pr_block)))
    promises;
  let proofs =
    Ledger.prove_inclusion_batches t.ledger
      (Det.sorted_bindings ~cmp:Int.compare by_block)
  in
  let appendp =
    Ledger.prove_append_only t.ledger ~old_block:from.Ledger.block_no
  in
  (proofs, appendp, Ledger.digest t.ledger)

let prove_append_only t ~old_block = Ledger.prove_append_only t.ledger ~old_block

(* --- audit support --- *)

type block_bundle = {
  bb_header : Ledger.header;
  bb_writes : Ledger.block_write list;
  bb_txns : Kv.signed_txn list;
}

let block_bundle t b =
  match Ledger.header_at t.ledger b with
  | None -> None
  | Some bb_header ->
    Some
      { bb_header;
        bb_writes = Ledger.writes_of_block t.ledger b;
        bb_txns = Ledger.txns_of_block t.ledger b }

(* --- failure injection --- *)

let crash t =
  t.is_alive <- false;
  (* Volatile memory is gone. *)
  Committed_map.clear t.cmap;
  Hashtbl.reset t.signed;
  Queue.clear t.txn_blocks;
  (* Prepared transactions are forgotten; their clients will time out. *)
  Txnkit.Occ.clear t.occ

let recover t =
  Obs.Trace.span ~cat:"node" ~track:(1000 + t.id) ~name:"recovery.wal_replay"
    ~attrs:[ ("shard", string_of_int t.id) ]
  @@ fun () ->
  (* Replay is driven by durable state alone (WAL + ledger) and resets
     every volatile structure first, so replaying twice is idempotent and
     a node that lost its memory mid-flight rebuilds the exact committed
     prefix the log acknowledges. *)
  Committed_map.clear t.cmap;
  Hashtbl.reset t.signed;
  Queue.clear t.txn_blocks;
  Occ.clear t.occ;
  let persisted = Hashtbl.create 64 in
  let commits = ref [] in
  let replayed = ref 0 in
  List.iter
    (fun r ->
      incr replayed;
      match r.Storage.Wal.kind with
      | "commit" ->
        (match parse_wal_commit r.Storage.Wal.payload with
         | tid, writes -> commits := (tid, writes) :: !commits
         | exception _ ->
           (* Torn mid-write: the commit was never acknowledged. *)
           ())
      | "block" ->
        (* These (tid, key) pairs already reached the ledger: recovery
           must not re-queue them, and the persister resumes exactly after
           the recorded block sequence. *)
        (match parse_wal_block r.Storage.Wal.payload with
         | _block, pairs ->
           List.iter
             (fun (tid, k) -> Hashtbl.replace persisted (tid, k) ())
             pairs
         | exception _ -> ())
      | "prepare" ->
        (* Undecided at crash time: conservatively aborted (the paper's
           recovering node asks the client; our clients have already timed
           out and aborted by the time the node reboots). *)
        ()
      | _ -> ())
    (Storage.Wal.records_from t.wal 0);
  (* Re-queue the unpersisted writes as [commit] queued them, in commit
     order: a no-BA transaction stays one queue entry, one block. *)
  List.iter
    (fun (tid, writes) ->
      ignore
        (enqueue t tid
           (List.filter
              (fun (k, _) -> not (Hashtbl.mem persisted (tid, k)))
              writes)))
    (List.rev !commits);
  Obs.Metrics.inc
    (Obs.Metrics.counter ~name:"glassdb.node.recoveries" ~labels:t.labels ());
  Obs.Metrics.inc
    ~by:(float_of_int !replayed)
    (Obs.Metrics.counter ~name:"glassdb.node.wal_replayed_records"
       ~labels:t.labels ());
  t.is_alive <- true;
  (* In sync-persist mode there is no persister process to drain the
     replayed writes; push them straight back to the ledger. *)
  if t.cfg.sync_persist && not (Committed_map.is_empty t.cmap) then
    ignore (persist t ~now:(if Sim.in_simulation () then Sim.now () else 0.))

(* --- test / introspection hooks --- *)

let committed_fingerprint t = Committed_map.fingerprint t.cmap
let write_locked t k = Occ.is_write_locked t.occ k
let wal_of t = t.wal
