(** One GlassDB shard server (Figure 3): transaction manager with OCC,
    multi-version committed-data map, WAL, the two-level POS-tree ledger,
    and the verifier that answers proof requests.

    The functions here are the *server-side* handlers; simulated network
    and service-time charging are applied by {!Client} and {!Cluster}.
    Phase latencies (prepare / commit / persist / get-proof) are recorded
    per node for the cost-breakdown experiments. *)

open Glassdb_util
module Kv = Txnkit.Kv

type config = {
  persist_interval : float; (** seconds between persister wake-ups *)
  workers : int;            (** transaction-thread pool size *)
  batching : bool;          (** false = one block per transaction (no-BA) *)
  sync_persist : bool;      (** true = persist inside commit (no-DV) *)
  pattern_bits : int;
  cost : Cost.t;
  queue_capacity : int;     (** max in-flight transactions before aborting *)
}
(** Built from a deployment's [Config.t] by [Config.node]; each block
    holds at most one version of any key, so every deferred promise names
    a block that will contain exactly the promised version. *)

type t

val create : config -> shard_id:int -> t

val shard_id : t -> int
val alive : t -> bool
val workers : t -> Sim.Resource.t
val disk : t -> Sim.Resource.t
(** Capacity-1 storage device: all persisted bytes of this node serialize
    through it. *)

val store : t -> Storage.Node_store.t
(** Backing node store (for storage-consumption measurements). *)

(* --- transaction phases (server side) --- *)

type promise = {
  pr_shard : int;
  pr_tid : Kv.txn_id;
  pr_key : Kv.key;
  pr_value : Kv.value;
  pr_block : int; (** predicted block number *)
}

val prepare : t -> rw:Kv.rw_set -> Kv.signed_txn -> Txnkit.Occ.verdict
(** Validate the shard-local slice [rw] under OCC and log the full signed
    transaction (signed once by the client over all shards) to the WAL.
    Full transaction queues abort with a conflict verdict. *)

val commit : t -> ?ctx:Obs.Trace.ctx -> Kv.txn_id -> promise list
(** Apply the prepared write set to the committed-data map (or, in
    sync-persist mode, straight to the ledger); returns one promise per
    written key.  Unknown/aborted transactions return [].  [ctx] (the
    originating client span's trace context, carried over the RPC) is
    remembered — first writer since the last persist wins — and handed to
    the persister via {!take_persist_ctx} so the eventual persist span
    links back to the client trace. *)

val take_persist_ctx : t -> Obs.Trace.ctx option
(** Pop the trace context of the earliest still-unpersisted commit, if
    any; used by the persister to parent its next persist span. *)

val abort : t -> Kv.txn_id -> unit

val persist : t -> now:float -> int
(** Drain the committed-data map into ledger blocks; returns the number of
    blocks created.  Called internally when [sync_persist] is set. *)

val pending_blocks : t -> int
(** Blocks a full drain would build right now: the deepest per-key queue
    under batching, the queued transactions without it. *)


val persist_step : t -> now:float -> bool
(** Build at most one block; [false] when nothing is pending.  The
    persister process charges each step separately so ledger IO
    interleaves with foreground traffic. *)

val checkpoint : t -> unit
(** Truncate the WAL once everything it covers is persisted to the ledger;
    call only when the committed-data map has drained (the persister's
    quiescent points). *)

val wal_size_bytes : t -> int
val wal_records : t -> int

(* --- reads and proofs --- *)

val get : t -> Kv.key -> (Kv.value * Kv.version) option
(** Latest value: newest pending version if any, else the ledger's. *)

val get_history : t -> Kv.key -> n:int -> (Kv.value * int) list

val digest : t -> Ledger.digest

type verified_read = {
  vr_value : Kv.value option;
  vr_proof : Ledger.proof;
  vr_append : Ledger.append_proof; (** from the client's digest to now *)
  vr_digest : Ledger.digest;
}

val get_verified_latest : t -> Kv.key -> from:Ledger.digest -> verified_read option
(** [None] when nothing is persisted yet or the client digest is unknown. *)

val get_verified_at : t -> Kv.key -> block:int -> from:Ledger.digest -> verified_read option

val get_proofs :
  t -> promise list -> from:Ledger.digest ->
  Ledger.batch_proof list * Ledger.append_proof * Ledger.digest
(** Batched deferred verification: the persisted promises grouped by block,
    each group answered with one {!Ledger.batch_proof} (shared chunks ship
    once).  Promises for unpersisted blocks are omitted — the returned
    digest's [block_no] tells the client which to requeue. *)

val prove_append_only : t -> old_block:int -> Ledger.append_proof

(* --- audit support --- *)

type block_bundle = {
  bb_header : Ledger.header;
  bb_writes : Ledger.block_write list;
  bb_txns : Kv.signed_txn list;
}

val block_bundle : t -> int -> block_bundle option

(* --- failure injection --- *)

val crash : t -> unit
(** Volatile state (OCC table, committed map) is lost; the ledger, node
    store and WAL survive. *)

val recover : t -> unit
(** Reboot: reset volatile state and replay the WAL — committed writes not
    covered by a later "block" record are re-queued for persistence in
    commit order, with the block predictions {!commit} made for them (one
    queue entry per transaction in no-BA mode); prepared-but-undecided
    transactions are conservatively aborted; torn trailing records are
    skipped.  Replay is idempotent.  Emits a [recovery.wal_replay] span
    and bumps the [glassdb.node.recoveries] /
    [glassdb.node.wal_replayed_records] counters. *)

val committed_fingerprint : t -> Glassdb_util.Hash.t
(** Content hash of the committed-data map (see
    {!Txnkit.Committed_map.fingerprint}); the crash-replay tests compare
    rebuilt state against pre-crash state. *)

val write_locked : t -> Kv.key -> bool
(** Whether some prepared transaction holds the OCC write lock on [key]
    (test hook for the 2PC cleanup regression tests). *)

val wal_of : t -> Storage.Wal.t
(** The node's WAL (test hook: crash-replay tests truncate/tear it). *)

(* --- statistics --- *)

val phase_stats : t -> (string * Stats.t) list
(** "prepare", "commit", "persist", "get-proof" (persist and get-proof are
    recorded per key, as in Figure 4). *)

val note_phase : t -> string -> float -> unit
val commit_count : t -> int
val abort_count : t -> int
val block_count : t -> int
val reset_stats : t -> unit
val ledger_of : t -> Ledger.t
