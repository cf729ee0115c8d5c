(** Module types of {!Dist}: the node a system plugs into the shared
    distributed layer, and the layer it gets back. *)

module Kv = Txnkit.Kv

module type NODE = sig
  type t

  type receipt
  (** What a shard's commit hands back to the coordinator (GlassDB's
      deferred-verification promises). *)

  val receipt_bytes : int
  (** Wire size of one receipt in the commit reply. *)

  val alive : t -> bool
  val workers : t -> Sim.Resource.t
  val disk : t -> Sim.Resource.t
  val note_phase : t -> string -> float -> unit

  val commit_lock : t -> Sim.Resource.t option
  (** When set, commit handlers serialize on this resource — QLDB*'s
      whole-tree lock during its synchronous Merkle update. *)

  val prepare : t -> rw:Kv.rw_set -> Kv.signed_txn -> Txnkit.Occ.verdict
  (** [rw] is the shard-local slice; the signed transaction covers the whole
      read/write set (signed once by the client). *)

  val commit : t -> ctx:Obs.Trace.ctx -> Kv.txn_id -> receipt list
  (** [ctx] is the coordinator's commit-round trace context. *)

  val abort : t -> Kv.txn_id -> unit
  val read : t -> Kv.key -> (Kv.value * Kv.version) option
end

module type S = sig
  type node
  type receipt
  type t

  val create :
    rpc_timeout:float -> rpc_retries:int -> retry_backoff:float ->
    ?rtt:float -> ?bandwidth:float -> ?faults:Faults.t -> node array -> t
  (** [rpc_timeout] is the per-attempt deadline, [rpc_retries] the retries
      after the first attempt, [retry_backoff] the base backoff, doubled
      per retry; [rtt], [bandwidth] and [faults] as in {!Net.create}. *)

  val node : t -> int -> node
  val nodes : t -> node array
  val shard_of_key : t -> Kv.key -> int

  val call :
    t -> ?phase:string * int -> ?ctx:Obs.Trace.ctx -> shard:int ->
    req_bytes:int -> resp_bytes:('a -> int) -> (node -> 'a) ->
    ('a, Glassdb_util.Error.t) result
  (** One RPC attempt: request transfer, queue for a worker, execute the
      handler with its measured work charged as service time, response
      transfer.  Errors are typed — [Node_down] when the shard is crashed,
      [Timeout] when the request or response was dropped — and always
      surface after the caller has slept out the full [rpc_timeout],
      exactly like a timed-out wire.  Note a [Timeout] on the response leg
      means the handler DID run.

      [phase] = (name, keys) records the server-side latency per key under
      that phase name.  [ctx] is the caller's trace context, carried in the
      message envelope: the server-side span is parented on it, and any
      fault-injected drop or delay on either leg is annotated against it as
      a [net.drop] / [net.delay] instant on the shard's track. *)

  module Client : sig
    type c
    (** One client's coordinator session. *)

    type handle
    (** In-flight transaction context. *)

    val create : t -> id:int -> sk:string -> c
    val id : c -> int

    val with_retry :
      c -> ?ctx:Obs.Trace.ctx -> label:string ->
      (unit -> ('a, Glassdb_util.Error.t) result) ->
      ('a, Glassdb_util.Error.t) result
    (** Bounded retry with exponential backoff on
        {!Glassdb_util.Error.retryable} errors; other errors surface
        immediately.  Each retry bumps {!retry_count} and the
        [glassdb.client.rpc_retries] counter and leaves an [rpc.retry]
        marker on [ctx]'s trace. *)

    val execute :
      c -> (handle -> 'a) ->
      ('a * receipt list, Glassdb_util.Error.t) result
    (** Run a transaction body; on success returns its value plus the
        receipts of every shard's commit.  The commit point runs 2PC across
        the shards touched; any abort path (body {!Dist.Abort}, conflict,
        exhausted retries) first releases prepare state on every contacted
        shard and records the abort (see {!aborts}). *)

    val get : handle -> Kv.key -> Kv.value option
    (** Read within the transaction (read-your-writes on buffered puts);
        raises {!Dist.Abort} when the read fails after retries. *)

    val put : handle -> Kv.key -> Kv.value -> unit

    val retry_count : c -> int
    (** RPC attempts beyond the first, across all operations. *)

    val aborts : c -> Kv.txn_id list
    (** Coordinator-side abort records, oldest first. *)
  end
end
