(** A simulated GlassDB deployment: [shards] nodes behind a shared network
    model, with one persister process per node (Figure 3's persisting
    thread).  All client/auditor traffic flows through {!call}, which
    charges transfer latency and node service time measured from real work
    counters, and consults the deployment's {!Faults} schedule (drops,
    delays, partitions, crashes). *)

module Kv = Txnkit.Kv

type t

val create : Config.t -> t
(** Build the deployment described by the configuration (see
    {!Config.make} for the knobs and their defaults). *)

val start : t -> unit
(** Spawn the persister processes and arm the fault schedule; must run
    inside [Sim.run].  Note a fault scheduled past the end of the
    workload keeps the simulation alive until it fires. *)

val stop : t -> unit
(** Stop the persisters (lets the simulation drain). *)

val config_of : t -> Config.t
val faults_of : t -> Faults.t
val shards : t -> int
val node : t -> int -> Node.t
val nodes : t -> Node.t array
val shard_of_key : t -> Kv.key -> int

val call :
  t -> ?timeout:float -> ?phase:string * int -> ?ctx:Obs.Trace.ctx ->
  shard:int ->
  req_bytes:int -> resp_bytes:('a -> int) -> (Node.t -> 'a) ->
  ('a, Glassdb_util.Error.t) result
(** One RPC: request transfer, queue for a worker, execute the handler with
    its measured work charged as service time, response transfer.  Errors
    are typed — [Node_down] when the shard is crashed, [Timeout] when the
    request or response was dropped — and always surface after the caller
    has slept out the full [rpc_timeout] ([?timeout] overrides the
    configured one per call), exactly like a timed-out wire.
    Note a [Timeout] on the response leg means the handler DID run.

    [ctx] is the caller's trace context, carried in the message envelope:
    the server-side span is parented on it (so remote prepare/commit spans
    nest under the originating client span in the Chrome trace), and any
    fault-injected drop or delay on either leg is annotated against it as
    a [net.drop] / [net.delay] instant on the shard's track. *)

val persist_all : t -> now:float -> int
(** Drain every live shard's committed backlog into its ledger at
    timestamp [now], outside the simulator (bench harnesses, end-of-run
    flushes), in shard order.  Returns the total number of blocks
    appended. *)

val crash_node : t -> int -> unit
(** Take the shard down (volatile state lost); emits a [fault.crash]
    marker and bumps [glassdb.fault.crashes]. *)

val recover_node : t -> int -> unit
(** Restart the shard: WAL replay, see {!Node.recover}. *)

val total_storage_bytes : t -> int
val total_blocks : t -> int
val total_commits : t -> int
val total_aborts : t -> int
val reset_stats : t -> unit
