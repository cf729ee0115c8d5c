(** The one distributed layer under GlassDB, QLDB* and LedgerDB*.

    The paper implements all three systems "on top of the same distributed
    layer ... the same 2PC implementation" so that performance differences
    come from the authenticated-storage designs alone.  This functor is
    that layer: hash partitioning, an RPC fabric with measured service-time
    charging, and a client-coordinated two-phase commit with OCC validation
    at each shard.

    Every RPC has a per-attempt timeout with bounded exponential-backoff
    retries; errors are the shared typed {!Glassdb_util.Error.t}, and
    retry/abort policy dispatches on the constructor.  Cleanup of 2PC
    prepare state is unconditional: every abort path runs a (retried)
    abort round so half-prepared shards do not leak OCC locks. *)

module Kv = Txnkit.Kv

exception Abort of Glassdb_util.Error.t
(** Raised inside a transaction body by failed reads (node down, timeout
    after retries); {!Make.Client.execute} turns it into [Error _] after
    the unconditional abort round.  One exception for every system. *)

val charged : disk:Sim.Resource.t -> (unit -> 'a) -> 'a * float
(** Run a server-side thunk and charge its measured work through
    {!Cost.default}: CPU time is slept inline, IO time while holding the
    node's capacity-1 [disk], so storage traffic from transactions,
    background persisters and proof generation contends for one device.
    Returns the value and the simulated time it took. *)

module type NODE = Dist_intf.NODE
module type S = Dist_intf.S

module Make (N : NODE) : S with type node = N.t and type receipt = N.receipt
