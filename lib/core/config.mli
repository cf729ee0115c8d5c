(** One place for every deployment knob.

    Earlier revisions scattered configuration across [Client.config],
    [Cluster.config], [Node.config] and ad-hoc [Net] arguments; this
    record consolidates them so a whole deployment — shard count, node
    behavior, network model, RPC timeout/retry policy, verification
    delay and the fault schedule — is one value built by {!make} and
    threaded through {!Cluster.create} and the bench harness. *)

type t = {
  shards : int;             (** number of shard servers *)
  workers : int;            (** per-node transaction-thread pool size *)
  persist_interval : float; (** seconds between persister wake-ups *)
  batching : bool;          (** false = one block per transaction (no-BA) *)
  sync_persist : bool;      (** true = persist inside commit (no-DV) *)
  pattern_bits : int;       (** POS-tree split-pattern bits *)
  queue_capacity : int;     (** max in-flight txns per node before aborting *)
  cost : Cost.t;            (** work → simulated-time model *)
  rtt : float;              (** network round trip, seconds *)
  bandwidth : float;        (** link bandwidth, bytes/second *)
  rpc_timeout : float;      (** per-RPC attempt deadline, seconds *)
  rpc_retries : int;        (** retries after the first attempt *)
  retry_backoff : float;    (** base backoff, doubled per retry, seconds *)
  verify_delay : float;     (** deferred-verification window (0 = immediate) *)
  faults : Faults.t;        (** fault schedule; {!Faults.none} by default *)
}

val make :
  ?shards:int ->            (* 4 *)
  ?workers:int ->           (* 8 *)
  ?persist_interval:float ->(* 0.05 s *)
  ?batching:bool ->         (* true *)
  ?sync_persist:bool ->     (* false *)
  ?pattern_bits:int ->      (* 5 *)
  ?queue_capacity:int ->    (* 4096 *)
  ?cost:Cost.t ->           (* Cost.default *)
  ?rtt:float ->             (* 200e-6 s: same-rack TCP *)
  ?bandwidth:float ->       (* 125e6 B/s: 1 Gbps *)
  ?rpc_timeout:float ->     (* 1.0 s *)
  ?rpc_retries:int ->       (* 2 *)
  ?retry_backoff:float ->   (* 0.01 s *)
  ?verify_delay:float ->    (* 0.1 s *)
  ?faults:Faults.t ->       (* Faults.none () *)
  unit -> t
(** Labelled smart constructor; defaults in the comments above.  Raises
    [Invalid_argument] on non-positive [shards]/[workers]/[rpc_timeout]
    or negative retry settings.  Whatever the settings, a block holds at
    most one version of any key, so every deferred-verification promise
    names a block that can prove it. *)

val default : t

val node : t -> Node.config
(** The per-node slice of the configuration. *)
