(** GlassDB auditor (Section 3.3.4).

    An auditor tracks the longest digest it has seen per shard and performs
    two checks: append-only proofs between digests (fork detection), and
    full block re-execution — it fetches each new block's writes and signed
    transactions, verifies every signature, checks that every write is
    vouched by its transaction, applies the writes to its own replica
    POS-tree, and compares the resulting root with the block header's
    state root.  Auditors gossip digests with each other and verify
    user-submitted digests against their own. *)

module Kv = Txnkit.Kv

type t

val create : Cluster.t -> id:int -> t

val id : t -> int

val register_client : t -> client:int -> pk:string -> unit
(** Init(pk, sk): the client deposits its verification key. *)

type audit_report = {
  ar_shard : int;
  ar_blocks : int;       (** blocks verified in this round *)
  ar_ok : bool;
  ar_latency : float;    (** virtual time spent *)
}

val audit_all : t -> audit_report list
(** Catch up with every shard: fetch its digest, verify the append-only
    proof, then re-execute every block between the previous position and
    the head. *)

val digest_of_shard : t -> int -> Ledger.digest

val verify_user_digest : t -> shard:int -> Ledger.digest -> bool
(** Audit(digest, block_no): check that a digest a *user* reports is on
    the auditor's view of the history (asking the server for an
    append-only proof when the user is ahead). *)

val gossip : t -> t -> bool
(** Exchange digests with a peer auditor; false when their views fork. *)

val failures : t -> int
(** Detected violations so far (signature, state-root, or fork). *)
