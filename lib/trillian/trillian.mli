(** Trillian-style verifiable log-backed map (Sections 2.4 and 5.1).

    A single-node, key-value system: every mutation is appended to a
    transparency log (Merkle history tree); a sequencer periodically folds
    pending mutations into a sparse-Merkle-tree map and appends the new map
    root to the log.  Current-value proofs are SMT inclusion proofs against
    a logged map root — O(log m) — and append-only proofs are log
    consistency proofs.

    Trillian stores its data in a separate MySQL instance; each operation
    crosses a process boundary.  That backend cost dominates its
    performance (Figure 13's two-orders-of-magnitude gap) and is modeled
    here as an explicit per-operation backend delay. *)

open Glassdb_util
module Kv = Txnkit.Kv

type config = {
  workers : int;
  sequence_interval : float; (** map-update batching period *)
  backend_delay : float;     (** cross-process MySQL cost per operation *)
}

val default_config : config

type t

val create : config -> t

val alive : t -> bool
val workers : t -> Sim.Resource.t

val backend : t -> Sim.Resource.t
(** The out-of-process MySQL instance: capacity 1; callers hold it for
    [backend_delay] per operation. *)

val backend_delay : t -> float

val put : t -> Kv.key -> Kv.value -> int
(** Append the mutation to the log; returns its log index.  The value
    becomes readable (and provable) after the sequencer's next run. *)

val get : t -> Kv.key -> Kv.value option
(** Read from the latest sequenced map revision. *)

val sequence : t -> int
(** Fold pending mutations into the map, log the new map root; returns the
    number of mutations applied. *)

val log_size : t -> int
val map_revision : t -> int
val storage_bytes : t -> int

type digest = { d_log_size : int; d_log_root : Hash.t; d_map_root : Hash.t }

val digest : t -> digest

type read_proof = {
  rp_map : Mtree.Smt.proof;
  rp_root_incl : Mtree.Merkle_log.proof; (** map-root entry in the log *)
  rp_root_entry : string;
  rp_root_index : int;
  rp_digest : digest;
}

val read_proof_bytes : read_proof -> int

val get_verified : t -> Kv.key -> (Kv.value * read_proof) option

val verify_read : digest:digest -> key:Kv.key -> value:Kv.value -> read_proof -> bool

type absence = {
  ab_map : Mtree.Smt.absence_proof;
  ab_root_incl : Mtree.Merkle_log.proof;
  ab_root_entry : string;
  ab_root_index : int;
  ab_digest : digest;
}

val get_verified_absent : t -> Kv.key -> absence option
(** Non-inclusion proof (ECT-style revocation checks): [None] when the key
    is actually present or no map revision exists yet. *)

val verify_absent : digest:digest -> key:Kv.key -> absence -> bool

val append_only_proof : t -> old_size:int -> Mtree.Merkle_log.proof
val verify_append_only : old:digest -> new_:digest -> Mtree.Merkle_log.proof -> bool

val note_phase : t -> string -> float -> unit
val phase_stats : t -> (string * Stats.t) list
val op_count : t -> int
val reset_stats : t -> unit
