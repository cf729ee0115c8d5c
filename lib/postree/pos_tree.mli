(** Pattern-Oriented Split tree: an immutable, Merkle-ised search tree whose
    nodes are formed by content-defined chunking (Section 3.3.1).

    Leaves hold sorted key/value items; each upper level indexes the chunks
    of the level below by (first key, chunk hash) until a single root chunk
    remains.  The root hash is therefore a digest of the whole map, lookups
    are O(log m), and — because chunk boundaries depend only on content —
    the tree is *structurally invariant*: any insertion order yields the
    same tree, and snapshots sharing content share nodes byte-for-byte in
    the backing {!Storage.Node_store}.

    Updates are batched and incremental: only the chunks containing touched
    keys (plus chunks absorbed by boundary shifts) are rebuilt, costing
    O(batch * log m) rather than O(m). *)

open Glassdb_util

type config = {
  store : Storage.Node_store.t;  (** chunks are persisted here (deduplicated) *)
  pattern_bits : int;            (** expected chunk size = [2^pattern_bits] *)
}

val config : ?pattern_bits:int -> Storage.Node_store.t -> config
(** Default [pattern_bits] = 5 (expected 32 items per chunk). *)

type t
(** An immutable snapshot. *)

val empty : config -> t
val is_empty : t -> bool
val cardinal : t -> int
val height : t -> int
(** Number of levels; 0 for the empty tree. *)

val root_hash : t -> Hash.t
(** [Hash.empty] for the empty tree. *)

val get : t -> string -> string option

val insert_batch : t -> (string * string) list -> t
(** Upsert a batch (later bindings win on duplicate keys); returns the new
    snapshot.  The old snapshot remains valid. *)

val bindings : t -> (string * string) list
(** All bindings in key order. *)

(* --- proofs --- *)

type proof
(** The chunks of one proof walk, serialized, in visit order (root first).
    Point, batch and range proofs are all the same depth-first walk: at
    each index chunk it visits, in key order, the children the query
    routes to (a key's search path, or every child whose key span meets a
    range).  A chunk shared by several keys' paths is visited, and so
    shipped and hashed, once.

    Verification replays the same walk over the shipped list: each chunk
    must hash to the digest its parent routes to, and the walk must
    consume the list exactly, so a missing, extra, duplicated or
    reordered chunk is rejected.  The empty tree proves every query with
    the empty list. *)

val proof_codec : proof Codec.codec
(** Wire codec; the three functions below are its fields.  [size_bytes]
    charges each chunk plus a fixed 4-byte frame (the modelled RPC
    framing), not the exact varint encoding. *)

val proof_size_bytes : proof -> int
val encode_proof : Buffer.t -> proof -> unit
val decode_proof : Codec.reader -> proof

val prove : t -> string -> proof
(** Proof of the key's presence-with-value or absence. *)

val verify : root:Hash.t -> key:string -> value:string option -> proof -> bool
(** Check a proof against a trusted root digest: [Some v] asserts the
    binding, [None] asserts absence. *)

val prove_batch : t -> string list -> proof * (string * string option) list
(** One walk for the whole key set (deduplicated, sorted internally).
    Also returns the certified binding of every requested key, in key
    order, saving the caller a second walk.  [prove_batch t [k]] is
    [prove t k]. *)

val verify_batch :
  root:Hash.t -> items:(string * string option) list -> proof -> bool
(** Check every (key, value-or-absence) claim against a trusted root;
    [verify_batch ~items:[(k, v)]] is [verify ~key:k ~value:v].  An empty
    claim list accepts only the empty proof. *)

val load : config -> Hash.t -> t option
(** Reconstruct the snapshot rooted at the given hash from the backing
    store (top-down; fetches are charged as page reads / cache hits).
    [None] when any chunk is missing or malformed.  This is how an evicted
    historical snapshot is rebuilt on demand. *)

val stats_nodes : t -> int
(** Total number of chunks across levels (for size accounting). *)

(* --- verifiable range queries --- *)

val bindings_range : t -> lo:string -> hi:string -> (string * string) list
(** Bindings with [lo <= key < hi], ascending. *)

val prove_range : t -> lo:string -> hi:string -> proof
(** The walk into every child whose key span meets [lo, hi); the empty
    proof for an empty range or tree. *)

val extract_range :
  root:Hash.t -> lo:string -> hi:string -> proof ->
  (string * string) list option
(** The bindings a valid range proof certifies for [lo, hi), ascending.
    Because the replay enters every intersecting child, a server can
    neither omit rows (completeness) nor inject them (soundness).  [None]
    when the proof is malformed, incomplete, padded or inconsistent with
    [root]. *)
