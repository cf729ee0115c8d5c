(** Digest values and domain-separated hashing conventions shared by every
    Merkle structure in the repository.

    Domain separation prevents cross-structure collisions: a leaf hash can
    never equal an interior-node hash, following RFC 6962. *)

type t = string
(** A 32-byte SHA-256 digest. *)

val size : int
(** Digest size in bytes (32). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val empty : t
(** Digest of the empty structure: [H("")]. *)

val of_string : string -> t
(** Hash arbitrary data (no domain tag). *)

val leaf : string -> t
(** RFC 6962-style leaf hash: [H(0x00 || data)]. *)

val interior : t -> t -> t
(** RFC 6962-style interior hash: [H(0x01 || left || right)]. *)

val combine : t list -> t
(** Hash of the concatenation of digests, tagged [0x02]; used for n-ary
    nodes (POS-tree index nodes, block headers). *)

val combine_feed : ((string -> unit) -> unit) -> t
(** [combine_feed fill] is {!combine} without building the list: [fill]
    pushes each digest (or arbitrary byte fragment) in order through the
    provided callback, and the result equals [combine] over the same
    fragments.  The feeder runs against a reusable module-level context, so
    it may call the primitive ops ({!of_string}, {!leaf}, {!kv}, ...) —
    e.g. to memoize an item hash mid-stream — but must not call
    {!combine}, {!combine_feed} or {!digest_many}. *)

val digest_many : ('a -> (string -> unit) -> unit) -> 'a array -> t array
(** Batched raw digests through one reusable context: for each
    input, the feeder pushes the full message bytes (including any domain
    tags) and the resulting array holds the plain SHA-256 of each
    message.  {!Work} charges one hash per input — identical to the
    serial per-input accounting.  The feeder restriction of
    {!combine_feed} applies. *)

val combine_many : ('a -> (string -> unit) -> unit) -> 'a array -> t array
(** Batched {!combine_feed}: element [i] of the result equals
    [combine_feed (fill inputs.(i))].  The [0x02] tag stays inside this
    module, so batch verifiers (e.g. multiproof checking) never learn the
    wire format. *)

val kv : string -> string -> t
(** Hash of one key/value binding, tagged [0x03]. *)

val short : t -> string
(** 8-hex-char prefix for logging. *)

val pp : Format.formatter -> t -> unit
