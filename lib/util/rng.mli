(** Deterministic pseudo-random numbers (splitmix64).

    All workload generation and simulation randomness flows through explicit
    [Rng.t] values so every experiment is reproducible from its seed. *)

type t

val create : int -> t
(** Seeded generator. *)

val split : t -> t
(** Derive an independent stream (for per-client generators). *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent streams by repeated {!split},
    in index order, so each of [n] consumers gets its own generator and
    the draw sequence does not depend on the order they run in.  Advances
    [t] by [n] draws. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int_below : t -> int -> int
(** Uniform in [0, bound); [bound] must be positive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val alphanum : t -> int -> string
(** Random alphanumeric string of the given length. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
