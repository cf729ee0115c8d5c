(** A stored pool size that nothing in the library reads.

    The library runs on one domain; there are no worker domains.  These
    two functions exist only because the repository benchmark
    ([perfbench/]) still calls them, and that directory may change only in
    a benchmark PR.  A later benchmark PR removes them together with the
    [pool.*] per-layer metrics. *)

val global_size : unit -> int
(** The last {!set_global_size}, else 1. *)

val set_global_size : int -> unit
(** Store [n] ([>= 1]; raises [Invalid_argument] otherwise).  It has no
    effect on execution. *)
