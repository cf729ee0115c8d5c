(** Stub of the removed pool profiler.

    The library runs on one domain, so there are no pool jobs to profile.
    This module exists only because the repository benchmark
    ([perfbench/]) still calls {!enable}, {!disable} and {!snapshot} and
    reads the fields below for its [pool.*] per-layer metrics; that
    directory may change only in a benchmark PR.  Every field is always 0.
    A later benchmark PR removes this module together with the [pool.*]
    metrics. *)

type wait_stats = { w_p99_s : float }

type pool_stats = {
  p_parallel_jobs : int;
  p_bypass_jobs : int;
  p_busy_s : float;
  p_idle_s : float;
  p_wait : wait_stats;
}

type snapshot = { s_pool : pool_stats }

val enable : ?clock:(unit -> float) -> unit -> unit
(** No-op; [clock] is ignored. *)

val disable : unit -> unit
(** No-op. *)

val snapshot : unit -> snapshot
(** All zeros. *)
