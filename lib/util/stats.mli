(** Streaming measurement accumulators for the benchmark harness:
    counts, means, and percentiles over recorded samples.

    Memory is bounded: the first 8192 samples are kept exactly; beyond
    that the sample list is spilled into a log-bucketed {!Lhist} (fixed
    bucket array) and subsequent samples go straight to it.  Count, total,
    mean, min and max are exact regardless of volume.  Percentiles are
    exact (nearest-rank) below the threshold and approximate above it,
    with relative error bounded by one histogram bucket ratio — at most
    2^(1/8) - 1, about 9.1% (see {!Lhist}). *)

type t
(** A named series of float samples. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
(** 0. when empty. *)

val min_value : t -> float
val max_value : t -> float

val is_exact : t -> bool
(** [true] while percentiles are still computed from the full sample list
    (i.e. the accumulator has not spilled to its bounded histogram). *)

val percentile : t -> float -> float
(** [percentile t 0.99] = p99 by nearest-rank on the sorted samples while
    {!is_exact}; once spilled, the estimate comes from the log-bucketed
    histogram (relative error <= ~9.1%).  0. when empty.  The fraction
    must be in [0, 1]. *)

val merge : t -> t -> t
(** New accumulator holding both sample sets.  Exact if both inputs are
    exact and the combined count stays under the spill threshold. *)

val clear : t -> unit

type table
(** Named series, created on first use (the per-phase latencies of a node). *)

val table : unit -> table
val table_add : table -> string -> float -> unit
(** [table_add tbl name x] adds [x] to the series [name]. *)

val table_bindings : table -> (string * t) list
(** Every series, sorted by name. *)

val table_reset : table -> unit
(** Drop every series. *)

type histogram
(** Fixed-bucket histogram for timeline plots (throughput per second). *)

val histogram : bucket_width:float -> histogram
val hist_add : histogram -> float -> unit
(** Record an event at the given time coordinate.  Bucketing floors, so
    negative coordinates land in negative buckets rather than collapsing
    into bucket 0. *)

val hist_buckets : histogram -> (float * int) list
(** (bucket start, event count), sorted, gaps included as zero. *)
