(** Deterministic serialization of the trace buffer and metric registry.

    Trace output is Chrome trace-event JSON (an object with a
    ["traceEvents"] array), loadable in Perfetto / chrome://tracing:
    completed spans become ["ph":"X"] complete events with microsecond
    virtual-time timestamps, and every sampled gauge series is appended as
    ["ph":"C"] counter events so queue depths and WAL growth render as
    counter tracks next to the spans.

    Field order, number formatting and metric ordering are all canonical:
    two identical simulated runs serialize byte-identically. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val to_string : json -> string

val trace_json : unit -> string
(** Chrome trace-event JSON for the current {!Trace} buffer + gauge
    counter events.  Includes a top-level ["dropped_events"] count. *)

val metrics_fields : unit -> (string * json) list
(** The metrics snapshot as JSON fields — schema tag, ["counters"],
    ["gauges"], ["histograms"] (count/sum/min/max/p50/p99/buckets) and
    ["attribution"] (per-component {!Glassdb_util.Work} deltas) — for
    embedding into a larger report (the BENCH json). *)

val metrics_json : unit -> string
(** [to_string (Obj (metrics_fields ()))]. *)

val write_trace : path:string -> unit
val write_metrics : path:string -> unit
