(** Work counters, accumulated process-wide.

    Every hash computation, authenticated-structure node write and backend
    page access in the repository increments these counters.  The benchmark
    harness snapshots them around an operation and charges simulated service
    time proportional to the *measured* work, so relative system performance
    in the simulation is driven by real algorithmic differences rather than
    hard-coded constants. *)

type counters = {
  hashes : int;        (** SHA-256 compression-level invocations *)
  node_writes : int;   (** authenticated-structure nodes persisted *)
  bytes_written : int; (** bytes of those nodes *)
  page_reads : int;    (** backend page / node fetches *)
  cache_hits : int;    (** node fetches served from a decoded-chunk cache *)
}

val zero : counters
val add : counters -> counters -> counters
val sub : counters -> counters -> counters
(** [sub later earlier] — componentwise difference. *)

val note_hash : ?n:int -> unit -> unit
val note_node_write : bytes:int -> unit
val note_page_read : ?n:int -> unit -> unit
val note_cache_hit : ?n:int -> unit -> unit

val snapshot : unit -> counters
val reset : unit -> unit

val measure : (unit -> 'a) -> 'a * counters
(** Run a thunk and return the work it performed.  Exception-safe: an
    escaping exception is re-raised with its original backtrace, and the
    work performed before the raise remains in the global counters (and in
    the current attribution component, if any). *)

(** {2 Per-component attribution}

    A scoped component stack over the global counters: code wraps its work
    in {!with_component}, and the deltas accrued directly inside the scope
    — excluding nested scopes — are accumulated per component name.  This
    is what breaks the global hash / page-read / node-write totals down
    into postree vs ledger vs WAL vs proof-serving.  Disabled by default;
    when disabled, {!with_component} is a single flag check. *)

val attribution_enabled : unit -> bool

val set_attribution : bool -> unit
(** Turning attribution off also discards any open frames. *)

val reset_attribution : unit -> unit
(** Clear the accumulated per-component totals (and any open frames). *)

val with_component : string -> (unit -> 'a) -> 'a
(** [with_component c f] runs [f], attributing the counter deltas accrued
    directly inside it (self time, not nested scopes) to component [c].
    Exception-safe via [Fun.protect]: an escaping exception still pops the
    frame and attributes the work performed up to the raise. *)

val attribution : unit -> (string * counters) list
(** Accumulated per-component deltas, sorted by component name. *)
