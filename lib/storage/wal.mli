(** Write-ahead log.

    Each shard appends a record per prepared/committed transaction before
    acknowledging, and replays the tail on recovery (Section 3.3.5).  Records
    carry a monotonically increasing sequence number.  The log lives in
    memory (the cluster is simulated) but write costs are charged through
    {!Glassdb_util.Work} like any other persistence. *)

type t

type record = {
  seq : int;
  kind : string;   (** e.g. "prepare", "commit", "abort", "block" *)
  payload : string;
}

val create : unit -> t

val append : t -> kind:string -> payload:string -> int
(** Returns the record's sequence number. *)

val records_from : t -> int -> record list
(** All records with [seq >= n], oldest first — the recovery read path. *)

val last_seq : t -> int
(** -1 when empty. *)

val truncate_after : t -> int -> unit
(** Drop records with [seq > n] (and rewind the sequence counter to
    [n + 1]) — crash simulation: the tail never reached the disk. *)

val tear_last : t -> drop_bytes:int -> unit
(** Cut the newest record's payload short by [drop_bytes] (the record
    disappears when nothing of the payload survives) — crash simulation
    of a torn final write.  Replay must skip the mangled record. *)

val size_bytes : t -> int
