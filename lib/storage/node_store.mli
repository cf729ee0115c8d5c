(** Content-addressed store for authenticated-structure nodes.

    POS-trees, Merkle logs and tries persist their nodes here keyed by hash.
    Because the key is the content hash, identical nodes written by different
    snapshots deduplicate automatically — this is what makes the
    storage-consumption experiment (Fig. 7d) meaningful.  Reads and writes
    feed the global {!Glassdb_util.Work} counters.

    An LRU-bounded decoded-chunk cache sits in front of the store: a fetch
    served by the cache is charged as a (cheap) cache hit rather than a page
    read, so the simulation's cost model rewards locality the way a real
    server's node cache would.

    The table and LRU are sharded by the node's first hash byte (up to 16
    shards, at least 32 LRU slots each; small caches collapse to one shard
    and so keep exact global-LRU eviction order).  The shards fix which
    node is evicted, and so the cache-hit and page-read charges that drive
    the simulated clock. *)

open Glassdb_util

type t

val create : ?cache_capacity:int -> unit -> t
(** [cache_capacity] bounds the decoded-chunk LRU (default 512 nodes;
    0 disables the cache). *)

val put : t -> Hash.t -> string -> unit
(** Store a node.  A duplicate put of the same hash is a no-op and is not
    charged.  A fresh node enters the decoded cache. *)

val get : t -> Hash.t -> string option
(** Charged as one page read on a cache miss that finds the node, as one
    cache hit when the LRU holds it, and not at all when the node is absent
    (the in-memory index answers without touching a page). *)

val mem : t -> Hash.t -> bool

val node_count : t -> int
val total_bytes : t -> int
(** Physical bytes after deduplication. *)

val cache_hits : t -> int
(** Fetches served by the decoded-chunk cache. *)

val cache_misses : t -> int
(** Fetches that had to touch the backing table (including absent keys). *)

val duplicate_puts : t -> int
(** Puts of an already-stored hash — content-addressed re-puts (e.g. two
    snapshots writing an identical chunk).  They leave [node_count],
    [total_bytes] and the Work charges untouched. *)

val cache_capacity : t -> int
val cached_nodes : t -> int
(** Nodes currently resident in the LRU. *)
