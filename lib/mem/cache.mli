(** Generic set-associative cache with LRU replacement.

    Addresses are tracked at cache-line granularity; callers pass raw
    addresses and the cache derives the block number. *)

type t

val create :
  ?metrics:Ndp_obs.Metrics.t ->
  ?metric_name:string ->
  size_bytes:int ->
  assoc:int ->
  line_bytes:int ->
  unit ->
  t
(** When [metrics] is an enabled registry, derived gauges
    [<metric_name>.hits], [.misses] and [.evictions] are registered; they
    read the cache's own counters at dump time, so the access path does
    not change. [metric_name] defaults to ["cache"]. *)

val access : t -> int -> bool
(** [access t addr] looks the line up, updates recency and inserts on miss
    (allocate-on-miss). Returns [true] on hit. *)

val probe : t -> int -> bool
(** Lookup without any state change. *)

val insert : t -> int -> unit
(** Force the line in (e.g. fill after a remote fetch), evicting LRU. *)

val invalidate : t -> int -> unit
(** Drop the line if present (coherence invalidation). *)

val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Valid lines displaced by fills (capacity/conflict victims). *)

val reset_stats : t -> unit

val clear : t -> unit
(** Drop all contents and statistics. *)

val num_sets : t -> int
val assoc : t -> int
