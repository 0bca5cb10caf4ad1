(** Bounded least-recently-used map with hit/miss/eviction counters.

    The engine's two caches (server-side result memos, client-side
    decrypted blocks) are both instances of this one structure; a capacity of [0] disables storage entirely, turning
    every {!find} into a counted miss — that is how the engine's
    cache-disabled mode is implemented without a second code path. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity]; negative capacities behave like [0]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Presence test that does {e not} touch recency or counters. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite; evicts the least recently used entry when the
    capacity is exceeded.  A no-op at capacity [0]. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drop one entry if present.  Touches neither counters nor the
    recency of other entries — targeted invalidation (a superseded
    block generation) is bookkeeping, not a lookup. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry.  Counters survive (the invalidation story is part
    of what they measure); use {!reset_counters} for a clean slate. *)

val reset_counters : ('k, 'v) t -> unit
(** Zero the hit/miss/eviction counters without touching the entries.
    The engine calls this when a hosting is superseded, so stats always
    describe the current generation's artifacts. *)

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int
val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int
