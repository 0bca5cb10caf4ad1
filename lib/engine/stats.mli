(** Engine counter snapshot.

    Cache counters are hit/miss/eviction triples per cache (compiled
    plans, server-side result memos, client-side decrypted blocks);
    [invalidations] counts the hosting successions the engine followed
    ({!Secure.System.on_succession}) and manual flushes. *)

type t = {
  queries : int;
  plans_compiled : int;
  steps_reordered : int;
      (** pivot spans: number of steps whose evaluation order a
          compiled plan changed, summed over compilations *)
  invalidations : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  result_hits : int;
  result_misses : int;
  result_evictions : int;
  block_hits : int;
  block_misses : int;
  block_evictions : int;
}

val zero : t

val plan_hit_rate : t -> float
val result_hit_rate : t -> float
val block_hit_rate : t -> float
(** Hits over hits+misses; [0.0] when the cache was never consulted. *)

val to_string : t -> string
