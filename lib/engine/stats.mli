(** Engine counter snapshot.

    Cache counters are hit/miss/eviction triples per cache (server-side
    result memos, client-side decrypted blocks); [invalidations] counts
    the hosting successions the engine followed
    ({!Secure.System.on_succession}) and manual flushes. *)

type t = {
  queries : int;
  invalidations : int;
  plan_hits : int;
  plan_misses : int;
      (** always [0]: the engine compiles no plans.  Kept because the
          sxqbench benchmark (bench/e2e) still reads both fields. *)
  result_hits : int;
  result_misses : int;
  result_evictions : int;
  block_hits : int;
  block_misses : int;
  block_evictions : int;
}

val result_hit_rate : t -> float
val block_hit_rate : t -> float
(** Hits over hits+misses; [0.0] when the cache was never consulted. *)

val to_string : t -> string
