(** Fixed-size domain pool with a deterministic-merge contract.

    The pool spawns its worker domains once, at [create] time, and
    reuses them for every subsequent [map]/[map_reduce] call: spawning
    a domain costs milliseconds, so per-call spawning would dwarf the
    work we hand it.  Work is distributed by chunked work-stealing —
    the input array is cut into contiguous chunks and idle workers
    claim the next unclaimed chunk — but results are merged by chunk
    index, never by completion order.  Consequently the output of
    every entry point is byte-for-byte identical to its sequential
    equivalent, no matter how the scheduler interleaves the workers.
    Callers rely on that determinism for answer- and
    leakage-equivalence proofs, so it is part of the interface, not an
    implementation detail.

    All concurrency primitives used by this repository (Domain, Mutex,
    Condition, Atomic) live behind this module; the [concurrency] lint
    rule rejects direct references anywhere else in the tree. *)

type t
(** A pool of worker domains.  A pool of size 1 spawns no domains and
    runs everything on the calling domain. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the
    caller's domain is the remaining worker).  [domains] defaults to
    {!recommended_domains}[ ()] and is clamped to [\[1, 64\]]. *)

val size : t -> int
(** Number of domains that participate in a [map], including the
    caller's. *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  Using the pool after
    [shutdown] runs sequentially. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()], re-exported so callers (in
    particular bench and tests) can size pools and gate speedup
    assertions without referencing [Domain] directly. *)

val busy : t -> bool
(** Whether a [map]/[map_reduce] is currently running on this pool.  A
    caller that submits while the pool is busy still gets correct
    results — the submission degrades to sequential execution on its
    own domain — so this is an {e advisory} signal for admission
    control (the serving tier counts contended dispatches), never a
    lock. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] is observably [Array.map f xs]: element [i] of the
    result is [f xs.(i)], and if any application raises, the exception
    re-raised is the one from the lowest-indexed failing chunk.
    Applications of [f] may run concurrently on several domains, so
    [f] must not mutate shared state.  Nested or concurrent [map]
    calls on the same pool are safe: the inner call detects the pool
    is busy and degrades to sequential execution. *)

val mapi : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Like {!map} with the element index passed to [f]. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list, preserving order. *)

val map_reduce :
  t -> map:('a -> 'b) -> combine:('b -> 'b -> 'b) -> init:'b -> 'a array -> 'b
(** [map_reduce pool ~map ~combine ~init xs] is
    [Array.fold_left (fun acc x -> combine acc (map x)) init xs]
    provided [combine] is associative and [init] is its left unit.
    Per-chunk partial folds are combined in chunk order, so the result
    is deterministic under those laws. *)
