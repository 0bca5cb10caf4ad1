(** Multi-tenant serving tier over the hosted-database stack.

    One [Serve.t] multiplexes N independent hostings — each tenant is a
    complete {!Secure.System.t} with its own master secret, key ring,
    session link, tracer and leakage ledger, so nothing a query touches
    is shared between tenants except the domain pool that schedules
    them.  The tier adds the operational machinery the single-hosting
    stack lacks:

    - {e registry + shard map}: tenants register under a string id and
      are routed to a shard by a stable hash; round-robin admission
      walks tenants in (shard, id) order, rotating the starting point
      every round so no tenant is structurally first.
    - {e admission control}: a bounded FIFO queue per tenant
      ({!submit} rejects with [Overloaded] when full — backpressure is
      a typed answer, never a silent drop), a per-tenant token bucket
      ({!Limiter}) capping sustained throughput per round, and a
      global in-flight cap sized from the pool so a burst cannot
      saturate the domain pool.
    - {e circuit breaking}: per-tenant {!Breaker}s trip after K
      consecutive wire failures, shed the tripped tenant's queue, and
      recover through a half-open probe — one sick tenant cannot burn
      pool lanes that healthy tenants need.
    - {e online rehost}: {!rehost} re-encrypts one tenant under a fresh
      master between rounds; its generation fence (the hosting
      generation counter plus the rehost cache-flush hooks) guarantees
      every answer produced afterwards was computed against the new
      ciphertexts while other tenants keep serving undisturbed.

    Time is the round counter: {!run_round} refills buckets, cools
    breakers, admits up to the caps and dispatches the admitted batch
    across the pool (one worker per tenant, so per-tenant state is
    never touched by two domains).  All breaker transitions and metric
    bumps happen after the merge, on the calling domain.  With equal
    seeds and submission order, every trajectory — trips, probes,
    rejections, answers — replays exactly. *)

module Limiter = Limiter
module Breaker = Breaker

type config = {
  shards : int;             (** shard-map width (>= 1) *)
  queue_depth : int;        (** per-tenant queue bound; full => [Overloaded] *)
  bucket_capacity : int;    (** {!Limiter} burst size *)
  refill_per_round : int;   (** {!Limiter} sustained queries/round *)
  max_inflight : int;       (** global admitted/round cap; 0 = 4 x pool size *)
  breaker_threshold : int;  (** consecutive failures before a trip *)
  breaker_cooldown : int;   (** open rounds before the half-open probe *)
}

val default_config : config
(** 4 shards, depth 8, bucket 4/2, auto inflight, trip after 3,
    cooldown 2. *)

type route =
  [ `Wire     (** {!Secure.System.try_evaluate} through the session
                  link — retries, faults and [Gave_up]s feed the
                  breaker *)
  | `Engine   (** {!Engine.evaluate_report} — planned and cached,
                  bypasses the wire, never trips the breaker *) ]

type reject =
  | Overloaded      (** tenant queue full (or the pool is contended) *)
  | Breaker_open    (** tenant's circuit breaker is open *)
  | Unknown_tenant  (** id not in the registry *)

val reject_to_string : reject -> string

type outcome =
  | Answered of {
      answers : Secure.Client.answer list;
      cost : Secure.System.cost;
      generation : int;
          (** hosting generation the answer was computed against *)
    }
  | Failed of Secure.Session.error
      (** wire path exhausted its retries (feeds the breaker) *)
  | Shed of reject
      (** dropped from the queue after admission — today only
          [Shed Breaker_open], when a trip flushes the queue *)

type completion = {
  ticket : int;
  tenant : string;
  outcome : outcome;
}

type t

val create : ?config:config -> ?pool:Parallel.Pool.t -> unit -> t
(** An empty registry.  Without [pool], rounds dispatch sequentially
    (same completions, no parallelism).
    @raise Invalid_argument on non-positive config fields. *)

val config : t -> config
val pool : t -> Parallel.Pool.t option

val register :
  t -> id:string -> ?route:route -> ?budget:Attack.Budget.t ->
  Secure.System.t -> unit
(** Add a tenant (default route [`Wire]).  The hosting should carry its
    own master secret; the tier never mixes key material.  [budget]
    attaches a leakage budget for {!audit} to score; it obligates
    nothing until the tenant's ledger is enabled.
    @raise Invalid_argument on a duplicate id. *)

val tenants : t -> string list
(** Registered ids in admission order: sorted by (shard, id). *)

val shard_of : t -> string -> int
(** Stable shard for an id (defined whether or not it is registered). *)

val system : t -> string -> Secure.System.t
(** @raise Not_found for unregistered ids (likewise the accessors
    below). *)

val generation : t -> string -> int
val breaker : t -> string -> Breaker.t
val queue_length : t -> string -> int

val engine : t -> string -> Engine.t option
(** The tenant's engine binding ([None] on the [`Wire] route) — exposed
    so tests and the CLI can audit per-tenant cache state. *)

val budget : t -> string -> Attack.Budget.t option
(** The tenant's declared leakage budget, if one was registered. *)

val audit : t -> (string * (Attack.Budget.score, string) result) list
(** Score every budgeted tenant's leakage ledger against its
    declaration ({!Attack.Budget.check}), in admission order.
    Un-budgeted tenants are skipped.  A disabled (hence empty) ledger
    is [Error] — the budget fails closed, so auditing a tenant means
    enabling its ledger first. *)

val registry : t -> Obs.Metric.registry
(** The tier's private, always-enabled metric registry.  Global
    counters: [serve.rounds], [serve.admitted], [serve.probes].
    Per-tenant (prefix [serve.<id>.], cf.
    {!Obs.Metric.snapshot_prefix}): [.submitted], [.served], [.failed],
    [.shed], [.rejected]. *)

val submit : t -> tenant:string -> Xpath.Ast.path -> (int, reject) result
(** Enqueue one query; [Ok ticket] pairs with a {!completion} from a
    later {!run_round}.  Typed rejection, never a silent drop:
    [Error Unknown_tenant] off the registry, [Error Breaker_open] while
    the tenant's breaker is open, [Error Overloaded] when its queue is
    full or the pool is contended ({!Parallel.Pool.busy}). *)

val run_round : t -> completion list
(** One serving round: refill buckets, cool breakers, admit
    round-robin up to the caps (a half-open tenant admits exactly one
    probe), evaluate the admitted batch across the pool, then apply
    breaker transitions and metrics post-merge.  Completions are in
    admission order; a trip also sheds the tenant's remaining queue as
    [Shed Breaker_open] completions. *)

val rounds : t -> int

val drain : t -> ?max_rounds:int -> unit -> completion list
(** {!run_round} until every queue is empty (at most [max_rounds],
    default 64 — open breakers can legitimately leave queues
    non-empty). *)

val relink :
  t -> tenant:string ->
  ?session:Secure.Session.config ->
  ?faults:Secure.Transport.profile * int64 -> unit -> unit
(** Tear down and re-establish one tenant's link via
    {!Secure.System.reset_link} (fresh session, fresh endpoint — the
    old incarnation's replay cache cannot leak across).  Omitting
    [faults] yields a perfect loopback: how an operator repairs a
    tripped tenant before its breaker's probe fires.  The breaker is
    {e not} reset — recovery must be proven by the probe. *)

val rehost : t -> tenant:string -> new_master:string -> Secure.System.setup_cost
(** Online re-encryption of one tenant between rounds: rebuild its
    hosting under [new_master] ({!Secure.System.rotate}; on the
    [`Engine] route the tenant's engine flushes its caches and follows
    the new hosting), swap it into the registry and reset the tenant's
    bucket and breaker.  Other tenants are untouched; every subsequent
    answer for this tenant carries the new {!generation}. *)
