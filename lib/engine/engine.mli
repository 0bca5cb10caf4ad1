(** Cost-based query-evaluation engine over the paper's protocol.

    Sits between {!Secure.System} (hosting lifecycle) and the
    {!Secure.Server} / {!Secure.Client} pair: translated queries are
    compiled into order-only {!Plan}s (pivot selection + predicate
    ordering from server-visible statistics), executed through the
    server's own join primitives by {!Exec}, and memoised in three
    caches —

    - {e plan cache}: wire request -> compiled plan (server side);
    - {e result memo}: wire request -> evaluated response (server side);
    - {e block cache}: (block id, generation) -> decrypted subtree
      (client side).

    Every cache key is a ciphertext artifact the server already
    observes (the encoded request of Vernam tokens and OPESS ranges, or
    a block id and its content generation); plaintext never reaches a
    key.

    The engine follows its hosting through
    {!Secure.System.on_succession}: whoever supersedes the bound
    hosting — {!Secure.System.update}, {!Secure.System.rotate},
    {!Secure.System.apply_delta}, or {!Secure.Persist.journal_update}
    over them — the engine invalidates and re-binds to the successor.
    A full re-host flushes all three caches, so answers afterwards are
    computed against fresh artifacts only.  A delta invalidates
    selectively: the result memo is flushed, but compiled plans and the
    decrypted subtrees of untouched blocks stay warm — only the
    superseded (id, generation) entries are dropped — and no counters
    reset (their survival across the update is part of the contract,
    pinned by the cache-survival test).  See
    docs/SECURITY.md ("What the engine's caches add") for the leakage
    analysis.

    {!evaluate_report} and {!evaluate_batch} share one evaluation
    body; the batch runs it on the pool's workers. *)

module Lru = Lru
module Stats = Stats
module Estimate = Estimate
module Plan = Plan
module Planner = Planner
module Exec = Exec

type config = {
  planner : bool;   (** [false]: identity plans (left-to-right) *)
  caches : bool;    (** [false]: every lookup is a counted bypass *)
  plan_capacity : int;
  result_capacity : int;
  block_capacity : int;
}

val default_config : config
(** planner and caches on; capacities 128 / 64 / 256. *)

type outcome =
  | Hit
  | Miss
  | Bypass  (** caches disabled by configuration *)

val outcome_to_string : outcome -> string

type t

val create : ?config:config -> Secure.System.t -> t
(** Bind an engine to a hosting and follow its successors. *)

val system : t -> Secure.System.t
(** The hosting currently bound: the latest successor of the one the
    engine was created on. *)

val registry : t -> Obs.Metric.registry
(** The engine's private (always-enabled) metric registry —
    [engine.queries], [engine.plans_compiled], [engine.steps_reordered].
    Reset wholesale by {!flush}, so its counters always describe the
    current hosting generation. *)

val flush : t -> unit
(** Manual invalidation, counted like a re-host: empties all three
    caches and resets every counter except [invalidations]. *)

val wire_request : t -> Xpath.Ast.path -> string
(** The ciphertext request encoding used as the plan/result cache key —
    exactly {!Secure.Protocol.encode_request} of the translated query,
    exposed so tests can assert the engine keys on nothing else. *)

type report = {
  plan : Plan.t;
  plan_outcome : outcome;
  result_outcome : outcome;
  steps : Exec.step_actual list;   (** estimated vs actual, per step *)
  request_bytes : int;
  block_hits : int;       (** blocks served from the client cache *)
  block_misses : int;     (** blocks shipped and decrypted *)
  translate_ms : float;
  plan_ms : float;
  server_ms : float;
  transmit_bytes : int;   (** request + blocks actually shipped *)
  decrypt_ms : float;
  postprocess_ms : float;
  blocks_returned : int;  (** blocks the response references *)
  blocks_decrypted : int;
  answer_count : int;
}

val server_decrypt_ms : report -> float
(** The E10 headline quantity: server evaluation + client decryption. *)

val evaluate_report : t -> Xpath.Ast.path -> Secure.Client.answer list * report
(** One full round trip through plan -> execute -> decrypt ->
    post-process.  Answers are exact (identical to
    {!Secure.System.evaluate}'s) for any planner/cache configuration:
    plans only reorder sound joins, and the client re-evaluates the
    original query over the decrypted view. *)

val evaluate : t -> Xpath.Ast.path -> Secure.Client.answer list

val evaluate_batch :
  t -> Xpath.Ast.path array -> (Secure.Client.answer list * report) array
(** Evaluate independent queries, fanning them across the system's
    domain pool (sequentially when it has none).  Answers at index [i]
    are exactly [evaluate_report t queries.(i)]'s; every cache and
    counter touch is serialised through an internal lock, so only the
    hit/miss accounting can differ from a sequential replay (two lanes
    may concurrently miss on the same key and duplicate a compile or a
    decrypt — both compute equal values).  Ledger rounds are recorded
    in query order after the merge. *)

val stats : t -> Stats.t
(** Snapshot of the current hosting generation's counters.  A rehost
    (or manual {!flush}) resets every counter except [invalidations],
    which counts generations this engine outlived — previously counters
    accumulated across generations, silently mixing hit rates of dead
    ciphertext artifacts into live ones. *)
