module Lru = Lru
module Stats = Stats
module Estimate = Estimate
module Plan = Plan
module Planner = Planner
module Exec = Exec

let log_src = Logs.Src.create "engine" ~doc:"Cost-based evaluation engine"

module Log = (val Logs.src_log log_src)

type config = {
  planner : bool;
  caches : bool;
  plan_capacity : int;
  result_capacity : int;
  block_capacity : int;
}

let default_config =
  { planner = true;
    caches = true;
    plan_capacity = 128;
    result_capacity = 64;
    block_capacity = 256 }

type outcome =
  | Hit
  | Miss
  | Bypass

let outcome_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Bypass -> "bypass"

(* Per-engine metric registry (always enabled — the engine's own stats
   are part of its contract).  Counters live here rather than in
   mutable fields so a rehost flush can reset them wholesale and
   external consumers (sxq stats) can snapshot them uniformly. *)
type counters = {
  reg : Obs.Metric.registry;
  queries : Obs.Metric.counter;
  plans_compiled : Obs.Metric.counter;
  steps_reordered : Obs.Metric.counter;
}

let make_counters () =
  let reg = Obs.Metric.create ~enabled:true () in
  { reg;
    queries = Obs.Metric.counter reg "engine.queries" ~help:"queries evaluated";
    plans_compiled =
      Obs.Metric.counter reg "engine.plans_compiled" ~help:"plans compiled (cache misses)";
    steps_reordered =
      Obs.Metric.counter reg "engine.steps_reordered" ~help:"join steps moved by the planner" }

type t = {
  config : config;
  mutable system : Secure.System.t;
  mutable est : Estimate.t;
  plans : (string, Plan.t) Lru.t;
  results : (string, Exec.run) Lru.t;
  blocks : (int * int, Secure.Client.answer) Lru.t;
      (* keyed by (block id, block generation): a delta bumps only the
         touched blocks' generations, so untouched entries stay valid
         and warm across updates *)
  lock : Parallel.Lock.t;
      (* guards every cache and counter touch of a pooled
         [evaluate_batch] lane *)
  c : counters;
  mutable invalidations : int;
      (* monotone across rehosts by design: it counts hosting
         generations this engine outlived, unlike the per-generation
         registry counters which {!flush} resets *)
}

let flush t =
  Lru.clear t.plans;
  Lru.clear t.results;
  Lru.clear t.blocks;
  (* The superseded hosting's artifacts are gone; stats that mixed the
     old generation's hit rates with the new one's were a bug (the
     planner would mis-trust stale rates).  Reset everything except the
     invalidation count itself. *)
  Lru.reset_counters t.plans;
  Lru.reset_counters t.results;
  Lru.reset_counters t.blocks;
  Obs.Metric.reset t.c.reg;
  t.invalidations <- t.invalidations + 1;
  Log.debug (fun m -> m "caches flushed (invalidation %d)" t.invalidations)

(* Selective invalidation for a delta update: the result memo is
   flushed wholesale (a memoised response may need to GAIN blocks after
   an insert or value change, so per-block eviction of memos is
   unsound), but compiled plans stay (any plan is a correct plan) and
   decrypted-block entries survive for every untouched block — only the
   superseded (id, generation) keys are dropped.  Counters are NOT
   reset: the survival of warm entries across an update is exactly what
   they should show. *)
let absorb_delta t (event : Secure.System.delta_event) =
  Lru.clear t.results;
  List.iter
    (fun (id, old_gen, _new_gen) -> Lru.remove t.blocks (id, old_gen))
    event.Secure.System.touched_blocks;
  List.iter
    (fun (id, old_gen) -> Lru.remove t.blocks (id, old_gen))
    event.Secure.System.dropped_blocks;
  t.invalidations <- t.invalidations + 1;
  Log.debug (fun m ->
      m "delta invalidation %d: %d touched, %d dropped, results flushed"
        t.invalidations
        (List.length event.Secure.System.touched_blocks)
        (List.length event.Secure.System.dropped_blocks))

(* Follow a hosting: when it is superseded (update, rotate, delta —
   whoever calls it), invalidate — wholesale on a full re-host,
   per-block on a delta — then bind to the successor, refresh the
   statistics snapshot and follow that one in turn. *)
let rec follow t system =
  Secure.System.on_succession system (fun next delta ->
      (match delta with
       | None -> flush t
       | Some event -> absorb_delta t event);
      t.system <- next;
      t.est <- Estimate.of_server (Secure.System.server next);
      follow t next)

let create ?(config = default_config) system =
  let cap c = if config.caches then Int.max 0 c else 0 in
  let t =
    { config;
      system;
      est = Estimate.of_server (Secure.System.server system);
      plans = Lru.create (cap config.plan_capacity);
      results = Lru.create (cap config.result_capacity);
      blocks = Lru.create (cap config.block_capacity);
      lock = Parallel.Lock.create ();
      c = make_counters ();
      invalidations = 0 }
  in
  follow t system;
  t

let system t = t.system
let registry t = t.c.reg

(* The cache key IS the wire request: the ciphertext encoding of the
   translated query (Vernam tokens + OPESS ranges) that the server
   sees on every evaluation anyway.  Exposed so tests can assert the
   engine keys on nothing beyond it. *)
let wire_request t query =
  Secure.Protocol.encode_request
    (Secure.Client.translate (Secure.System.client t.system) query)

let now_ms () = Unix.gettimeofday () *. 1000.0

let timed f =
  let start = now_ms () in
  let result = f () in
  result, now_ms () -. start

type report = {
  plan : Plan.t;
  plan_outcome : outcome;
  result_outcome : outcome;
  steps : Exec.step_actual list;
  request_bytes : int;
  block_hits : int;
  block_misses : int;
  translate_ms : float;
  plan_ms : float;
  server_ms : float;
  transmit_bytes : int;
  decrypt_ms : float;
  postprocess_ms : float;
  blocks_returned : int;
  blocks_decrypted : int;
  answer_count : int;
}

let server_decrypt_ms r = r.server_ms +. r.decrypt_ms

(* One ledger round per engine evaluation.  Cache outcomes are
   server-visible: the plan cache and result memo live server-side, and
   a client block-cache hit means one fewer block crossed the wire. *)
let one_if = function Hit -> 1 | Miss | Bypass -> 0
let miss_if = function Miss -> 1 | Hit | Bypass -> 0

let record_round ledger (response : Secure.Server.response) ~request_bytes
    ~shipped_bytes ~cache_hits ~cache_misses =
  if Obs.Ledger.enabled ledger then
    Obs.Ledger.record ledger
      (Obs.Ledger.round "engine" ~bytes_up:request_bytes ~bytes_down:shipped_bytes
         ~intervals_touched:response.Secure.Server.candidate_intervals
         ~btree_hits:response.Secure.Server.btree_hits
         ~blocks_returned:(List.length response.Secure.Server.blocks)
         ~block_ids:
           (List.map
              (fun b -> b.Secure.Encrypt.id)
              response.Secure.Server.blocks)
         ~cache_hits ~cache_misses)

(* A pooled lane touches the caches and counters under [t.lock]; a
   sequential one runs alone on its domain. *)
let locked t ~pooled f = if pooled then Parallel.Lock.protect t.lock f else f ()

(* One cache lookup, computing and storing on a miss; only the cache
   touches are locked, never [compute]. *)
let cached t ~pooled cache key compute =
  match locked t ~pooled (fun () -> Lru.find cache key) with
  | Some v -> v, if t.config.caches then Hit else Bypass
  | None ->
    let v = compute () in
    locked t ~pooled (fun () -> Lru.put cache key v);
    v, if t.config.caches then Miss else Bypass

(* Translation, on the calling domain: it derives tag keys through
   [Crypto.Keys]' derivation memo, a mutable table that pool workers
   would race on. *)
let prepare t query =
  let squery, translate_ms =
    timed (fun () -> Secure.Client.translate (Secure.System.client t.system) query)
  in
  query, squery, Secure.Protocol.encode_request squery, translate_ms

(* The engine's one evaluation body: plan, execute, block cache,
   post-process, and the round's ledger row.  A sequential lane traces
   under the hosting's tracer and records on its ledger.  A pooled lane
   runs on a pool worker: it traces nothing and records on [ledger], a
   private one the caller merges in query order, and it takes the lock
   only around cache and counter touches — plan compilation, server
   execution, block decryption and post-processing run outside it. *)
let lane t ~pooled ~ledger (query, squery, req, translate_ms) =
  let span name f =
    if pooled then f () else Obs.span (Secure.System.tracer t.system) name f
  in
  locked t ~pooled (fun () -> Obs.Metric.incr t.c.queries);
  let client = Secure.System.client t.system in
  let (plan, plan_outcome), plan_ms =
    span "engine.plan" @@ fun () ->
    timed (fun () ->
        cached t ~pooled t.plans req (fun () ->
            let plan = Planner.compile ~reorder:t.config.planner t.est squery in
            locked t ~pooled (fun () ->
                Obs.Metric.incr t.c.plans_compiled;
                Obs.Metric.add t.c.steps_reordered (Plan.reorder_span plan));
            plan))
  in
  let (run, result_outcome), server_ms =
    span "engine.exec" @@ fun () ->
    timed (fun () ->
        cached t ~pooled t.results req (fun () ->
            Exec.run (Secure.System.server t.system) plan squery))
  in
  let response = run.Exec.response in
  (* Client-side block cache: a cached block is neither re-shipped nor
     re-decrypted, so both byte and decrypt accounting follow it. *)
  let shipped = ref 0 and hits = ref 0 and misses = ref 0 in
  let decrypted, decrypt_ms =
    timed (fun () ->
        List.map
          (fun b ->
            let id = b.Secure.Encrypt.id in
            let key = id, b.Secure.Encrypt.generation in
            match locked t ~pooled (fun () -> Lru.find t.blocks key) with
            | Some tree ->
              incr hits;
              id, tree
            | None ->
              incr misses;
              shipped :=
                !shipped
                + String.length b.Secure.Encrypt.ciphertext
                + Secure.Encrypt.block_header_bytes;
              let tree = Secure.Client.decrypt_block client b in
              locked t ~pooled (fun () -> Lru.put t.blocks key tree);
              id, tree)
          response.Secure.Server.blocks)
  in
  (* The ledger row takes wire facts only — request size, shipped
     bytes, cache outcomes — never the report, which also carries the
     post-processing results. *)
  record_round ledger response ~request_bytes:(String.length req)
    ~shipped_bytes:!shipped
    ~cache_hits:(one_if plan_outcome + one_if result_outcome + !hits)
    ~cache_misses:(miss_if plan_outcome + miss_if result_outcome + !misses);
  let answers, postprocess_ms =
    timed (fun () -> Secure.Client.evaluate_with client ~decrypted query)
  in
  let report =
    { plan;
      plan_outcome;
      result_outcome;
      steps = run.Exec.steps;
      request_bytes = String.length req;
      block_hits = !hits;
      block_misses = !misses;
      translate_ms;
      plan_ms;
      server_ms;
      transmit_bytes = String.length req + !shipped;
      decrypt_ms;
      postprocess_ms;
      blocks_returned = List.length response.Secure.Server.blocks;
      blocks_decrypted = !misses;
      answer_count = List.length answers }
  in
  answers, report

let evaluate_report t query =
  Obs.span (Secure.System.tracer t.system) "engine.evaluate" @@ fun () ->
  lane t ~pooled:false ~ledger:(Secure.System.ledger t.system) (prepare t query)

let evaluate t query = fst (evaluate_report t query)

(* Batched evaluation over the system's domain pool.  Answers are
   cache-independent, so result [i] is exactly [evaluate t queries.(i)];
   only the cache accounting can differ from a sequential replay
   (concurrent lanes may both miss on the same key and compile or
   decrypt twice — the last put wins, and both values are equal).  Each
   lane records its ledger row on a private ledger; the rows are copied
   onto the hosting's on the calling domain, in query order. *)
let evaluate_batch t queries =
  match Secure.System.pool t.system with
  | Some p when Parallel.Pool.size p > 1 ->
    let ledger = Secure.System.ledger t.system in
    let lanes =
      Parallel.Pool.map p
        (fun job ->
          let own = Obs.Ledger.create ~enabled:(Obs.Ledger.enabled ledger) () in
          lane t ~pooled:true ~ledger:own job, own)
        (Array.map (prepare t) queries)
    in
    Array.map
      (fun (result, own) ->
        List.iter (Obs.Ledger.record ledger) (Obs.Ledger.rounds own);
        result)
      lanes
  | Some _ | None -> Array.map (evaluate_report t) queries

let stats t =
  { Stats.queries = Obs.Metric.value t.c.queries;
    plans_compiled = Obs.Metric.value t.c.plans_compiled;
    steps_reordered = Obs.Metric.value t.c.steps_reordered;
    invalidations = t.invalidations;
    plan_hits = Lru.hits t.plans;
    plan_misses = Lru.misses t.plans;
    plan_evictions = Lru.evictions t.plans;
    result_hits = Lru.hits t.results;
    result_misses = Lru.misses t.results;
    result_evictions = Lru.evictions t.results;
    block_hits = Lru.hits t.blocks;
    block_misses = Lru.misses t.blocks;
    block_evictions = Lru.evictions t.blocks }
