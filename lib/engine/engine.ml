module Lru = Lru
module Stats = Stats

let log_src = Logs.Src.create "engine" ~doc:"Caching evaluation engine"

module Log = (val Logs.src_log log_src)

type config = {
  result_capacity : int;
  block_capacity : int;
}

let default_config = { result_capacity = 64; block_capacity = 256 }

type outcome =
  | Hit
  | Miss

let outcome_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"

type t = {
  mutable system : Secure.System.t;
  results : (string, Secure.Server.response) Lru.t;
  blocks : (int * int, Secure.Client.decrypted) Lru.t;
      (* keyed by (block id, block generation): a delta bumps only the
         touched blocks' generations, so untouched entries stay valid
         and warm across updates *)
  mutable queries : int;  (* this hosting generation's; [flush] resets it *)
  mutable invalidations : int;
      (* monotone across rehosts by design: it counts hosting
         generations this engine outlived, unlike the per-generation
         counters which [flush] resets *)
}

let flush t =
  Lru.clear t.results;
  Lru.clear t.blocks;
  (* The superseded hosting's artifacts are gone; stats that mixed the
     old generation's hit rates with the new one's would describe dead
     ciphertext artifacts.  Reset everything except the invalidation
     count itself. *)
  Lru.reset_counters t.results;
  Lru.reset_counters t.blocks;
  t.queries <- 0;
  t.invalidations <- t.invalidations + 1;
  Log.debug (fun m -> m "caches flushed (invalidation %d)" t.invalidations)

(* Selective invalidation for a delta update: the result memo is
   flushed wholesale (a memoised response may need to GAIN blocks after
   an insert or value change, so per-block eviction of memos is
   unsound), but decrypted-block entries survive for every untouched
   block — only the superseded (id, generation) keys are dropped.
   Counters are NOT reset: the survival of warm entries across an
   update is exactly what they should show. *)
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
   per-block on a delta — then bind to the successor and follow that
   one in turn. *)
let rec follow t system =
  Secure.System.on_succession system (fun next delta ->
      (match delta with
       | None -> flush t
       | Some event -> absorb_delta t event);
      t.system <- next;
      follow t next)

let create ?(config = default_config) system =
  let t =
    { system;
      results = Lru.create config.result_capacity;
      blocks = Lru.create config.block_capacity;
      queries = 0;
      invalidations = 0 }
  in
  follow t system;
  t

let system t = t.system

(* The memo key IS the wire request: the ciphertext encoding of the
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
  result_outcome : outcome;
  request_bytes : int;
  block_hits : int;
  block_misses : int;
  translate_ms : float;
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
   server-visible: the result memo lives server-side, and a client
   block-cache hit means one fewer block crossed the wire.  The row
   takes wire facts only — request size, shipped bytes, cache outcomes
   — never the report, which also carries post-processing results. *)
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

let evaluate_report t query =
  let tracer = Secure.System.tracer t.system in
  Obs.span tracer "engine.evaluate" @@ fun () ->
  t.queries <- t.queries + 1;
  let client = Secure.System.client t.system in
  let squery, translate_ms = timed (fun () -> Secure.Client.translate client query) in
  let req = Secure.Protocol.encode_request squery in
  let (response, result_outcome), server_ms =
    Obs.span tracer "engine.exec" @@ fun () ->
    timed (fun () ->
        match Lru.find t.results req with
        | Some response -> response, Hit
        | None ->
          let response = Secure.Server.answer (Secure.System.server t.system) squery in
          Lru.put t.results req response;
          response, Miss)
  in
  (* Client-side block cache: a cached block is neither re-shipped nor
     re-decrypted, so both byte and decrypt accounting follow it. *)
  let shipped = ref 0 and hits = ref 0 and misses = ref 0 in
  let decrypted, decrypt_ms =
    timed (fun () ->
        List.map
          (fun b ->
            let id = b.Secure.Encrypt.id in
            let key = id, b.Secure.Encrypt.generation in
            match Lru.find t.blocks key with
            | Some doc ->
              incr hits;
              id, doc
            | None ->
              incr misses;
              shipped :=
                !shipped
                + String.length b.Secure.Encrypt.ciphertext
                + Secure.Encrypt.block_header_bytes;
              let doc = Secure.Client.decrypt_block client b in
              Lru.put t.blocks key doc;
              id, doc)
          response.Secure.Server.blocks)
  in
  let result_hit = if result_outcome = Hit then 1 else 0 in
  record_round (Secure.System.ledger t.system) response
    ~request_bytes:(String.length req) ~shipped_bytes:!shipped
    ~cache_hits:(result_hit + !hits)
    ~cache_misses:(1 - result_hit + !misses);
  let answers, postprocess_ms =
    timed (fun () -> Secure.Client.evaluate_with client ~decrypted query)
  in
  let report =
    { result_outcome;
      request_bytes = String.length req;
      block_hits = !hits;
      block_misses = !misses;
      translate_ms;
      server_ms;
      transmit_bytes = String.length req + !shipped;
      decrypt_ms;
      postprocess_ms;
      blocks_returned = List.length response.Secure.Server.blocks;
      blocks_decrypted = !misses;
      answer_count = List.length answers }
  in
  answers, report

let evaluate t query = fst (evaluate_report t query)

let stats t =
  { Stats.queries = t.queries;
    invalidations = t.invalidations;
    plan_hits = 0;
    plan_misses = 0;
    result_hits = Lru.hits t.results;
    result_misses = Lru.misses t.results;
    result_evictions = Lru.evictions t.results;
    block_hits = Lru.hits t.blocks;
    block_misses = Lru.misses t.blocks;
    block_evictions = Lru.evictions t.blocks }
