module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree

let log_src = Logs.Src.create "secure.system" ~doc:"Hosted-system lifecycle"

module Log = (val Logs.src_log log_src)

(* Process-wide system counters on Obs.Metric.default (disabled by
   default).  [system.degraded] makes naive-evaluate fallbacks visible
   to operators without tracing: before it existed a degraded query was
   indistinguishable from a clean one unless the caller inspected every
   cost record or enabled the ledger. *)
module M = struct
  let reg = Obs.Metric.default

  let degraded =
    Obs.Metric.counter reg "system.degraded"
      ~help:"queries answered by the naive fallback after the metadata path gave up"

  let relinks =
    Obs.Metric.counter reg "system.relinks"
      ~help:"session links torn down and re-established"
end

(* The wire between client and server: a framed session over a
   (possibly fault-injecting) transport.  Built once per system; the
   endpoint wraps the server's answer function. *)
type link = {
  transport : Transport.t;
  session : Session.t;
  endpoint : Session.endpoint;
  faulty : bool;
}

(* What a delta update changed, block-wise: enough for per-block cache
   invalidation without flushing artifacts derived from untouched
   blocks. *)
type delta_event = {
  touched_blocks : (int * int * int) list;  (* id, old gen, new gen *)
  dropped_blocks : (int * int) list;        (* id, old gen *)
  structural : bool;
}

type t = {
  doc : Doc.t;
  master : string;
  cipher : Crypto.Cipher.suite;
  constraints : Sc.t list;
  scheme : Scheme.t;
  db : Encrypt.db;
  metadata : Metadata.t;
  client : Client.t;
  server : Server.t;
  link : link;
  pool : Parallel.Pool.t option;
  trace : Obs.Trace.t;    (* shared with the server; disabled by default *)
  ledger : Obs.Ledger.t;  (* per-round server-visible facts *)
  generation : int;
  observers : (t -> delta_event option -> unit) list ref;
      (* caches and engines to hand the successor hosting when this
         one is superseded by update/rotate/apply_delta — with the
         delta's changelist, or None for a wholesale re-host; shared by
         the with_faults and reset_link record copies, which are the
         same hosting rewired *)
}

(* Re-hosting replaces every ciphertext artifact (blocks, tokens, OPE
   keys, DSI weights), so anything derived from a system must be
   dropped when its generation is superseded. *)
let generation_counter = ref 0

let next_generation () =
  incr generation_counter;
  !generation_counter

let generation t = t.generation

let on_succession t f = t.observers := f :: !(t.observers)

let supersede t next delta =
  let observers = !(t.observers) in
  t.observers := [];
  List.iter (fun f -> f next delta) observers

type cost = {
  translate_ms : float;
  server_ms : float;
  transmit_bytes : int;
  transmit_ms : float;
  decrypt_ms : float;
  postprocess_ms : float;
  blocks_returned : int;
  answer_count : int;
  attempts : int;
  retransmitted_bytes : int;
  faults_absorbed : int;
  replays : int;
  degraded : bool;
}

(* 100 Mbps = 12.5 MB/s = 12500 bytes per ms. *)
let link_bytes_per_ms = 12_500.0

let total_ms c =
  c.translate_ms +. c.server_ms +. c.transmit_ms +. c.decrypt_ms +. c.postprocess_ms

type setup_cost = {
  scheme_build_ms : float;
  encrypt_ms : float;
  metadata_ms : float;
  scheme_size_nodes : int;
  block_count : int;
  server_data_bytes : int;
  metadata_bytes : int;
}

let now_ms () = Unix.gettimeofday () *. 1000.0

let timed f =
  let start = now_ms () in
  let result = f () in
  result, now_ms () -. start

let session_mac_label = "session-mac"

let make_link ?session_config ?faults keys server =
  let mac_key = Crypto.Keys.derive keys session_mac_label in
  let handler request =
    let response =
      match Protocol.decode_any request with
      | Protocol.Query q -> Server.answer server q
      | Protocol.Fetch ids -> Server.fetch server ids
      | Protocol.Padded (q, extra) -> Server.answer_padded server q ~extra
    in
    Protocol.encode_response response
  in
  let endpoint = Session.endpoint ~mac_key ~handler () in
  let transport = Transport.loopback (Session.serve endpoint) in
  let transport =
    match faults with
    | None -> transport
    | Some (profile, seed) -> Transport.faulty ~profile ~seed transport
  in
  { transport; session = Session.client ?config:session_config ~mac_key transport;
    endpoint;
    faulty = faults <> None }

(* A fresh hosting of [db] and [metadata]: its client, server and link,
   a new generation and no observers yet. *)
let host ~keys ~master ~cipher ~pool ~trace ~ledger ~doc ~constraints ~scheme ~db
    metadata =
  let server = Server.of_metadata ~trace metadata (Encrypt.server_blocks db) in
  { doc; master; cipher; constraints; scheme; db; metadata;
    client = Client.create ~keys metadata db;
    server;
    link = make_link keys server;
    pool;
    trace;
    ledger;
    generation = next_generation ();
    observers = ref [] }

let setup ?(master = "secure-xml-master-key") ?(cipher = Crypto.Cipher.Xtea) ?pool
    doc scs kind =
  let keys = Crypto.Keys.create ~suite:cipher ~master () in
  let trace = Obs.Trace.create () in
  let ledger = Obs.Ledger.create () in
  let scheme, scheme_build_ms = timed (fun () -> Scheme.build doc scs kind) in
  (match Scheme.enforces doc scheme scs with
   | Ok () -> ()
   | Error msg -> invalid_arg ("System.setup: scheme does not enforce SCs: " ^ msg));
  let db, encrypt_ms = timed (fun () -> Encrypt.encrypt ?pool ~keys doc scheme) in
  let metadata, metadata_ms =
    timed (fun () -> Metadata.build ?pool ~keys db)
  in
  Log.info (fun m ->
      m "setup: scheme %s, %d blocks (%.0f ms), metadata %d B (%.0f ms), cipher %s"
        (Scheme.kind_to_string kind)
        (Scheme.block_count scheme)
        encrypt_ms
        (Metadata.metadata_bytes metadata)
        metadata_ms
        (Crypto.Cipher.suite_to_string cipher));
  let system =
    host ~keys ~master ~cipher ~pool ~trace ~ledger ~doc ~constraints:scs ~scheme ~db
      metadata
  in
  let cost =
    { scheme_build_ms;
      encrypt_ms;
      metadata_ms;
      scheme_size_nodes = Scheme.size doc scheme;
      block_count = Scheme.block_count scheme;
      server_data_bytes = Encrypt.server_bytes db;
      metadata_bytes = Metadata.metadata_bytes metadata }
  in
  system, cost

(* Rebuild the live client/server pair from persisted parts (used by
   Persist.load); no scheme construction, encryption or metadata work
   happens here. *)
let restore ~master ?(cipher = Crypto.Cipher.Xtea) ?pool ~doc ~constraints ~scheme
    ~db ~metadata () =
  let keys = Crypto.Keys.create ~suite:cipher ~master () in
  (* A restored ring never ran [Encrypt.encrypt]: warm its derived-key
     memo before any pooled decryption can read it concurrently. *)
  Encrypt.prewarm_block_keys ~keys;
  host ~keys ~master ~cipher ~pool ~trace:(Obs.Trace.create ())
    ~ledger:(Obs.Ledger.create ()) ~doc ~constraints ~scheme ~db metadata

(* Rewire the same hosted system behind a chaotic link.  The server
   state is shared; only the wire path (and retry policy) changes. *)
let with_faults ?session ~profile ~seed t =
  let keys = Crypto.Keys.create ~suite:t.cipher ~master:t.master () in
  { t with
    link = make_link ?session_config:session ~faults:(profile, seed) keys t.server }

(* Link incarnation boundary: close the old session (it refuses further
   calls) and build a fresh link — new client sequence numbers, new
   endpoint, and therefore an *empty* replay cache.  Without the close,
   a caller still holding the old record could warm the dead
   incarnation's cache and make replay accounting lie across the
   teardown; with it, the two incarnations are observably disjoint. *)
let reset_link ?session ?faults t =
  Session.close t.link.session;
  Obs.Metric.incr M.relinks;
  let keys = Crypto.Keys.create ~suite:t.cipher ~master:t.master () in
  { t with link = make_link ?session_config:session ?faults keys t.server }

let session_stats t = Session.stats t.link.session
let transport_stats t = Transport.stats t.link.transport
let endpoint_stats t = Session.endpoint_stats t.link.endpoint

let tracer t = t.trace
let ledger t = t.ledger

let doc t = t.doc
let master t = t.master
let cipher t = t.cipher
let constraints t = t.constraints
let scheme t = t.scheme
let db t = t.db
let metadata t = t.metadata
let client t = t.client
let server t = t.server
let pool t = t.pool

(* ------------------------------------------------------------------ *)
(* The read pipeline                                                   *)

(* Every read is one Figure 1 round: the client translates, the server
   prunes and ships candidate blocks, the client decrypts and
   post-processes.  The entry points below differ only in what they
   ship and how they evaluate; the round itself ([ship]), the client
   step ([deliver]), the ledger row ([record]), the cost record
   ([cost_of]) and the degradation ladder ([degrade]) exist once. *)

(* What the server side of the wire saw of one read: byte counts, index
   statistics, the shipped blocks and the session counters the read
   moved.  Pure wire facts — block ids and sizes are response-header
   fields, never decrypted content — so ledger rows are built from
   this record alone. *)
type shipment = {
  bytes_up : int;
  bytes_down : int;
  intervals_touched : int;
  btree_hits : int;
  blocks : Encrypt.block list;  (* in shipping order *)
  server_ms : float;
  attempts : int;
  retransmitted_bytes : int;
  faults_absorbed : int;
  replays : int;  (* retransmitted frames the endpoint linked *)
  degraded : bool;
}

(* A read that crossed no wire: one clean attempt, nothing shipped. *)
let nothing =
  { bytes_up = 0; bytes_down = 0; intervals_touched = 0; btree_hits = 0;
    blocks = []; server_ms = 0.0; attempts = 1; retransmitted_bytes = 0;
    faults_absorbed = 0; replays = 0; degraded = false }

let add ?(bytes_up = 0) s (r : Server.response) =
  { s with
    bytes_up = s.bytes_up + bytes_up;
    bytes_down = s.bytes_down + r.Server.bytes;
    intervals_touched = s.intervals_touched + r.Server.candidate_intervals;
    btree_hits = s.btree_hits + r.Server.btree_hits;
    blocks = s.blocks @ r.Server.blocks }

(* What the naive path ships: every stored block, read from the server
   state directly (no metadata round trip to fail). *)
let everything t =
  let blocks = Server.all_blocks t.server in
  { nothing with
    bytes_down =
      List.fold_left
        (fun acc b ->
          acc + String.length b.Encrypt.ciphertext + Encrypt.block_header_bytes)
        0 blocks;
    blocks }

(* Session counters around a group of calls.  The replay-cache hits the
   endpoint saw are the retransmit-linkability count of the leakage
   ledger (retransmitted frames are byte-identical; see
   docs/SECURITY.md). *)
let snapshot link =
  Session.stats link.session, (Session.endpoint_stats link.endpoint).Session.replayed

let moved link (before, replays_before) s =
  let after = Session.stats link.session in
  { s with
    attempts = after.Session.attempts - before.Session.attempts;
    retransmitted_bytes =
      after.Session.retransmitted_bytes - before.Session.retransmitted_bytes;
    faults_absorbed = Session.faults_absorbed after - Session.faults_absorbed before;
    replays = (Session.endpoint_stats link.endpoint).Session.replayed - replays_before }

(* Shipped-block ids in shipping order — the access pattern the ledger
   records and the adversary simulator replays. *)
let ids_of blocks = List.map (fun b -> b.Encrypt.id) blocks

let record t label s =
  if Obs.Ledger.enabled t.ledger then
    Obs.Ledger.record t.ledger
      (Obs.Ledger.round label ~bytes_up:s.bytes_up ~bytes_down:s.bytes_down
         ~intervals_touched:s.intervals_touched ~btree_hits:s.btree_hits
         ~blocks_returned:(List.length s.blocks) ~block_ids:(ids_of s.blocks)
         ~attempts:s.attempts ~replays:s.replays ~degraded:s.degraded)

let cost_of s ~translate_ms ~decrypt_ms ~postprocess_ms ~answers =
  let bytes = s.bytes_up + s.bytes_down in
  { translate_ms;
    server_ms = s.server_ms;
    transmit_bytes = bytes;
    transmit_ms = float_of_int bytes /. link_bytes_per_ms;
    decrypt_ms;
    postprocess_ms;
    blocks_returned = List.length s.blocks;
    answer_count = answers;
    attempts = s.attempts;
    retransmitted_bytes = s.retransmitted_bytes;
    faults_absorbed = s.faults_absorbed;
    replays = s.replays;
    degraded = s.degraded }

let translate t query =
  Obs.span t.trace "client.translate" @@ fun () ->
  timed (fun () -> Client.translate t.client query)

(* The verified round: per request, in order — frame, exchange (with
   retries), unframe, decode; the first failure aborts.  A response
   that authenticates but fails protocol decoding is reported as
   Malformed rather than letting the exception escape — under a
   surviving fault schedule the caller must never crash. *)
let ship t requests =
  Obs.span t.trace "wire.exchange" @@ fun () ->
  let before = snapshot t.link in
  let rec go s = function
    | [] -> Ok s
    | request :: rest ->
      (match Session.call t.link.session request with
       | Error e -> Error e
       | Ok payload ->
         (match Protocol.decode_response payload with
          | exception Protocol.Malformed _ -> Error Session.Malformed
          | response -> go (add ~bytes_up:(String.length request) s response) rest))
  in
  match timed (fun () -> go nothing requests) with
  | Error e, _ -> Error e
  | Ok s, server_ms -> Ok (moved t.link before { s with server_ms })

(* The client step, then the round's ledger row and cost.  Per-block
   verify+decrypt is independent (nonce and MAC are keyed by the block
   id) and results keep list order, so the pooled fan-out returns
   exactly what the sequential fold would; called from inside a pool
   worker (a batch lane) the nested map degrades to sequential on that
   worker — correct either way. *)
let deliver t ~label ~translate_ms s eval =
  let decrypted, decrypt_ms =
    Obs.span t.trace "client.decrypt" @@ fun () ->
    timed (fun () ->
        let one b = b.Encrypt.id, Client.decrypt_block t.client b in
        match t.pool with
        | Some p when Parallel.Pool.size p > 1 -> Parallel.Pool.map_list p one s.blocks
        | Some _ | None -> List.map one s.blocks)
  in
  let answers, postprocess_ms =
    Obs.span t.trace "client.postprocess" @@ fun () -> timed (fun () -> eval decrypted)
  in
  record t label s;
  answers, cost_of s ~translate_ms ~decrypt_ms ~postprocess_ms ~answers:(List.length answers)

let answers_of t query decrypted = Client.evaluate_with t.client ~decrypted query

let union_of t queries decrypted =
  Client.evaluate_union_with t.client ~decrypted queries

(* Every exchange crosses the wire format: the server decodes the
   request bytes, the client decodes the response bytes — exactly the
   Figure 1 data flow, framed and retried by the session layer. *)
let wire_read t ~label ~translate_ms requests eval =
  Result.map (fun s -> deliver t ~label ~translate_ms s eval) (ship t requests)

(* Degradation ladder: the metadata path retries inside Session.call;
   if it still fails, fall back to the naive ship-everything semantics
   evaluated from the server state directly (no metadata round trip to
   fail), so answers stay exact under any survivable fault schedule.
   The fallback's row and cost carry what the failed attempt cost on
   [link] since [before]. *)
let degrade t ~link ~before err eval =
  Log.warn (fun m ->
      m "metadata path failed (%s): degrading to naive evaluation"
        (Session.error_to_string err));
  Obs.Metric.incr M.degraded;
  Obs.span t.trace "system.degraded" @@ fun () ->
  deliver t ~label:"degraded" ~translate_ms:0.0
    (moved link before { (everything t) with degraded = true })
    eval

let with_ladder t eval attempt =
  let before = snapshot t.link in
  match attempt () with
  | Ok result -> result
  | Error err -> degrade t ~link:t.link ~before err eval

let try_evaluate t query =
  Obs.span t.trace "system.evaluate" @@ fun () ->
  let squery, translate_ms = translate t query in
  wire_read t ~label:"evaluate" ~translate_ms
    [ Protocol.encode_request squery ]
    (answers_of t query)

let naive_evaluate t query =
  Obs.span t.trace "system.naive_evaluate" @@ fun () ->
  deliver t ~label:"naive" ~translate_ms:0.0 (everything t) (answers_of t query)

let evaluate t query =
  with_ladder t (answers_of t query) (fun () -> try_evaluate t query)

(* ------------------------------------------------------------------ *)
(* Mitigation primitives (the Mitigate layer's wire operations)        *)

(* Cover traffic: a Fetch round whose blocks the client discards
   undecrypted — only the traffic shape matters, so the cost carries no
   decrypt/postprocess time and no answers. *)
let fetch_blocks t ids =
  Obs.span t.trace "system.fetch" @@ fun () ->
  Result.map
    (fun s ->
      record t "fetch" s;
      cost_of s ~translate_ms:0.0 ~decrypt_ms:0.0 ~postprocess_ms:0.0 ~answers:0)
    (ship t [ Protocol.encode_fetch ids ])

(* The padded twin of [try_evaluate]: the shipment is widened to the
   requested envelope but stays a superset of the honest answer, and
   client-side filtering is already superset-tolerant (the naive path
   ships everything), so answers are byte-identical to the unpadded
   round. *)
let try_evaluate_padded t ~extra query =
  Obs.span t.trace "system.evaluate_padded" @@ fun () ->
  let squery, translate_ms = translate t query in
  wire_read t ~label:"padded" ~translate_ms
    [ Protocol.encode_padded squery extra ]
    (answers_of t query)

(* Union queries: one server round per branch, one combined block set
   (a block two branches share ships twice but decrypts once), one
   client-side union evaluation (node-level dedup). *)
let try_evaluate_union t queries =
  Obs.span t.trace "system.evaluate_union" @@ fun () ->
  let translated = List.map (translate t) queries in
  let translate_ms = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 translated in
  Result.map
    (fun s ->
      let blocks =
        List.sort_uniq (fun a b -> Int.compare a.Encrypt.id b.Encrypt.id) s.blocks
      in
      deliver t ~label:"union" ~translate_ms { s with blocks } (union_of t queries))
    (ship t (List.map (fun (squery, _) -> Protocol.encode_request squery) translated))

let evaluate_union t queries =
  with_ladder t (union_of t queries) (fun () -> try_evaluate_union t queries)

(* ------------------------------------------------------------------ *)
(* Batched evaluation                                                  *)

(* Fan the independent queries of a workload across the pool, against
   the shared read-only server.  Three things keep this exactly
   equivalent to evaluating the queries one at a time:

   - translation happens up front on the calling domain, in query
     order: it derives tag keys through [Crypto.Keys]' derivation memo,
     a mutable table that parallel translation would race on;

   - each lane is the system behind a private session link (the
     system's own session is stateful: sequence numbers, stats), built
     over the same endpoint handler, so every request/response crosses
     the same wire format and the server answers from the same
     read-only state;

   - results merge by input index (the pool's deterministic-merge
     contract), so answers and costs line up with the query array.

   Lanes never trace, and record their ledger row on a private ledger:
   the tracer, the ledger and the metric registry are single-domain
   structures.  The rows (label "batch"), and any fallback down the
   degradation ladder, are taken after the merge, on the calling
   domain, in query order.  A chaotic link serialises: retry schedules
   are deterministic per session, and interleaving lanes over a shared
   fault schedule would change which faults hit which query. *)
let evaluate_batch t queries =
  match t.pool with
  | Some p when Parallel.Pool.size p > 1 && not t.link.faulty ->
    let keys = Client.keys t.client in
    (* Lane links derive the session MAC key from the (mutable) key
       ring memo: warm it before fanning out. *)
    ignore (Crypto.Keys.derive keys session_mac_label);
    let translated =
      Array.map (fun q -> q, timed (fun () -> Client.translate t.client q)) queries
    in
    let lanes =
      Parallel.Pool.map p
        (fun (query, (squery, translate_ms)) ->
          let lane =
            { t with
              link = make_link keys t.server;
              trace = Obs.Trace.create ();
              ledger = Obs.Ledger.create ~enabled:(Obs.Ledger.enabled t.ledger) () }
          in
          let before = snapshot lane.link in
          ( wire_read lane ~label:"batch" ~translate_ms
              [ Protocol.encode_request squery ]
              (answers_of t query),
            lane,
            before ))
        translated
    in
    Array.map2
      (fun query (result, lane, before) ->
        List.iter (Obs.Ledger.record t.ledger) (Obs.Ledger.rounds lane.ledger);
        match result with
        | Ok result -> result
        | Error err -> degrade t ~link:lane.link ~before err (answers_of t query))
      queries lanes
  | Some _ | None -> Array.map (evaluate t) queries

let reference_union t queries =
  List.map (fun n -> Doc.subtree t.doc n) (Xpath.Eval.eval_union t.doc queries)

let reference t query =
  List.map (fun n -> Doc.subtree t.doc n) (Xpath.Eval.eval t.doc query)

(* ------------------------------------------------------------------ *)
(* Aggregates (Section 6.4)                                            *)

(* Compare values the way predicate evaluation does: numerically when
   both sides parse as numbers. *)
let value_compare a b =
  match float_of_string_opt a, float_of_string_opt b with
  | Some x, Some y -> Float.compare x y
  | Some _, None | None, Some _ | None, None -> String.compare a b

let leaf_values trees =
  List.filter_map
    (function
      | Tree.Element (_, [ Tree.Text v ]) -> Some v
      | Tree.Element _ | Tree.Text _ -> None)
    trees

let extreme direction values =
  let better a b =
    match direction with
    | `Min -> if value_compare a b <= 0 then a else b
    | `Max -> if value_compare a b >= 0 then a else b
  in
  match values with
  | [] -> None
  | v :: rest -> Some (List.fold_left better v rest)

let aggregate t direction query =
  Obs.span t.trace "system.aggregate" @@ fun () ->
  let squery, translate_ms = translate t query in
  match
    (* The no-decryption fast path needs the server's candidate set to
       be exact, which structural joins guarantee only in the absence
       of value predicates (those are resolved at block granularity and
       may admit false positives under coarse schemes). *)
    if Squery.has_value_predicate squery then None
    else Client.aggregate_range t.client query
  with
  | None ->
    (* Fall back to the ordinary protocol and aggregate client-side. *)
    let answers, cost = evaluate t query in
    extreme direction (leaf_values answers), cost
  | Some key_range ->
    (* The extreme-entry exchange has no wire encoding yet: the server
       answers in-process, so nothing goes up the wire. *)
    let response, server_ms =
      timed (fun () -> Server.answer_extreme t.server squery ~key_range ~direction)
    in
    let answers, cost =
      deliver t ~label:"aggregate" ~translate_ms
        { (add nothing response) with server_ms }
        (answers_of t query)
    in
    let result = extreme direction (leaf_values answers) in
    result, { cost with answer_count = (match result with Some _ -> 1 | None -> 0) }

let count t query =
  (* COUNT cannot be answered from the index (splitting and scaling
     distort entry counts, Section 5.2): decrypt and count. *)
  let answers, cost = evaluate t query in
  List.length answers, cost

let reference_aggregate t direction query =
  extreme direction (leaf_values (reference t query))

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)

(* A full re-host of [doc] under [master], keeping [t]'s constraints,
   scheme kind, cipher and pool; [t]'s observers follow the result. *)
let rehost t ~master doc =
  let next, cost =
    setup ~master ~cipher:t.cipher ?pool:t.pool doc t.constraints t.scheme.Scheme.kind
  in
  supersede t next None;
  next, cost

(* Key rotation: re-host the same document under a fresh master secret
   (new block keys, pads, OPE keys, weights — everything re-derives).
   Old persisted bundles stop authenticating, by construction. *)
let rotate t ~new_master = rehost t ~master:new_master t.doc

let update t edit =
  Log.info (fun m -> m "update: %s; re-hosting" (Update.describe edit));
  let edited = Doc.of_tree (Update.apply t.doc edit) in
  rehost t ~master:t.master edited

(* ------------------------------------------------------------------ *)
(* Incremental delta updates                                           *)

type delta_cost = {
  plan_ms : float;
  reencrypt_ms : float;
  patch_ms : float;
  blocks_touched : int;
  blocks_dropped : int;
  blocks_total : int;
  reencrypted_bytes : int;
  rows_removed : int;
  rows_added : int;
  catalogs_patched : int;
  index_entries_touched : int;
  fell_back : bool;
}

exception Delta_fallback of string

(* The bottom rung of the delta ladder: the always-secure full re-host,
   reported as a fallback in the cost record. *)
let rehost_delta t edit ~plan_ms reason =
  Log.info (fun m -> m "delta update re-hosting instead: %s" reason);
  let t', setup_cost = update t edit in
  ( t',
    { plan_ms;
      reencrypt_ms = setup_cost.encrypt_ms;
      patch_ms = setup_cost.metadata_ms;
      blocks_touched = setup_cost.block_count;
      blocks_dropped = 0;
      blocks_total = setup_cost.block_count;
      reencrypted_bytes = Encrypt.encrypted_bytes (db t');
      rows_removed = 0;
      rows_added = 0;
      catalogs_patched = 0;
      index_entries_touched = 0;
      fell_back = true } )

(* Apply one planned edit by re-encrypting only the touched blocks and
   building the successor hosting from [t] part by part — document,
   database, metadata, server and client each share what the edit did
   not change — instead of re-hosting the whole document.  The fallback
   ladder is explicit: whenever the incremental path cannot be both
   correct and secure (the remapped scheme no longer enforces the SCs,
   attribute/interval space exhausted, a surgery precondition fails),
   it degrades to [update] and says so in the cost record.  Each step
   is a span under [delta.apply] on the hosting's tracer. *)
let apply_plan t (plan : Update.plan) ~plan_ms =
  let keys = Client.keys t.client in
  (* [tracer t] and [server t], not [t.trace] and [t.server]: the
     accessors are the policy-declared safe projections of the handle
     (see lib/analysis/policy.ml). *)
  let span name f = Obs.span (tracer t) name f in
  let started = now_ms () in
  span "delta.apply" @@ fun () ->
  try
    if Array.length plan.Update.new_of_old <> Doc.node_count t.doc then
      invalid_arg "System.apply_plan: plan made against another document";
    let edited = plan.Update.edited in
    let id_in map n = if map.(n) >= 0 then Some map.(n) else None in
    let moved = id_in plan.Update.new_of_old and moved_back = id_in plan.Update.old_of_new in
    let scheme' =
      { t.scheme with Scheme.block_roots = List.filter_map moved t.scheme.Scheme.block_roots }
    in
    (* The remapped scheme must still enforce every SC over the edited
       document — an insert of sensitive content outside all blocks is
       exactly what this catches. *)
    span "delta.enforce" (fun () ->
        match Scheme.enforces edited scheme' t.constraints with
        | Ok () -> ()
        | Error msg -> raise (Delta_fallback ("scheme no longer enforces SCs: " ^ msg)));
    (* Touched = blocks containing an edit site; dropped = blocks whose
       root vanished with a deleted subtree. *)
    let touched_tbl = Hashtbl.create 16 in
    let note n =
      Option.iter (fun id -> Hashtbl.replace touched_tbl id ()) (Encrypt.block_id_of_node t.db n)
    in
    List.iter note (plan.Update.changed_values @ plan.Update.deleted_roots);
    List.iter
      (fun r -> Option.iter (fun p -> Option.iter note (moved_back p)) (Doc.parent edited r))
      plan.Update.inserted_roots;
    let dropped = ref [] in
    let survivors =
      List.filter_map
        (fun b ->
          match moved b.Encrypt.root with
          | None ->
            dropped := (b.Encrypt.id, b.Encrypt.generation) :: !dropped;
            None
          | Some nr -> Some (b, nr))
        t.db.Encrypt.blocks
    in
    let jobs =
      Array.of_list
        (List.filter (fun (b, _) -> Hashtbl.mem touched_tbl b.Encrypt.id) survivors)
    in
    (* The re-encryption span ends with the new database: the touched
       blocks swapped in by id, the skeleton spliced where the edit is
       plaintext. *)
    let (fresh, db'), reencrypt_ms =
      span "delta.reencrypt" (fun () ->
          timed (fun () ->
              let fresh = Encrypt.reencrypt_blocks ?pool:t.pool ~keys edited jobs in
              let fresh_by_id =
                Hashtbl.of_seq (Seq.map (fun b -> b.Encrypt.id, b) (Array.to_seq fresh))
              in
              let swap (b, nr) =
                match Hashtbl.find_opt fresh_by_id b.Encrypt.id with
                | Some fresh_block -> fresh_block
                | None -> if b.Encrypt.root = nr then b else { b with Encrypt.root = nr }
              in
              fresh, Encrypt.patch t.db plan ~scheme:scheme' ~blocks:(List.map swap survivors)))
    in
    let (metadata', change), patch_ms =
      span "delta.patch" (fun () ->
          timed (fun () ->
              Metadata.patch ~keys t.metadata plan ~old_db:t.db ~new_db:db'))
    in
    let server' =
      span "delta.server" (fun () ->
          Server.patch (server t) metadata' change (Encrypt.server_blocks db'))
    in
    let client' = span "delta.client" (fun () -> Client.patch t.client metadata' db') in
    let t' =
      { t with doc = edited; scheme = scheme'; db = db'; metadata = metadata';
               client = client'; server = server'; link = make_link keys server';
               generation = next_generation (); observers = ref [] }
    in
    let rows_removed = List.length change.Metadata.rows_removed in
    let rows_added = List.length change.Metadata.rows_added in
    let event =
      { touched_blocks =
          Array.to_list
            (Array.map
               (fun (b, _) ->
                 b.Encrypt.id, b.Encrypt.generation, b.Encrypt.generation + 1)
               jobs);
        dropped_blocks = List.rev !dropped;
        structural = plan.Update.structural }
    in
    Log.info (fun m ->
        m "delta: %s; %d/%d blocks re-encrypted, %d dropped, %d rows patched"
          (Update.describe plan.Update.edit) (Array.length jobs)
          (List.length t.db.Encrypt.blocks)
          (List.length !dropped)
          (rows_removed + rows_added));
    supersede t t' (Some event);
    ( t',
      { plan_ms;
        reencrypt_ms;
        patch_ms;
        blocks_touched = Array.length jobs;
        blocks_dropped = List.length !dropped;
        blocks_total = List.length t.db.Encrypt.blocks;
        reencrypted_bytes =
          Array.fold_left
            (fun acc b -> acc + String.length b.Encrypt.ciphertext)
            0 fresh;
        rows_removed;
        rows_added;
        catalogs_patched = change.Metadata.catalogs_patched;
        index_entries_touched =
          change.Metadata.index_entries_removed
          + change.Metadata.index_entries_added;
        fell_back = false } )
  with
  | Delta_fallback reason
  | Metadata.Patch_impossible reason
  (* Interval precision exhausted mid-patch falls back too: a fresh
     assignment (which renumbers everything) can absorb layouts the
     incremental gaps cannot. *)
  | Invalid_argument reason ->
    rehost_delta t plan.Update.edit ~plan_ms:(plan_ms +. now_ms () -. started) reason

(* An edit that cannot be planned raises from [Update.delta], before
   any work is done. *)
let apply_delta t edit =
  let started = now_ms () in
  let plan = Update.delta t.doc edit in
  apply_plan t plan ~plan_ms:(now_ms () -. started)

let apply_deltas t edits =
  let t, costs =
    List.fold_left
      (fun (t, costs) edit ->
        let t', cost = apply_delta t edit in
        t', cost :: costs)
      (t, []) edits
  in
  t, List.rev costs
