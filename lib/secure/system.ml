module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree

let log_src = Logs.Src.create "secure.system" ~doc:"Hosted-system lifecycle"

module Log = (val Logs.src_log log_src)

(* Process-wide system counters on Obs.Metric.default (disabled by
   default).  [system.degraded] makes naive fallbacks visible to
   operators without tracing: before it existed a degraded query was
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
   endpoint wraps the server's answering functions, and is their only
   caller in the library but the engine's cache miss. *)
type link = {
  transport : Transport.t;
  session : Session.t;
  endpoint : Session.endpoint;
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

let make_link ?max_attempts ?faults keys server =
  let mac_key = Crypto.Keys.derive keys session_mac_label in
  let handler request =
    let response =
      match Protocol.decode_extreme request with
      | Some { Protocol.query; key_range; direction } ->
        Server.answer_extreme server query ~key_range ~direction
      | None ->
        (match Protocol.decode_any request with
         | Protocol.Query q -> Server.answer server q
         | Protocol.Fetch ids -> Server.fetch server ids
         | Protocol.Padded (q, extra) -> Server.answer_padded server q ~extra)
    in
    Protocol.encode_response response
  in
  let endpoint = Session.endpoint ~mac_key ~handler in
  let transport = Transport.loopback (Session.serve endpoint) in
  let transport =
    match faults with
    | None -> transport
    | Some (profile, seed) -> Transport.faulty ~profile ~seed transport
  in
  { transport; session = Session.client ?max_attempts ~mac_key transport; endpoint }

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
let with_faults ?max_attempts ~profile ~seed t =
  let keys = Crypto.Keys.create ~suite:t.cipher ~master:t.master () in
  { t with link = make_link ?max_attempts ~faults:(profile, seed) keys t.server }

(* Link incarnation boundary: close the old session (it refuses further
   calls) and build a fresh link — new client sequence numbers, new
   endpoint, and therefore *no* stored exchange to replay.  Without the
   close, a caller still holding the old record could keep feeding the
   dead incarnation's endpoint and make replay accounting lie across
   the teardown; with it, the two incarnations are observably disjoint. *)
let reset_link ?max_attempts ?faults t =
  Session.close t.link.session;
  Obs.Metric.incr M.relinks;
  let keys = Crypto.Keys.create ~suite:t.cipher ~master:t.master () in
  { t with link = make_link ?max_attempts ?faults keys t.server }

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
(* Reads                                                               *)

(* Every read is one Figure 1 exchange over the link: the client
   translates, the server prunes and ships blocks, the client decrypts
   and post-processes.  The request kinds differ only in what they send
   and how the client evaluates the shipment; the round ([ship]), the
   client step ([deliver]), the ledger row ([record]) and the cost
   record ([cost_of]) exist once. *)

type request =
  | Query of Xpath.Ast.path
  | Union of Xpath.Ast.path list
  | Padded of Xpath.Ast.path * int list
  | Extreme of [ `Min | `Max ] * Xpath.Ast.path
  | Naive of Xpath.Ast.path
  | Fetch of int list

type reply = {
  answers : Tree.t list;
  cost : cost;
}

exception Unavailable of Session.error

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

(* The shipment before its first response. *)
let nothing =
  { bytes_up = 0; bytes_down = 0; intervals_touched = 0; btree_hits = 0;
    blocks = []; server_ms = 0.0; attempts = 1; retransmitted_bytes = 0;
    faults_absorbed = 0; replays = 0; degraded = false }

let add ~bytes_up s (r : Server.response) =
  { s with
    bytes_up = s.bytes_up + bytes_up;
    bytes_down = s.bytes_down + r.Server.bytes;
    intervals_touched = s.intervals_touched + r.Server.candidate_intervals;
    btree_hits = s.btree_hits + r.Server.btree_hits;
    blocks = s.blocks @ r.Server.blocks }

(* Session counters around a group of calls.  The replays the
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
   surviving fault schedule the caller must never crash.  The session
   counters are taken from [before], by default the round's start. *)
let ship ?before t requests =
  Obs.span t.trace "wire.exchange" @@ fun () ->
  let before = match before with Some b -> b | None -> snapshot t.link in
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
   worker (a tenant group of [Serve]) the nested map degrades to
   sequential on that worker — correct either way. *)
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
  { answers;
    cost = cost_of s ~translate_ms ~decrypt_ms ~postprocess_ms ~answers:(List.length answers) }

let answers_of t query decrypted = Client.evaluate_with t.client ~decrypted query

let wire_read t ~label ~translate_ms requests eval =
  Result.map (fun s -> deliver t ~label ~translate_ms s eval) (ship t requests)

let query_read t ~label query encode =
  let squery, translate_ms = translate t query in
  wire_read t ~label ~translate_ms [ encode squery ] (answers_of t query)

(* The ids of every hosted block, from the client's own record of the
   hosting. *)
let block_ids t = List.sort compare (ids_of t.db.Encrypt.blocks)

(* A fetch of every hosted block, evaluated on the client: the naive
   read, and the rung [evaluate] falls back on. *)
let naive ?before ?(degraded = false) t ~label query =
  Result.map
    (fun s -> deliver t ~label ~translate_ms:0.0 { s with degraded } (answers_of t query))
    (ship ?before t [ Protocol.encode_fetch (block_ids t) ])

(* Compare values the way predicate evaluation does: numerically when
   both sides parse as numbers. *)
let value_compare a b =
  match float_of_string_opt a, float_of_string_opt b with
  | Some x, Some y -> Float.compare x y
  | Some _, None | None, Some _ | None, None -> String.compare a b

(* The leaf answer holding the [direction]-most value, with that value;
   ties go to the first in document order. *)
let extreme direction trees =
  let better ((a, _) as x) ((b, _) as y) =
    match direction with
    | `Min -> if value_compare a b <= 0 then x else y
    | `Max -> if value_compare a b >= 0 then x else y
  in
  let leaf = function
    | Tree.Element (_, [ Tree.Text v ]) as tree -> Some (v, tree)
    | Tree.Element _ | Tree.Text _ -> None
  in
  match List.filter_map leaf trees with
  | [] -> None
  | x :: rest -> Some (List.fold_left better x rest)

let read t = function
  | Query query ->
    Obs.span t.trace "system.evaluate" @@ fun () ->
    query_read t ~label:"evaluate" query Protocol.encode_request
  | Padded (query, extra) ->
    (* The shipment is widened to the requested envelope but stays a
       superset of the honest answer, and client-side filtering is
       superset-tolerant, so answers are those of the unpadded read. *)
    Obs.span t.trace "system.evaluate_padded" @@ fun () ->
    query_read t ~label:"padded" query (fun squery -> Protocol.encode_padded squery extra)
  | Union queries ->
    (* One server round per branch, one combined block set (a block two
       branches share ships twice but decrypts once), one client-side
       union evaluation (node-level dedup). *)
    Obs.span t.trace "system.evaluate_union" @@ fun () ->
    let translated = List.map (translate t) queries in
    let translate_ms = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 translated in
    Result.map
      (fun s ->
        let blocks =
          List.sort_uniq (fun a b -> Int.compare a.Encrypt.id b.Encrypt.id) s.blocks
        in
        deliver t ~label:"union" ~translate_ms { s with blocks } (fun decrypted ->
            Client.evaluate_union_with t.client ~decrypted queries))
      (ship t (List.map (fun (squery, _) -> Protocol.encode_request squery) translated))
  | Extreme (direction, query) ->
    Obs.span t.trace "system.aggregate" @@ fun () ->
    let squery, translate_ms = translate t query in
    (* The no-decryption fast path needs the server's candidate set to
       be exact, which structural joins guarantee only in the absence
       of value predicates (those are resolved at block granularity and
       may admit false positives under coarse schemes).  Otherwise the
       query round runs and the client aggregates; its cost is then the
       query round's. *)
    let range =
      if Squery.has_value_predicate squery then None
      else Client.aggregate_range t.client query
    in
    let label, request =
      match range with
      | None -> "evaluate", Protocol.encode_request squery
      | Some key_range ->
        "aggregate", Protocol.encode_extreme { Protocol.query = squery; key_range; direction }
    in
    Result.map
      (fun r ->
        let answers = Option.to_list (Option.map snd (extreme direction r.answers)) in
        { answers;
          cost =
            (match range with
             | None -> r.cost
             | Some _ -> { r.cost with answer_count = List.length answers }) })
      (wire_read t ~label ~translate_ms [ request ] (answers_of t query))
  | Naive query ->
    Obs.span t.trace "system.naive_evaluate" @@ fun () -> naive t ~label:"naive" query
  | Fetch ids ->
    (* Cover traffic: the blocks are discarded undecrypted — only the
       traffic shape matters, so the cost carries no decrypt or
       post-processing time and no answers. *)
    Obs.span t.trace "system.fetch" @@ fun () ->
    Result.map
      (fun s ->
        record t "fetch" s;
        { answers = [];
          cost = cost_of s ~translate_ms:0.0 ~decrypt_ms:0.0 ~postprocess_ms:0.0 ~answers:0 })
      (ship t [ Protocol.encode_fetch ids ])

(* The degradation rung: when the query round gives up, one naive round
   over the same link, which the server sees as a fetch of every block.
   Its row and cost also carry what the failed round cost the session.
   When that round fails too, nothing is left to try. *)
let evaluate t query =
  let before = snapshot t.link in
  match read t (Query query) with
  | Ok r -> r.answers, r.cost
  | Error err ->
    Log.warn (fun m ->
        m "query round failed (%s): degrading to a naive read" (Session.error_to_string err));
    (match
       Obs.span t.trace "system.degraded" @@ fun () ->
       naive ~before ~degraded:true t ~label:"degraded" query
     with
     | Ok r ->
       Obs.Metric.incr M.degraded;
       r.answers, r.cost
     | Error err -> raise (Unavailable err))

let reference_union t queries =
  List.map (fun n -> Doc.subtree t.doc n) (Xpath.Eval.eval_union t.doc queries)

let reference t query =
  List.map (fun n -> Doc.subtree t.doc n) (Xpath.Eval.eval t.doc query)

let reference_aggregate t direction query =
  Option.map fst (extreme direction (reference t query))

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
  let edited = Update.apply_all t.doc [ edit ] in
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
