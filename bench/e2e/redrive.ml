(* Traced re-drives of the read path, the write path and restart.

   Each function performs the same sequence of public calls as the
   library entry point it mirrors ([System.try_evaluate],
   [Server.answer], [Persist.journal_update], [Persist.journal_open]),
   with a span around every call, so the traced run can say where an
   operation's time went without instrumenting lib/. *)

open Secure

(* ------------------------------------------------------------------ *)
(* Server: Server.answer's forward pass through its exposed primitives *)

let rec forward sp server state origin = function
  | [] -> []
  | step :: rest ->
    let raw = Spans.record sp "server.lookup" (fun () -> Server.lookup server step.Squery.test) in
    let joined =
      Spans.record sp "server.join" (fun () ->
          Server.join_forward server origin step.Squery.axis raw)
    in
    let filtered =
      List.fold_left (predicate sp server state) joined step.Squery.predicates
    in
    Server.register state filtered;
    filtered :: forward sp server state (Some filtered) rest

and predicate sp server state candidates = function
  | Squery.P_and (a, b) ->
    predicate sp server state (predicate sp server state candidates a) b
  | Squery.P_or (a, b) ->
    let left = predicate sp server state candidates a in
    let right = predicate sp server state candidates b in
    let key c = c.Dsi.Interval.lo, c.Dsi.Interval.hi in
    let seen = Hashtbl.create 64 in
    List.iter (fun c -> Hashtbl.replace seen (key c) ()) left;
    left @ List.filter (fun c -> not (Hashtbl.mem seen (key c))) right
  | Squery.P_not inner ->
    ignore (predicate sp server state candidates inner);
    candidates
  | Squery.Exists q -> chain sp server state candidates q None
  | Squery.Value (q, Squery.Unknown) ->
    if q.Squery.steps = [] then candidates else chain sp server state candidates q None
  | Squery.Value (q, Squery.Ranges ranges) ->
    let targets, hits =
      Spans.record sp "server.btree" (fun () -> Server.btree_targets server ranges)
    in
    Server.add_hits state hits;
    if q.Squery.steps = [] then filter sp server candidates targets
    else chain sp server state candidates q (Some targets)

and filter sp server candidates targets =
  Spans.record sp "server.filter" (fun () ->
      Server.filter_by_targets server candidates targets)

(* Forward down the predicate chain, filter the deepest level by the
   value targets, then tighten back up to [candidates]. *)
and chain sp server state candidates q targets =
  let levels = forward sp server state (Some candidates) q.Squery.steps in
  match List.rev levels with
  | [] -> candidates
  | deepest :: _ ->
    let deepest =
      match targets with
      | None -> deepest
      | Some ts -> filter sp server deepest ts
    in
    let uppers = match List.rev (candidates :: levels) with _ :: u -> u | [] -> [] in
    let axes = List.rev_map (fun s -> s.Squery.axis) q.Squery.steps in
    List.fold_left2
      (fun survivors above axis ->
        Spans.record sp "server.join" (fun () ->
            Server.join_backward server above axis survivors))
      deepest uppers axes

(* The response and the number of distinguished (output-node)
   candidates. *)
let answer sp server query =
  let state = Server.new_state () in
  let levels = forward sp server state None query.Squery.steps in
  let distinguished = match List.rev levels with last :: _ -> last | [] -> [] in
  let response =
    Spans.record sp "server.select_blocks" (fun () ->
        Server.select_blocks server ~witnesses:state.Server.witnesses ~distinguished
          ~candidate_intervals:state.Server.touched ~btree_hits:state.Server.hits)
  in
  response, List.length distinguished

(* ------------------------------------------------------------------ *)
(* Read path: System.try_evaluate's round trip                          *)

(* System derives the session MAC key under this label when it builds
   its link. *)
let session_mac_key system =
  Crypto.Keys.derive (Client.keys (System.client system)) "session-mac"

type read = {
  answers : Xmlcore.Tree.t list;
  request : Squery.path;      (* as the server decoded it *)
  response_bytes : string;    (* the encoded response payload *)
  bytes_up : int;
  bytes_down : int;
  decrypted_bytes : int;
  candidate_intervals : int;
  btree_hits : int;
  blocks : int;
  distinguished : int;
}

let verified = function
  | Ok (_, payload) -> payload
  | Error e -> failwith ("session: " ^ Session.error_to_string e)

let read sp ~mac_key ~seq system query =
  let client = System.client system in
  let span name f = Spans.record sp name f in
  let squery = span "client.translate" (fun () -> Client.translate client query) in
  let request = span "protocol.encode_request" (fun () -> Protocol.encode_request squery) in
  let frame =
    span "session.frame" (fun () ->
        Session.encode_frame ~mac_key ~kind:Session.Request ~seq request)
  in
  let payload =
    span "session.verify" (fun () ->
        let payload = verified (Session.decode_frame ~mac_key ~expect:Session.Request frame) in
        (* the endpoint's replay-cache key *)
        ignore (Crypto.Sha256.digest frame);
        payload)
  in
  let decoded =
    span "protocol.decode_request" (fun () ->
        match Protocol.decode_any payload with
        | Protocol.Query q -> q
        | Protocol.Fetch _ | Protocol.Padded _ -> failwith "decoded a non-query request")
  in
  let response, distinguished =
    span "server.answer" (fun () -> answer sp (System.server system) decoded)
  in
  let encoded = span "protocol.encode_response" (fun () -> Protocol.encode_response response) in
  let reply =
    span "session.frame" (fun () ->
        Session.encode_frame ~mac_key ~kind:Session.Response ~seq encoded)
  in
  let reply_payload =
    span "session.verify" (fun () ->
        verified (Session.decode_frame ~mac_key ~expect:Session.Response ~expect_seq:seq reply))
  in
  let shipped = span "protocol.decode_response" (fun () -> Protocol.decode_response reply_payload) in
  let decrypted =
    span "client.decrypt" (fun () ->
        let keys = Client.keys client in
        List.map (fun b -> b.Encrypt.id, Encrypt.decrypt_block ~keys b) shipped.Server.blocks)
  in
  let answers =
    span "client.postprocess" (fun () -> Client.evaluate_with client ~decrypted query)
  in
  { answers;
    request = decoded;
    response_bytes = encoded;
    bytes_up = String.length request;
    bytes_down = shipped.Server.bytes;
    decrypted_bytes =
      List.fold_left
        (fun acc b -> acc + String.length b.Encrypt.ciphertext)
        0 shipped.Server.blocks;
    candidate_intervals = shipped.Server.candidate_intervals;
    btree_hits = shipped.Server.btree_hits;
    blocks = List.length shipped.Server.blocks;
    distinguished }

(* ------------------------------------------------------------------ *)
(* Write path: Persist.journal_update                                   *)

(* Persist.journal_open's default compaction threshold. *)
let compact_threshold = 1 lsl 20

type journal = {
  master : string;
  path : string;
  mutable system : System.t;
  mutable seq : int;
  mutable log_bytes : int;
}

let journal ~master ~path ~seq system = { master; path; system; seq; log_bytes = 0 }

(* The delta cost and the bytes this write appended to the log. *)
let write sp j edit =
  let span name f = Spans.record sp name f in
  let next, cost = span "delta.apply" (fun () -> System.apply_delta j.system edit) in
  let digest =
    span "persist.digest" (fun () -> Persist.doc_digest ~master:j.master (System.doc next))
  in
  j.system <- next;
  j.seq <- j.seq + 1;
  span "persist.append" (fun () ->
      Persist.append_record ~master:j.master j.path { Persist.seq = j.seq; edit; digest });
  let log = Persist.log_path j.path in
  let size = (Unix.stat log).Unix.st_size in
  let appended = size - j.log_bytes in
  j.log_bytes <- size;
  if size > compact_threshold then begin
    span "persist.compact" (fun () ->
        Persist.save ~applied_seq:j.seq next j.path;
        Sys.remove log);
    j.log_bytes <- 0
  end;
  cost, appended

(* ------------------------------------------------------------------ *)
(* Restart: Persist.journal_open                                        *)

(* The recovered system and the number of records replayed. *)
let restart sp ~master path =
  let span name f = Spans.record sp name f in
  let system, applied = span "recover.load" (fun () -> Persist.load_seq ~master path) in
  let records, _tail =
    span "recover.read_log" (fun () ->
        let log = Persist.log_path path in
        if not (Sys.file_exists log) then [], Persist.Log_clean
        else Persist.read_log ~master (In_channel.with_open_bin log In_channel.input_all))
  in
  let pending = List.filter (fun r -> r.Persist.seq > applied) records in
  let system =
    span "recover.replay" (fun () ->
        List.fold_left
          (fun system r ->
            let next, (_ : System.delta_cost) = System.apply_delta system r.Persist.edit in
            if
              not
                (Crypto.Eq.constant_time
                   (Persist.doc_digest ~master (System.doc next))
                   r.Persist.digest)
            then failwith (Printf.sprintf "replay diverged at seq %d" r.Persist.seq);
            next)
          system pending)
  in
  system, List.length pending
