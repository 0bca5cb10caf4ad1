let log_src = Logs.Src.create "secure.session" ~doc:"Retrying session protocol"

module Log = (val Logs.src_log log_src)

(* Process-wide session counters on Obs.Metric.default (disabled by
   default).  "session.*" is the client view, "session.server.*" the
   endpoint view. *)
module M = struct
  let reg = Obs.Metric.default
  let calls = Obs.Metric.counter reg "session.calls" ~help:"logical calls issued"
  let attempts = Obs.Metric.counter reg "session.attempts" ~help:"frames sent incl. retries"
  let retries = Obs.Metric.counter reg "session.retries" ~help:"retransmissions"
  let timeouts = Obs.Metric.counter reg "session.timeouts" ~help:"attempts lost to drops"
  let tampered = Obs.Metric.counter reg "session.hmac_failures" ~help:"frames failing MAC verification"
  let malformed = Obs.Metric.counter reg "session.malformed" ~help:"unparseable frames"
  let stale = Obs.Metric.counter reg "session.stale" ~help:"frames with the wrong sequence number"
  let gave_up = Obs.Metric.counter reg "session.gave_up" ~help:"calls abandoned after max attempts"
  let retransmitted_bytes = Obs.Metric.counter reg "session.retransmitted_bytes" ~help:"bytes sent again verbatim"
  let served = Obs.Metric.counter reg "session.server.served" ~help:"fresh requests answered"
  let replayed = Obs.Metric.counter reg "session.server.replayed" ~help:"repeats of the last answered request (linkable retransmits)"
  let discarded = Obs.Metric.counter reg "session.server.discarded" ~help:"unauthenticated frames ignored"
end

type error =
  | Timeout
  | Tampered
  | Malformed
  | Stale
  | Gave_up of int
  | Closed

let error_to_string = function
  | Timeout -> "timeout"
  | Tampered -> "tampered"
  | Malformed -> "malformed"
  | Stale -> "stale"
  | Gave_up n -> Printf.sprintf "gave up after %d attempts" n
  | Closed -> "session closed"

(* Simulated backoff before each retry: 10 ms, doubling to a 200 ms cap. *)
let base_backoff_ms = 10.0
let max_backoff_ms = 200.0

type stats = {
  calls : int;
  attempts : int;
  retries : int;
  timeouts : int;
  tampered : int;
  malformed : int;
  stale : int;
  gave_up : int;
  retransmitted_bytes : int;
  backoff_ms : float;
}

let zero_stats =
  { calls = 0; attempts = 0; retries = 0; timeouts = 0; tampered = 0;
    malformed = 0; stale = 0; gave_up = 0; retransmitted_bytes = 0;
    backoff_ms = 0.0 }

let faults_absorbed s = s.timeouts + s.tampered + s.malformed + s.stale

(* --- Frame codec --------------------------------------------------- *)

type kind = Request | Response

let magic = "SXSF1"
let mac_len = 32
let kind_byte = function Request -> '\000' | Response -> '\001'

(* Wire layout: magic | kind | seq (i64 LE) | payload length (i64 LE) |
   payload | HMAC-SHA-256 of everything before it.  Encoding allocates
   the frame once and MACs it in place; decoding verifies the MAC over
   the received bytes in place and copies out only the payload. *)
let header_len = String.length magic + 1 + 8 + 8

let encode_frame ~mac_key ~kind ~seq payload =
  let body_len = header_len + String.length payload in
  let frame = Bytes.create (body_len + mac_len) in
  Bytes.blit_string magic 0 frame 0 (String.length magic);
  Bytes.set frame (String.length magic) (kind_byte kind);
  Bytes.set_int64_le frame (String.length magic + 1) seq;
  Bytes.set_int64_le frame (String.length magic + 9) (Int64.of_int (String.length payload));
  Bytes.blit_string payload 0 frame header_len (String.length payload);
  (* The string view of the frame is only read, during this call. *)
  let tag =
    Crypto.Hmac.mac_slice (Crypto.Hmac.prepare ~key:mac_key) ~prefix:""
      (Bytes.unsafe_to_string frame) 0 body_len
  in
  Bytes.blit_string tag 0 frame body_len mac_len;
  Bytes.unsafe_to_string frame

let decode_frame ~mac_key ~expect ?expect_seq data =
  let magic_len = String.length magic in
  let body_len = String.length data - mac_len in
  (* Structural minimum: magic + kind + seq + payload length + MAC. *)
  if body_len < header_len then Error Malformed
  else if not (String.starts_with ~prefix:magic data) then Error Malformed
  else if
    not
      (Crypto.Eq.constant_time
         (Crypto.Hmac.mac_slice (Crypto.Hmac.prepare ~key:mac_key) ~prefix:"" data 0
            body_len)
         (String.sub data body_len mac_len))
  then Error Tampered
  else begin
    (* MAC verified: the body is exactly what the peer framed, so a
       length that disagrees with it means a protocol bug, not line
       noise — still reported as Malformed rather than accepted. *)
    let seq = String.get_int64_le data (magic_len + 1) in
    let payload_len = Int64.to_int (String.get_int64_le data (magic_len + 9)) in
    if payload_len <> body_len - header_len then Error Malformed
    else if data.[magic_len] <> kind_byte expect then Error Malformed
    else
      match expect_seq with
      | Some want when not (Int64.equal want seq) -> Error Stale
      | Some _ | None -> Ok (seq, String.sub data header_len (body_len - header_len))
  end

(* --- Client -------------------------------------------------------- *)

type t = {
  max_attempts : int;
  mac_key : string;
  transport : Transport.t;
  mutable next_seq : int64;
  mutable st : stats;
  mutable closed : bool;
}

let client ?(max_attempts = 4) ~mac_key transport =
  if max_attempts < 1 then invalid_arg "Session.client: max_attempts < 1";
  { max_attempts; mac_key; transport; next_seq = 0L; st = zero_stats;
    closed = false }

let stats t = t.st

(* Closing is the client-side half of a link teardown: the session
   refuses further calls so a superseding incarnation (fresh endpoint
   with nothing stored, sequence numbers restarted) is the only wire
   path left.  Idempotent; the transport itself holds no state worth
   releasing in this simulation. *)
let close t = t.closed <- true
let closed t = t.closed

let record_fault t = function
  | Timeout ->
    t.st <- { t.st with timeouts = t.st.timeouts + 1 };
    Obs.Metric.incr M.timeouts
  | Tampered ->
    t.st <- { t.st with tampered = t.st.tampered + 1 };
    Obs.Metric.incr M.tampered
  | Malformed ->
    t.st <- { t.st with malformed = t.st.malformed + 1 };
    Obs.Metric.incr M.malformed
  | Stale ->
    t.st <- { t.st with stale = t.st.stale + 1 };
    Obs.Metric.incr M.stale
  | Gave_up _ | Closed -> ()

let call t payload =
  if t.closed then Error Closed
  else begin
  let seq = t.next_seq in
  t.next_seq <- Int64.add seq 1L;
  t.st <- { t.st with calls = t.st.calls + 1 };
  Obs.Metric.incr M.calls;
  let frame = encode_frame ~mac_key:t.mac_key ~kind:Request ~seq payload in
  let backoff = ref base_backoff_ms in
  let rec attempt n =
    if n > t.max_attempts then begin
      t.st <- { t.st with gave_up = t.st.gave_up + 1 };
      Obs.Metric.incr M.gave_up;
      Log.warn (fun m -> m "seq %Ld: gave up after %d attempts" seq t.max_attempts);
      Error (Gave_up t.max_attempts)
    end
    else begin
      if n > 1 then begin
        (* Simulated capped exponential backoff before each retry. *)
        t.st <- { t.st with retries = t.st.retries + 1;
                            retransmitted_bytes =
                              t.st.retransmitted_bytes + String.length frame;
                            backoff_ms = t.st.backoff_ms +. !backoff };
        Obs.Metric.incr M.retries;
        Obs.Metric.add M.retransmitted_bytes (String.length frame);
        backoff := Float.min (!backoff *. 2.0) max_backoff_ms
      end;
      t.st <- { t.st with attempts = t.st.attempts + 1 };
      Obs.Metric.incr M.attempts;
      let outcome =
        match Transport.exchange t.transport frame with
        | exception Transport.Dropped -> Error Timeout
        | resp ->
          Result.map snd
            (decode_frame ~mac_key:t.mac_key ~expect:Response ~expect_seq:seq resp)
      in
      match outcome with
      | Ok payload -> Ok payload
      | Error fault ->
        record_fault t fault;
        Log.debug (fun m ->
            m "seq %Ld attempt %d/%d: %s" seq n t.max_attempts
              (error_to_string fault));
        attempt (n + 1)
    end
  in
  attempt 1
  end

(* --- Server endpoint ----------------------------------------------- *)

type endpoint_stats = {
  served : int;
  replayed : int;
  discarded : int;
}

(* A client retransmits the frame of the one call it has in flight and
   sends nothing new until that call ends, so the last answered request
   frame and its response are the only exchange a retransmit or a
   duplicate can repeat. *)
type endpoint = {
  e_mac_key : string;
  handler : string -> string;
  mutable last : (string * string) option;  (* request frame, response frame *)
  mutable est : endpoint_stats;
}

let endpoint ~mac_key ~handler =
  { e_mac_key = mac_key; handler; last = None;
    est = { served = 0; replayed = 0; discarded = 0 } }

let endpoint_stats e = e.est

let serve e frame =
  match decode_frame ~mac_key:e.e_mac_key ~expect:Request frame with
  | Error _ ->
    (* A real server cannot answer what it cannot authenticate: stay
       silent and let the client time out. *)
    e.est <- { e.est with discarded = e.est.discarded + 1 };
    Obs.Metric.incr M.discarded;
    raise Transport.Dropped
  | Ok (seq, payload) ->
    (match e.last with
     | Some (request, resp) when String.equal request frame ->
       e.est <- { e.est with replayed = e.est.replayed + 1 };
       Obs.Metric.incr M.replayed;
       resp
     | Some _ | None ->
       (match e.handler payload with
        | exception Protocol.Malformed _ ->
          e.est <- { e.est with discarded = e.est.discarded + 1 };
          Obs.Metric.incr M.discarded;
          raise Transport.Dropped
        | answer ->
          let resp = encode_frame ~mac_key:e.e_mac_key ~kind:Response ~seq answer in
          e.last <- Some (frame, resp);
          e.est <- { e.est with served = e.est.served + 1 };
          Obs.Metric.incr M.served;
          resp))
