(** Reliable request/response sessions over an unreliable {!Transport}.

    Every exchange is framed: a magic tag, a direction marker, a 64-bit
    sequence number, the length-prefixed payload and an HMAC-SHA-256
    trailer under a key derived from the client's master secret
    ({!Crypto.Keys.derive}, label ["session-mac"] — provisioned to the
    service provider at setup time, like the metadata).  The MAC
    authenticates the frame end to end, the sequence number pins a
    response to the request that caused it, and the direction marker
    stops a reflected request from passing as a response.

    {!call} retries on timeout, corruption and stale delivery with
    capped exponential backoff: 10 ms before the first retry, doubling
    to a 200 ms cap.  Backoff time is {e simulated} (counted in
    {!stats}, never slept) to match the repo's modelled-latency cost
    convention; see {!System.link_bytes_per_ms}.

    The server side ({!endpoint}) verifies request frames, discards
    unverifiable ones (raising {!Transport.Dropped}, i.e. silence on
    the wire), and keeps the last exchange it answered: a call is
    synchronous and retransmits its one frame verbatim, so a duplicated
    or retransmitted request is answered from that stored response
    instead of re-evaluated — retries are idempotent by construction. *)

type error =
  | Timeout          (** nothing came back before the (simulated) deadline *)
  | Tampered         (** frame present but its MAC does not verify *)
  | Malformed        (** frame structure unparseable *)
  | Stale            (** authentic frame for the wrong sequence number *)
  | Gave_up of int   (** retries exhausted after this many attempts *)
  | Closed           (** the session was {!close}d; re-establish the link *)

val error_to_string : error -> string

type stats = {
  calls : int;
  attempts : int;             (** transport exchanges, retries included *)
  retries : int;
  timeouts : int;
  tampered : int;
  malformed : int;
  stale : int;
  gave_up : int;              (** calls that exhausted their attempts *)
  retransmitted_bytes : int;  (** request bytes beyond each first attempt *)
  backoff_ms : float;         (** total simulated backoff *)
}

val faults_absorbed : stats -> int
(** Faults survived by retrying: [timeouts + tampered + malformed +
    stale], minus nothing — a fault on the final attempt of a
    [gave_up] call is still counted here. *)

(** {2 Client side} *)

type t

val client : ?max_attempts:int -> mac_key:string -> Transport.t -> t
(** [max_attempts] (default 4, >= 1) is the number of tries per call. *)

val call : t -> string -> (string, error) result
(** [call t payload] runs one framed, verified, retried exchange and
    returns the response payload.  [Error (Gave_up n)] after [n]
    failed attempts; never raises on transport faults. *)

val stats : t -> stats
(** Cumulative; diff around a {!call} for per-call numbers. *)

val close : t -> unit
(** Tear the client side of the session down: every later {!call}
    returns [Error Closed] without touching the transport.  Idempotent.
    Closing the old session before re-establishing a link guarantees no
    frame of the dead incarnation can reach the replacement endpoint —
    the new incarnation starts with no stored exchange and can never be
    handed one by a ghost retransmit (see {!Secure.System.reset_link}). *)

val closed : t -> bool

(** {2 Server side} *)

type endpoint

val endpoint : mac_key:string -> handler:(string -> string) -> endpoint
(** [endpoint ~handler] wraps a raw request handler (payload bytes to
    payload bytes) into a frame handler.  A verified frame byte-equal
    to the last request answered gets that request's response again;
    any other goes to [handler], and its exchange replaces the stored
    one.  [handler] exceptions of type {!Protocol.Malformed} are
    treated as an unanswerable request and dropped, leaving the stored
    exchange as it was. *)

val serve : endpoint -> string -> string
(** Frame handler suitable for {!Transport.loopback}.
    @raise Transport.Dropped on unverifiable or unanswerable frames. *)

type endpoint_stats = {
  served : int;      (** requests evaluated by the handler *)
  replayed : int;    (** repeats of the last answered request, sent its stored response *)
  discarded : int;   (** frames dropped as unverifiable *)
}

val endpoint_stats : endpoint -> endpoint_stats

(** {2 Frame codec} (exposed for tests) *)

type kind = Request | Response

val encode_frame : mac_key:string -> kind:kind -> seq:int64 -> string -> string

val decode_frame :
  mac_key:string -> expect:kind -> ?expect_seq:int64 -> string ->
  (int64 * string, error) result
(** Returns the frame's sequence number and payload.  [Error Stale]
    when [expect_seq] is given and differs; {!Tampered} on MAC
    mismatch; {!Malformed} on structural garbage. *)
