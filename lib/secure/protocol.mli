(** Wire protocol between client and server (Figure 1's arrows).

    The simulation runs in one process, but the messages that would
    cross the network are materialised as byte strings: the translated
    query [Qs] goes up, the block set comes back.  This keeps the
    boundary honest — the server-side decoder only sees what a real
    server would — and gives the cost model exact message sizes in both
    directions.

    Responses carry block ids, ciphertexts and the decoy flag (which
    the client needs for stripping); the server's internal statistics
    travel alongside for the cost report but would be absent in a
    production deployment. *)

exception Malformed of string
(** The {e only} exception the wire-facing decoders may raise: random,
    truncated or bit-flipped buffers must map here, never to
    [Invalid_argument], [Failure], [Stack_overflow] or an
    out-of-bounds access (fuzzed in [test_protocol]).  Decoders
    bounds-check every read, reject implausible list counts, and cap
    predicate nesting depth. *)

val encode_request : Squery.path -> string
val decode_request : string -> Squery.path
(** @raise Malformed on garbage. *)

(** Every message a server endpoint may receive.  A plain query's first
    byte is its absolute flag ('\000'/'\001'); the mitigation variants
    claim other leading magic bytes, so legacy encodings still decode as
    [Query]. *)
type request =
  | Query of Squery.path
  | Fetch of int list           (** dummy block fetch — cover traffic *)
  | Padded of Squery.path * int list
      (** query plus extra block ids padding the response envelope *)

val encode_fetch : int list -> string
val encode_padded : Squery.path -> int list -> string

val decode_any : string -> request
(** Dispatching decoder used by the server endpoint.
    @raise Malformed on garbage, and on an {!encode_extreme} request
    (as a server that predates it would). *)

(** The MIN/MAX request (Section 6.4): the translated query, the value
    index key range of its output attribute and the direction.  It
    claims its own magic byte rather than a {!request} constructor, so
    matches over {!request} stay exhaustive; the endpoint tries
    {!decode_extreme} before {!decode_any}. *)
type extreme = {
  query : Squery.path;
  key_range : int64 * int64;
  direction : [ `Min | `Max ];
}

val encode_extreme : extreme -> string

val decode_extreme : string -> extreme option
(** [None] when the message is not an extreme request.
    @raise Malformed on an extreme request that does not decode. *)

val encode_response : Server.response -> string
val decode_response : string -> Server.response
(** @raise Malformed on garbage. *)
