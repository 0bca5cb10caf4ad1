(** Caching evaluation engine over the paper's protocol.

    Sits between {!Secure.System} (hosting lifecycle) and the
    {!Secure.Server} / {!Secure.Client} pair.  A read is the protocol's
    own round — translate, {!Secure.Server.answer}, decrypt,
    post-process — with two caches in it:

    - {e result memo}: wire request -> the server's response (server
      side);
    - {e block cache}: (block id, generation) -> decrypted subtree
      (client side).

    Every cache key is a ciphertext artifact the server already
    observes (the encoded request of Vernam tokens and OPESS ranges, or
    a block id and its content generation); plaintext never reaches a
    key.  With both capacities 0 a read ships exactly what
    {!Secure.System.evaluate} ships.

    The engine follows its hosting through
    {!Secure.System.on_succession}: whoever supersedes the bound
    hosting — {!Secure.System.update}, {!Secure.System.rotate},
    {!Secure.System.apply_delta}, or {!Secure.Persist.journal_update}
    over them — the engine invalidates and re-binds to the successor.
    A full re-host flushes both caches, so answers afterwards are
    computed against fresh artifacts only.  A delta invalidates
    selectively: the result memo is flushed, but the decrypted subtrees
    of untouched blocks stay warm — only the superseded (id,
    generation) entries are dropped — and no counters reset (their
    survival across the update is part of the contract, pinned by the
    cache-survival test).  See docs/SECURITY.md ("What the engine's
    caches add") for the leakage analysis. *)

module Lru = Lru
module Stats = Stats

type config = {
  result_capacity : int;
  block_capacity : int;
}
(** Capacity 0 turns a cache off: every lookup is a counted miss. *)

val default_config : config
(** Capacities 64 / 256. *)

type outcome =
  | Hit
  | Miss

val outcome_to_string : outcome -> string

type t

val create : ?config:config -> Secure.System.t -> t
(** Bind an engine to a hosting and follow its successors. *)

val system : t -> Secure.System.t
(** The hosting currently bound: the latest successor of the one the
    engine was created on. *)

val wire_request : t -> Xpath.Ast.path -> string
(** The ciphertext request encoding used as the result-memo key —
    exactly {!Secure.Protocol.encode_request} of the translated query,
    exposed so tests can assert the engine keys on nothing else. *)

type report = {
  result_outcome : outcome;
  request_bytes : int;
  block_hits : int;       (** blocks served from the client cache *)
  block_misses : int;     (** blocks shipped and decrypted *)
  translate_ms : float;
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
(** One full round trip: result memo or {!Secure.Server.answer}, block
    cache or decryption, post-processing, and the round's ledger row.
    Answers are exact (identical to {!Secure.System.evaluate}'s) for
    any capacities: the client re-evaluates the original query over the
    decrypted view. *)

val evaluate : t -> Xpath.Ast.path -> Secure.Client.answer list

val stats : t -> Stats.t
(** Snapshot of the current hosting generation's counters.  A rehost
    empties both caches and resets every counter except
    [invalidations], which counts generations this engine outlived. *)
