(** Leakage ledger: per query round, the facts the service provider's
    side of the wire can observe.

    Theorem 6.1 bounds what the server learns about {e which sensitive
    facts hold}; everything in this ledger is the complementary
    channel — access patterns and traffic shape — that the paper
    explicitly leaves unhidden.  Every field is derived from data the
    server already holds or sees: wire bytes, DSI intervals surviving
    structural joins, B-tree entries touched, ciphertext blocks
    shipped, cache outcomes keyed on ciphertext artifacts, and the
    session endpoint's replays (retransmitted frames are byte-identical,
    so the server links them with certainty; see docs/SECURITY.md).

    The ledger is bounded: once [capacity] rounds are held the oldest
    round is dropped (totals keep accumulating).  Recording on a
    disabled ledger is a no-op. *)

type round = {
  seq : int;                (** 1-based recording order, 0 until recorded *)
  label : string;           (** protocol path: "evaluate", "naive", ... *)
  bytes_up : int;           (** request bytes put on the wire *)
  bytes_down : int;         (** response bytes taken off the wire *)
  intervals_touched : int;  (** DSI intervals surviving per query node, summed *)
  btree_hits : int;         (** value-index entries touched *)
  blocks_returned : int;    (** candidate blocks shipped *)
  block_ids : int list;     (** ids of the shipped blocks, in shipping order —
                                the access pattern an adversary replays *)
  cache_hits : int;         (** ciphertext-keyed cache hits this round *)
  cache_misses : int;
  attempts : int;           (** session attempts the round needed (1 = clean) *)
  replays : int;            (** retransmitted frames the server linked *)
  degraded : bool;          (** the naive fallback answered *)
}

val round :
  ?bytes_up:int -> ?bytes_down:int -> ?intervals_touched:int -> ?btree_hits:int ->
  ?blocks_returned:int -> ?block_ids:int list -> ?cache_hits:int ->
  ?cache_misses:int -> ?attempts:int ->
  ?replays:int -> ?degraded:bool -> string -> round
(** Build a round with every numeric field defaulting to 0 ([attempts]
    to 1) and [degraded] to false; the argument is the label. *)

type t

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** Disabled unless [~enabled:true]; keeps the last [capacity] rounds
    (default 1024). *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val record : t -> round -> unit
(** Append one round (its [seq] is assigned by the ledger). *)

val rounds : t -> round list
(** Retained rounds, oldest first. *)

val count : t -> int
(** Rounds ever recorded (including any dropped by the capacity bound). *)

val totals : t -> round
(** Field-wise sums over every round ever recorded, labelled
    ["totals"]; [degraded] is true when any round degraded, [attempts]
    sums. *)

val clear : t -> unit

val to_json : t -> Json.t
val round_to_json : round -> Json.t

val of_json : Json.t -> (t, string) result
(** Parse a ledger printed by {!to_json} for offline replay (the
    [sxq attack --trace] path).  The reconstruction is exact:
    [to_json (of_json j)] equals [j] structurally — held rounds keep
    their recorded sequence numbers, [count] comes from the totals row,
    and sums are taken as printed.  The returned ledger is disabled
    (recording into a replayed trace would corrupt it). *)

val round_of_json : Json.t -> (round, string) result

val render : t -> string
