(** Inference passes the simulated honest-but-curious server runs over
    the query trace: the leakage ledger's rounds, oldest first
    ({!Obs.Ledger.rounds}).  Every field a pass reads is a wire fact the
    server already holds — response sizes, shipped-block access
    patterns, the endpoint's replays.

    Each pass emits one finding per inferable fact, carrying the
    candidate-set size the adversary achieves for it and a hop-by-hop
    evidence witness (the style of the lint layer's secret-flow
    findings): which rounds were observed, what statistic was computed,
    and how the candidate set collapsed.  Larger candidate sets are
    better for the data owner — the paper's theorems are exactly lower
    bounds on them (Theorem 4.1 for structure, 5.1/5.2 for OPESS
    values), and {!Budget} turns declared minimums into a gate. *)

type finding = {
  pass : string;      (** fact class: the emitting pass's name *)
  subject : string;   (** what the candidate set is about, e.g. ["block 12"] *)
  candidates : int;   (** candidate-set size achieved (1 = pinned) *)
  witness : string list;  (** hop-by-hop evidence, one hop per line *)
}

val frequency : ?census:(string * int) list -> Obs.Ledger.round list -> finding list
(** Frequency analysis over the block-fetch histogram (the Theorem 4.1
    channel): blocks shipped equally often are indistinguishable, so a
    block's candidate set is its frequency class.  [census] is
    known-plaintext auxiliary data — [(tag, expected fetch count)]
    pairs for the known tag universe; when given, a block's candidate
    set is the census tags matching its observed count (an empty match
    falls back to the frequency class).

    Like every pass, the histogram is computed over query rounds only:
    the server decodes requests, so it discards distinguishable cover
    traffic (label ["fetch"]) before computing statistics. *)

val size : Obs.Ledger.round list -> finding list
(** Size/interval analysis against OPESS chunk displacements (the
    Theorem 5.1/5.2 channel): rounds with the same
    (response bytes, blocks returned) fingerprint are indistinguishable;
    a round's candidate set is its fingerprint class.  Cover-traffic
    rounds (label ["fetch"]) carry no query and are skipped.  The
    witness cites each round's timing rank: its response size ranked
    among {e all} rounds, cover fetches included (transmission
    dominates latency at a fixed link speed, so this is the order an
    adversary with a stopwatch would see, computed deterministically). *)

val cooccurrence : Obs.Ledger.round list -> finding list
(** Co-occurrence clustering across rounds: blocks shipped by exactly
    the same set of query rounds cannot be told apart; a block's
    candidate set is its round-membership class. *)

val linkability : Obs.Ledger.round list -> finding list
(** Replay-linked retransmits (the ledger's [replays] column): a
    replayed frame links a retransmitted frame to its original with
    certainty — candidate set 1, by construction.  No pass counts
    repeated {e requests}: the ledger does not record request bytes. *)

val run_all : Obs.Ledger.round list -> finding list
(** All four passes, in the order above. *)

val render : finding -> string
(** Multi-line: header then indented witness hops. *)
