(** The untrusted server's query engine (Section 6.2).

    The server stores only what {!create} receives: the DSI index
    table, the encryption block table, the value index (one B-tree per
    attribute) and the ciphertext blocks.  Answering a translated query proceeds exactly
    as the paper's three steps:

    + look up every query node's token(s) in the DSI table and prune
      the interval lists with structural joins along the query tree
      (with back-propagation through predicate chains);
    + resolve each value constraint through the value index into a set of
      allowed targets (blocks or plaintext leaves) and prune the
      constrained node's intervals against it;
    + map the surviving intervals to the encryption blocks that must be
      shipped: every block whose representative interval contains or
      equals a surviving interval, plus every block lying inside a
      surviving interval of the distinguished (output) node — those are
      needed to reconstruct answers whose subtrees contain nested
      blocks.

    The response is a superset of what the query needs (false positives
    are filtered by the client), never a subset.

    All three steps run on {!Xmlcore.Forest} over the DSI table's
    containment forest ({!Dsi.Universe}), built once by {!create}: every
    table row and block representative is a node set, so a step costs
    its inputs and never the rest of the universe. *)

type t

type response = {
  blocks : Encrypt.block list;   (** ciphertexts shipped to the client *)
  bytes : int;                   (** transmission size, headers included *)
  candidate_intervals : int;     (** intervals surviving per query node, summed *)
  btree_hits : int;              (** value-index entries touched *)
}

val create :
  ?trace:Obs.Trace.t ->
  dsi_table:(string * Dsi.Interval.t list) list ->
  block_table:(int * Dsi.Interval.t) list ->
  index:Metadata.target Btree.t array ->
  blocks:Encrypt.block list ->
  unit ->
  t
(** [?trace] injects a tracer for the server's evaluation spans
    ([server.answer] → [server.prune], [server.select_blocks]); without
    it a disabled tracer is used and spans cost one boolean test.
    @raise Invalid_argument when a block representative is not one of
    the DSI table's intervals (every block root has its own row). *)

val of_metadata : ?trace:Obs.Trace.t -> Metadata.t -> Encrypt.block list -> t
(** Convenience constructor from the server-visible halves: the
    (declassified) metadata tables and the ciphertext blocks, as
    produced by {!Encrypt.server_blocks}.  The server never receives
    an {!Encrypt.db} — that record keeps the plaintext document. *)

val patch : t -> Metadata.t -> Metadata.change -> Encrypt.block list -> t
(** [patch t meta change blocks] is the server of the patched metadata
    [meta] and the successor's blocks, built from [t] part by part: a
    value edit (no row changed) shares the token table, its universe
    and the block representatives and swaps blocks and trees; a
    structural edit merges its rows into the universe
    ({!Dsi.Universe.patch}) and renumbers every row it does not name.
    The result answers, byte for byte, as {!of_metadata} [meta blocks]
    does; [t] is left as it was.
    @raise Invalid_argument when the changelist does not describe [t]. *)

val answer : t -> Squery.path -> response

val answer_extreme :
  t -> Squery.path -> key_range:(int64 * int64) -> direction:[ `Min | `Max ] ->
  response
(** MIN/MAX evaluation (Section 6.4): finds the extreme value-index
    entry in [key_range] compatible with the query's distinguished
    candidates and ships at most that one block.  Plaintext candidates
    need no shipping — they are in the skeleton.  The client combines
    both sides. *)

type step_report = {
  step_index : int;
  axis : Xpath.Ast.axis;
  raw_candidates : int;       (** intervals fetched from the DSI table *)
  surviving_candidates : int; (** after joins and predicate filtering *)
}

val explain : t -> Squery.path -> step_report list
(** Query-plan introspection: per main-chain step, how many intervals
    the token lookup produced and how many survived structural joins
    and predicate filtering.  Evaluation work is the same as
    {!answer}'s pruning phase; no blocks are selected. *)

type plan = {
  pivot : int;
      (** a step whose seed is tightened first and back-propagated to
          the earlier steps' seeds; [0] evaluates left to right *)
  hoisted : int list;
      (** the pivot's predicates applied before back-propagation (self
          value-range predicates only; others stay in place) *)
  order : int -> int -> int list;
      (** [order step count]: the order a step's predicates apply in *)
}
(** The inputs an evaluation plan ({!module:Engine}) gives the forward
    pass.  A plan changes only the order work happens in: the pivot's
    back-propagation removes only candidates with no successor, so the
    shipped blocks stay a superset of what the client needs. *)

val answer_planned : t -> plan -> Squery.path -> response * step_report list
(** {!answer} under a plan, with each main-chain step's seed size
    (after any tightening) and survivor count.  No [server.answer]
    span and no answer counters: the caller accounts for the round. *)

val all_blocks : t -> Encrypt.block list
(** Everything — the naive method's response. *)

val block_ids : t -> int list
(** Ids of every stored block, sorted — the block universe a padding
    envelope draws from.  Block ids are already server-visible. *)

val fetch : t -> int list -> response
(** Cover traffic ({!Protocol.Fetch}): ship the requested blocks
    verbatim, unknown ids skipped.  No index work is done
    ([candidate_intervals] and [btree_hits] are 0). *)

val answer_padded : t -> Squery.path -> extra:int list -> response
(** {!answer} widened with the requested pad blocks
    ({!Protocol.Padded}).  The shipment remains a superset of the
    honest answer, so client-side filtering yields byte-identical
    answers; only the traffic shape changes. *)

val stored_bytes : t -> int
(** Ciphertext bytes held by the server (headers included). *)

val test_count : t -> Squery.test -> int
(** Candidate count of a test without materialising the token merge —
    the planner's selectivity input.  Multi-token sums may
    double-count; exact for the common single-token case. *)

(** {1 List adaptors}

    {!answer}'s building blocks over interval lists.  They exist only so
    that [bench/e2e/redrive.ml] can re-drive {!answer}'s forward pass
    with a span around every call and check that its encoded response
    equals {!answer}'s byte for byte.  Each converts its lists to
    universe positions, calls the same code {!answer} runs, and converts
    back; none holds a join of its own.  Intervals that are not DSI
    table entries are dropped on the way in. *)

type eval_state = {
  mutable touched : int;
      (** surviving intervals, summed over query nodes *)
  mutable hits : int;  (** B-tree entries touched *)
  mutable witnesses : Dsi.Interval.t list;
      (** every surviving interval, for block selection *)
}

val new_state : unit -> eval_state

val add_hits : eval_state -> int -> unit

val register : eval_state -> Dsi.Interval.t list -> unit
(** Record a step's survivors: counts them and adds them to the
    witness set. *)

val lookup : t -> Squery.test -> Dsi.Interval.t list
(** DSI-table intervals of a test, sorted by lower endpoint and
    duplicate-free. *)

val join_forward :
  t -> Dsi.Interval.t list option -> Xpath.Ast.axis -> Dsi.Interval.t list ->
  Dsi.Interval.t list
(** Prune a step's raw candidates against the surviving origin set
    ([None] is the virtual document node of an absolute path). *)

val join_backward :
  t -> Dsi.Interval.t list -> Xpath.Ast.axis -> Dsi.Interval.t list ->
  Dsi.Interval.t list
(** Tighten an origin set to the members with a surviving successor —
    the sound direction for pre-applying a selective later step. *)

val btree_targets :
  t -> (int64 * int64) list -> Metadata.target list * int
(** Allowed targets of a value constraint (union of B-tree range
    scans) and the number of entries touched. *)

val filter_by_targets :
  t -> Dsi.Interval.t list -> Metadata.target list -> Dsi.Interval.t list
(** Keep candidates compatible with at least one allowed target. *)

val select_blocks :
  t ->
  witnesses:Dsi.Interval.t list ->
  distinguished:Dsi.Interval.t list ->
  candidate_intervals:int ->
  btree_hits:int ->
  response
(** Step 3 of {!answer}: map surviving intervals to the blocks that
    must ship (representative covers a witness, or representative lies
    inside a distinguished interval). *)

type index_stats = {
  btree_entries : int;          (** value-index size *)
  key_lo : int64 option;        (** smallest OPESS key present *)
  key_hi : int64 option;        (** largest OPESS key present *)
  table_tokens : int;           (** distinct DSI-table entries *)
  universe_intervals : int;     (** total intervals across all entries *)
  block_count : int;
}

val index_stats : t -> index_stats
(** Summary of the server-visible metadata; everything a cost model may
    read is derived from what the server already stores. *)
