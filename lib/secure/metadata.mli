(** Server-side metadata construction (Section 5).

    From an encrypted database this builds:
    - the {b DSI index table}: token → grouped interval list, where the
      token is the clear tag for plaintext nodes and the Vernam
      ciphertext for nodes inside encryption blocks, and adjacent
      same-tag siblings within one block share a single hull interval
      (Section 5.1.1);
    - the {b encryption block table}: block id → representative
      interval (the block root's interval);
    - the {b value index}: one global B-tree of OPESS ciphertext keys
      (namespaced per attribute) pointing at the block — or, for
      plaintext leaves, at the leaf's own interval;
    - the per-attribute {b OPESS catalogs}, which stay with the client
      (they are the client's value-translation secret).

    The [assignment] (node → interval map) is a client secret too; the
    server only ever receives the table, whose grouping hides the
    correspondence. *)

type target =
  | To_block of int             (** value occurs inside this block *)
  | To_plain of Dsi.Interval.t  (** value at this plaintext leaf *)

type index_policy =
  | All_leaves      (** index every leaf attribute (default) *)
  | Encrypted_only
      (** index only attributes occurring inside encryption blocks;
          queries over plaintext-only attributes then prune nothing on
          the server and are filtered client-side — smaller metadata
          for a measurable query-cost trade (E8 ablation) *)

type t = {
  assignment : Dsi.Assign.t;
  dsi_table : (string * Dsi.Interval.t list) list;
      (** key = {!token_key}-encoded token *)
  block_table : (int * Dsi.Interval.t) list;
  btree : target Btree.t;
  catalogs : (string * Opess.t) list;  (** leaf tag → catalog *)
  indexed_tags : string list;          (** attributes present in [btree] *)
}

val token_key : Squery.token -> string
(** Injective string encoding of tokens used as DSI-table keys. *)

val build :
  ?pool:Parallel.Pool.t -> keys:Crypto.Keys.t -> ?policy:index_policy -> Encrypt.db -> t
(** Build the server-side metadata.  When [pool] is given, the
    per-attribute OPESS catalog builds (each owning its own OPE
    instance) fan out across its domains; catalogs merge in sorted-tag
    order so attr ids and output are identical to the sequential
    path. *)

exception Patch_impossible of string
(** Raised by {!patch} when an edit cannot be absorbed incrementally
    (fresh attribute id space exhausted, or a table row the plan says
    must exist cannot be found).  {!patch} raises before mutating
    anything, so the caller can fall back to a full rebuild. *)

type patch_stats = {
  rows_removed : int;            (** DSI table rows recomputed away *)
  rows_added : int;              (** DSI table rows added back *)
  catalogs_patched : int;        (** attributes whose catalog was examined *)
  index_entries_removed : int;   (** B-tree entries deleted *)
  index_entries_added : int;     (** B-tree entries inserted *)
}

val patch :
  keys:Crypto.Keys.t ->
  ?policy:index_policy ->
  t ->
  Update.plan ->
  old_db:Encrypt.db ->
  new_db:Encrypt.db ->
  t * patch_stats
(** [patch ~keys t plan ~old_db ~new_db] absorbs one planned edit
    without rebuilding: surviving nodes keep their exact DSI intervals
    (copied through the plan's node correspondence), inserted subtrees
    draw intervals from the gaps calInterval reserved, only the parents
    whose child list changed have their DSI-table rows recomputed, and
    only attributes whose value multiset changed have their OPESS
    catalog patched (under the same attr id; see {!Opess.patch}) and
    their B-tree namespace diffed key by key: a key whose entry list
    changed is deleted and re-inserted in document order, every other
    key is left alone.  The tree's entries — duplicate order included —
    equal those of a fresh {!build}.

    The B-tree is mutated {e in place} — the input [t] must be
    considered consumed on success.  On [Patch_impossible] or
    [Invalid_argument] (interval precision exhausted) nothing has been
    mutated and [t] remains valid.

    A patched assignment is no longer recomputable from the master key;
    persistence stores the interval array
    (see {!Dsi.Assign.of_intervals}). *)

val catalog : t -> tag:string -> Opess.t option

val table_entry_count : t -> int
(** Total intervals across the DSI table (index-size accounting). *)

val btree_entry_count : t -> int

val metadata_bytes : t -> int
(** Rough serialized size of all server metadata: every table interval
    (two floats + token) plus every B-tree entry (key + target). *)
