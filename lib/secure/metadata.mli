(** Server-side metadata construction (Section 5).

    From an encrypted database this builds:
    - the {b DSI index table}: token → grouped interval list, where the
      token is the clear tag for plaintext nodes and the Vernam
      ciphertext for nodes inside encryption blocks, and adjacent
      same-tag siblings within one block share a single hull interval
      (Section 5.1.1);
    - the {b encryption block table}: block id → representative
      interval (the block root's interval);
    - the {b value index}: one B-tree per attribute of OPESS ciphertext
      keys (namespaced by the attribute id in their top bits) pointing
      at the block — or, for plaintext leaves, at the leaf's own
      interval;
    - the per-attribute {b OPESS catalogs}, which stay with the client
      (they are the client's value-translation secret).

    The [assignment] (node → interval map) is a client secret too; the
    server only ever receives the table, whose grouping hides the
    correspondence. *)

type target =
  | To_block of int             (** value occurs inside this block *)
  | To_plain of Dsi.Interval.t  (** value at this plaintext leaf *)

type t = {
  assignment : Dsi.Assign.t;
  dsi_table : (string * Dsi.Interval.t list) list;
      (** key = {!token_key}-encoded token *)
  block_table : (int * Dsi.Interval.t) list;
  index : target Btree.t array;
      (** value index: [index.(a)] is the tree of attribute id [a] *)
  catalogs : (string * Opess.t) list;  (** leaf tag → catalog *)
  indexed_tags : string list;          (** attributes present in [index] *)
}

val token_key : Squery.token -> string
(** Injective string encoding of tokens used as DSI-table keys. *)

val build :
  ?pool:Parallel.Pool.t -> keys:Crypto.Keys.t -> Encrypt.db -> t
(** Build the server-side metadata.  When [pool] is given, the
    per-attribute OPESS catalog builds (each owning its own OPE
    instance) fan out across its domains; catalogs merge in sorted-tag
    order so attr ids and output are identical to the sequential
    path. *)

val index_of_entries : (int64 * target) array -> target Btree.t array
(** The value index of entries listed in key order (as
    {!index_entries} lists them): each attribute's contiguous run is
    bulk-loaded where it lies, with no regrouping.
    @raise Invalid_argument on a key whose attribute id is outside
    [\[0, 126\]], or an attribute whose entries are not contiguous. *)

val index_range :
  target Btree.t array -> lo:int64 -> hi:int64 -> (int64 * target) list
(** Entries with [lo <= key <= hi] in key order, read from the trees of
    the attribute ids the bounds span. *)

exception Patch_impossible of string
(** Raised by {!patch} when an edit cannot be absorbed incrementally
    (fresh attribute id space exhausted, or a table row the plan says
    must exist cannot be found); the caller can fall back to a full
    rebuild. *)

type change = {
  rows_removed : (string * Dsi.Interval.t) list;
      (** DSI table rows (token key, interval) recomputed away *)
  rows_added : (string * Dsi.Interval.t) list;  (** DSI table rows added back *)
  catalogs_patched : int;        (** attributes whose catalog was examined *)
  index_entries_removed : int;
      (** old entries of the keys whose entry list changed *)
  index_entries_added : int;
      (** new entries of the keys whose entry list changed *)
}
(** What {!patch} changed on the server's side of the metadata: the
    changelist {!Server.patch} applies.  A value edit changes no row. *)

val patch :
  keys:Crypto.Keys.t ->
  t ->
  Update.plan ->
  old_db:Encrypt.db ->
  new_db:Encrypt.db ->
  t * change
(** [patch ~keys t plan ~old_db ~new_db] absorbs one planned edit
    without rebuilding.  A value edit shares the assignment, the DSI
    table and the block table with [t].  A structural edit keeps every
    surviving node's exact DSI interval (copied through the plan's node
    correspondence), draws inserted subtrees' intervals from the gaps
    calInterval reserved, recomputes the rows of only the parents whose
    child list changed, and regroups only the token keys those rows
    name.  Only attributes whose value multiset changed have their
    OPESS catalog patched (under the same attr id; see {!Opess.patch})
    and, when any of their keys' entry lists changed, their tree
    bulk-loaded afresh from entries listed in key order; every other
    tree is shared with [t].
    Every part equals what a fresh {!build} lists, duplicate order in
    the index included.  [t] is left as it was, so it keeps describing
    the old document.

    A patched assignment is no longer recomputable from the master key;
    persistence stores the interval array
    (see {!Dsi.Assign.of_intervals}). *)

val catalog : t -> tag:string -> Opess.t option

val table_entry_count : t -> int
(** Total intervals across the DSI table (index-size accounting). *)

type index_summary = {
  entries : int;  (** entries across every attribute's tree *)
  height : int;   (** levels of the tallest tree; 1 when all are empty *)
}

val index_summary : t -> index_summary

val index_entries : t -> (int64 * target) list
(** Every value-index entry, in key order. *)

val key_histogram : t -> (int64 * int) list
(** [(key, entries)] for every distinct key, in key order: the value
    distribution the provider sees in the index. *)

val metadata_bytes : t -> int
(** Rough serialized size of all server metadata: every table interval
    (two floats + token) plus every value-index entry (key + target). *)
