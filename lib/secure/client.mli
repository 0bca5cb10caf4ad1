(** The data owner's side: query translation and post-processing
    (Sections 6.1 and 6.4).

    The client owns the master key (hence all derived keys and OPESS
    catalogs) and caches the public skeleton it uploaded at setup
    (indexed once).  Per query it (1) translates tags via the Vernam
    pads and value literals via OPESS ranges, (2) decrypts the returned
    blocks and removes decoys, and (3) evaluates the original query
    over the composite "skeleton + decrypted blocks" view
    ({!Composite}) — guaranteeing [Q(δ(Qs(η(D)))) = Q(D)] while doing
    work proportional to the data returned. *)

type t

type answer = Xmlcore.Tree.t
(** An answer subtree (also a decrypted block's payload).  The alias
    lets modules above the client — notably {!module:Engine} — handle
    decrypted material opaquely without referencing the plaintext
    document layer themselves. *)

val create : keys:Crypto.Keys.t -> Metadata.t -> Encrypt.db -> t
(** Build the client state after setup ({!Metadata.build} output plus
    the encrypted database it uploaded). *)

val patch : t -> Metadata.t -> Encrypt.db -> t
(** [patch t meta db] is {!create} [meta db] under [t]'s keys, built
    from [t]: the skeleton's index is shared unless [db]'s skeleton
    differs from the one [t] was built on ({!Encrypt.patch} shares it
    when an edit leaves it alone), and the translation tables are
    rebuilt from [meta]. *)

val keys : t -> Crypto.Keys.t

val decrypt_block : t -> Encrypt.block -> answer
(** Decrypt one block with the client's derived keys (decoys are {e
    not} removed here — {!evaluate_with} ignores them).
    @raise Encrypt.Tampered when authentication fails. *)

val translate : t -> Xpath.Ast.path -> Squery.path
(** Translate a plaintext XPath query into the server IR.
    @raise Invalid_argument for comparisons whose attribute cannot be
    determined (wildcard last step). *)

val aggregate_range : t -> Xpath.Ast.path -> (int64 * int64) option
(** B-tree key range covering the query's output attribute (for MIN/MAX
    evaluation); [None] when the output is not a catalogued leaf
    attribute. *)

val decrypt_blocks : t -> Encrypt.block list -> Xmlcore.Tree.t list
(** Decrypt blocks, removing decoys (exposed so the cost model can time
    decryption separately from post-processing). *)

val evaluate_with :
  t -> decrypted:(int * Xmlcore.Tree.t) list -> Xpath.Ast.path -> Xmlcore.Tree.t list
(** Evaluate the original query over the composite view built from the
    given decrypted blocks; returns answer subtrees in document
    order. *)

val evaluate_union_with :
  t -> decrypted:(int * Xmlcore.Tree.t) list -> Xpath.Ast.path list ->
  Xmlcore.Tree.t list
(** Union query over one composite view: node-level deduplication, so a
    node matched by several branches appears once. *)

val postprocess : t -> blocks:Encrypt.block list -> Xpath.Ast.path -> Xmlcore.Tree.t list
(** {!decrypt_blocks} + {!evaluate_with} in one call. *)
