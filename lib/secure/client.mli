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
(** An answer subtree.  The alias lets modules above the client —
    notably {!module:Engine} — handle answers opaquely without
    referencing the plaintext document layer themselves. *)

type decrypted = Xmlcore.Doc.t
(** A decrypted block: its subtree, decoy removed, in the indexed form
    post-processing navigates.  Like {!answer}, an alias that lets the
    engine's block cache hold decrypted blocks without naming the
    plaintext document layer. *)

val create : keys:Crypto.Keys.t -> Metadata.t -> Encrypt.db -> t
(** Build the client state after setup ({!Metadata.build} output plus
    the encrypted database it uploaded).  This derives the IV of every
    hosted block, once per (id, generation). *)

val patch : t -> Metadata.t -> Encrypt.db -> t
(** [patch t meta db] is {!create} [meta db] under [t]'s keys, built
    from [t]: the skeleton's index is shared unless [db]'s skeleton
    differs from the one [t] was built on ({!Encrypt.patch} shares it
    when an edit leaves it alone), every IV whose (id, generation) [t]
    already hosted is carried over and only the re-encrypted blocks'
    are derived, and the translation tables are rebuilt from [meta].
    [t] is left as it was. *)

val keys : t -> Crypto.Keys.t

val decrypt_block : t -> Encrypt.block -> decrypted
(** Decrypt one block with the client's derived keys and the IV it
    derived for the block's (id, generation); the decoy, if any, is
    removed ({!Encrypt.decrypt_block_iv}).  The block must carry the
    generation the client hosted under its id ({!create} and {!patch}
    record them), so a superseded ciphertext that a provider ships in
    place of the current one is refused even though its own MAC
    verifies.
    @raise Encrypt.Tampered when the id is not hosted, the generation
    is not the hosted one, or authentication fails. *)

val translate : t -> Xpath.Ast.path -> Squery.path
(** Translate a plaintext XPath query into the server IR.
    @raise Invalid_argument for comparisons whose attribute cannot be
    determined (wildcard last step). *)

val aggregate_range : t -> Xpath.Ast.path -> (int64 * int64) option
(** B-tree key range covering the query's output attribute (for MIN/MAX
    evaluation); [None] when the output is not a catalogued leaf
    attribute. *)

val evaluate_with :
  t -> decrypted:(int * decrypted) list -> Xpath.Ast.path -> answer list
(** Evaluate the original query over the composite view of the
    skeleton and the given decrypted blocks, each entered at its
    placeholder; returns answer subtrees in document order.  Trees are
    built for the answers only. *)

val evaluate_union_with :
  t -> decrypted:(int * decrypted) list -> Xpath.Ast.path list -> answer list
(** Union query over one composite view: node-level deduplication, so a
    node matched by several branches appears once. *)
