(** Applying an encryption scheme to a document (Section 4.1).

    Each block root's subtree is serialized, salted with an encryption
    decoy when the root is a leaf element, and CBC-encrypted under the
    client's block key with a per-block nonce.  What remains in
    plaintext — the {e skeleton} — has each block replaced by an
    [_enc_block_<id>] placeholder element.  The skeleton plus the
    ciphertext blocks is exactly what the server stores (along with the
    metadata of {!Metadata}).

    Per-block framing overhead (the W3C XML-Encryption wrapper elements
    in the paper's setup) is modelled by {!block_header_bytes}; it is
    what makes the [Sub] scheme's output largest in experiment E6. *)

type block = {
  id : int;
  root : Xmlcore.Doc.node;          (** subtree root in the original document *)
  ciphertext : string;
  plaintext_bytes : int;            (** serialized subtree size, decoy included *)
  node_count : int;                 (** block size |b|, decoy included *)
  has_decoy : bool;
  generation : int;                 (** content version; 0 = freshly hosted *)
}

type db = {
  doc : Xmlcore.Doc.t;              (** the original — client side only *)
  scheme : Scheme.t;
  blocks : block list;              (** ordered by id = position in scheme *)
  skeleton : Xmlcore.Doc.t;         (** public part with placeholders, indexed *)
  encrypted_tags : string list;     (** tags occurring inside blocks *)
  plaintext_tags : string list;     (** tags occurring outside blocks *)
  node_block : int array;           (** node id → containing block id, -1 if none *)
  block_by_id : block option array; (** blocks indexed by block id; [None] at
                                        ids dropped by incremental deletes *)
}

val block_header_bytes : int
(** Fixed per-block framing overhead added to stored/transmitted
    sizes. *)

val placeholder_tag : int -> string
(** [placeholder_tag id] = ["_enc_block_<id>"]. *)

val placeholder_id : string -> int option
(** Inverse of {!placeholder_tag}. *)

val decoy_attribute : string
(** The ["@"]-prefixed tag of decoy children ("_decoy"). *)

exception Tampered of int
(** Raised by {!decrypt_block} when a block's authentication tag does
    not verify (block id attached). *)

val make_db :
  doc:Xmlcore.Doc.t ->
  scheme:Scheme.t ->
  blocks:block list ->
  skeleton:Xmlcore.Doc.t ->
  encrypted_tags:string list ->
  plaintext_tags:string list ->
  db
(** Assemble a [db], computing the derived node→block lookup tables.
    Every construction site (fresh encryption, restore from disk,
    incremental delta) must go through here so {!block_of_node} stays
    O(1).  Ids are dense [0..n-1] at setup but may be sparse after
    incremental deletes; dropped ids are never reused.
    @raise Invalid_argument on negative or duplicate block ids. *)

val reassemble :
  doc:Xmlcore.Doc.t -> scheme:Scheme.t -> blocks:block list -> db
(** Assemble a [db] around an edited document and its already-encrypted
    blocks (roots remapped to the new numbering): the skeleton and tag
    partition are recomputed from the plaintext, no cryptography runs.
    {!encrypt} assembles its output here; the delta path uses {!patch}
    instead. *)

val patch : db -> Update.plan -> scheme:Scheme.t -> blocks:block list -> db
(** [patch db plan ~scheme ~blocks] is the [db] of [plan]'s edited
    document around its blocks ([blocks]: the survivors, touched ones
    re-encrypted, roots remapped), built from [db] part by part instead
    of {!reassemble}d: a value edit shares the node→block table and the
    tag partition, and the skeleton unless a plaintext leaf changed; a
    structural edit splices the skeleton only where it lies outside
    every block, and re-derives the tag partition only for the tags of
    the nodes it removed or added.  The result equals {!reassemble}'s
    on every field; [db] is left as it was. *)

val anchors : db -> (int * Xmlcore.Doc.node) list
(** Each block's id and its placeholder node in the skeleton. *)

val encrypt :
  ?pool:Parallel.Pool.t -> keys:Crypto.Keys.t -> Xmlcore.Doc.t -> Scheme.t -> db
(** Encrypt the document under the scheme.  Blocks are
    encrypt-then-MAC: a truncated HMAC tag over (block id, ciphertext)
    is appended, so corruption and block-swapping are detected instead
    of decrypting garbage.

    When [pool] is given, per-block encryption fans out across its
    domains.  Nonces are keyed by block id and results merge in block
    order, so the output is byte-identical to the sequential path. *)

val reencrypt_blocks :
  ?pool:Parallel.Pool.t ->
  keys:Crypto.Keys.t ->
  Xmlcore.Doc.t ->
  (block * Xmlcore.Doc.node) array ->
  block array
(** Re-encrypt each [(old block, new root)] job against the edited
    document under generation [old.generation + 1].  This is the delta
    path's only cryptographic step; its output is encrypt-then-MAC
    ciphertext, so — like {!encrypt} — the secret-flow policy declares
    it a declassification boundary.  Fans out across [pool] when it has
    more than one domain; byte-identical to the sequential path. *)

val server_blocks : db -> block list
(** The ciphertext half of the database — exactly what may be shipped
    to the untrusted server.  A [db] as a whole is a client-side value
    (it keeps the plaintext document for post-processing); the blocks
    are encrypt-then-MAC ciphertext and carry no key or plaintext
    material, which is why the secret-flow policy declares this
    projection a declassifier (see docs/STATIC_ANALYSIS.md). *)

val prewarm_block_keys : keys:Crypto.Keys.t -> unit
(** Derive (and thereby memoise) every subkey that per-block
    encryption and decryption touch.  The memo table inside
    {!Crypto.Keys} is mutable, so any caller about to decrypt blocks
    on several domains must warm the ring first; after that, workers
    only read it.  [encrypt] warms its ring itself. *)

val decrypt_block : keys:Crypto.Keys.t -> block -> Xmlcore.Doc.t
(** Verify, decrypt and parse one block straight into a document; the
    decoy (if any) is dropped while parsing.  The MAC is checked under
    the generation the block record carries, which the provider writes:
    a superseded record verifies.  Readers of server responses go
    through {!Client.decrypt_block}, which also checks the generation
    against the hosted one.  The block's IV is derived per call.
    @raise Tampered when the authentication tag fails. *)

val decrypt_block_iv :
  keys:Crypto.Keys.t -> iv:Bytes.t -> iv_off:int -> block -> Xmlcore.Doc.t
(** {!decrypt_block} with the block's IV given, as {!Crypto.Cipher.iv_bytes}
    bytes of [iv] from [iv_off] ({!Crypto.Keys.block_iv} of the block's
    id and generation), instead of derived per call: how a client that
    derived its hosting's IVs once decrypts.
    @raise Tampered when the authentication tag fails. *)

val block_of_node : db -> Xmlcore.Doc.node -> block option
(** The block containing the node (as root or inner node), if any.
    O(1): served from the precomputed node→block table. *)

val block_id_of_node : db -> Xmlcore.Doc.node -> int option
(** Like {!block_of_node} but returns just the block id. *)

val server_bytes : db -> int
(** Total size the server stores: skeleton plus all ciphertexts plus
    per-block headers. *)

val encrypted_bytes : db -> int
(** Ciphertext bytes only (headers included). *)
