module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree

type block = {
  id : int;
  root : Doc.node;
  ciphertext : string;
  plaintext_bytes : int;
  node_count : int;
  has_decoy : bool;
  generation : int;
}

type db = {
  doc : Doc.t;
  scheme : Scheme.t;
  blocks : block list;
  skeleton : Doc.t;
  encrypted_tags : string list;
  plaintext_tags : string list;
  node_block : int array;
  block_by_id : block option array;
}

(* Models the EncryptedData / EncryptionMethod / CipherValue wrapper
   elements of W3C XML-Encryption around every block. *)
let block_header_bytes = 120

let placeholder_prefix = "_enc_block_"

let placeholder_tag id = placeholder_prefix ^ string_of_int id

let placeholder_id tag =
  let n = String.length placeholder_prefix in
  if String.length tag > n && String.sub tag 0 n = placeholder_prefix then
    int_of_string_opt (String.sub tag n (String.length tag - n))
  else None

let decoy_attribute = "@_decoy"

(* Short alphanumeric salt, like the paper's "xyya": the first 6 bytes
   of the PRF of the root's node id under the prepared decoy key. *)
let decoy_value decoy ~root =
  let prf = Crypto.Hmac.prf decoy in
  Crypto.Hmac.eval prf "" root (-1) "";
  let raw = Crypto.Hmac.bits prf 48 in
  String.init 6 (fun i -> Char.chr (Char.code 'a' + (((raw lsr (40 - (8 * i))) land 0xFF) mod 26)))

let add_decoy decoy ~root tree =
  match tree with
  | Tree.Element (tag, children) ->
    Tree.Element (tag, Tree.leaf decoy_attribute (decoy_value decoy ~root) :: children)
  | Tree.Text _ -> assert false

let strip_decoy tree =
  match tree with
  | Tree.Element (tag, children) ->
    let children =
      List.filter
        (function
          | Tree.Element (t, _) -> not (String.equal t decoy_attribute)
          | Tree.Text _ -> true)
        children
    in
    Tree.Element (tag, children)
  | Tree.Text _ -> tree

exception Tampered of int

let mac_tag_bytes = 16

(* Truncated encrypt-then-MAC tag over the first [len] bytes of
   [ciphertext], binding them to their block id and content generation
   (prevents corruption and block-swapping).  A superseded record still
   verifies under its own generation, so rollback is refused by the
   client, which checks the generation it hosted under the id
   ([Client.decrypt_block]).  Generation 0 keeps the historical MAC
   input so freshly hosted blocks stay byte-identical; the "#"
   separator cannot collide with it because ids render as bare
   digits. *)
let block_mac ~keys ~id ~generation ciphertext len =
  let prefix =
    if generation = 0 then string_of_int id ^ "\x00"
    else String.concat "" [ string_of_int id; "#"; string_of_int generation; "\x00" ]
  in
  String.sub
    (Crypto.Hmac.mac_slice (Crypto.Keys.block_mac_key keys) ~prefix ciphertext 0 len)
    0 mac_tag_bytes

let encrypt_one ~keys ~decoy ?(generation = 0) doc ~id root =
  let has_decoy = Doc.is_leaf doc root in
  let subtree = Doc.subtree doc root in
  let payload = if has_decoy then add_decoy decoy ~root subtree else subtree in
  let serialized = Xmlcore.Printer.tree_to_string payload in
  let ciphertext =
    let body =
      Crypto.Cipher.encrypt (Crypto.Keys.block_cipher keys)
        ~nonce:(Crypto.Keys.block_nonce keys ~generation ~block_id:id ())
        serialized
    in
    body ^ block_mac ~keys ~id ~generation body (String.length body)
  in
  { id;
    root;
    ciphertext;
    plaintext_bytes = String.length serialized;
    node_count = Doc.subtree_node_count doc root + (if has_decoy then 1 else 0);
    has_decoy;
    generation }

(* Rebuild the tree with block subtrees replaced by placeholders.
   [block_at] maps a node id to its block id when the node is a block
   root. *)
let skeleton_of doc ~block_at =
  let rec rebuild n =
    match block_at n with
    | Some id -> Tree.element (placeholder_tag id) []
    | None ->
      (match Doc.value doc n with
       | Some v -> Tree.leaf (Doc.tag doc n) v
       | None -> Tree.element (Doc.tag doc n) (List.map rebuild (Doc.children doc n)))
  in
  rebuild (Doc.root doc)

(* Node id -> id of the block containing it, -1 outside every block:
   each block's preorder id run, marked once. *)
let node_blocks doc blocks =
  let node_block = Array.make (Doc.node_count doc) (-1) in
  List.iter
    (fun b -> Array.fill node_block b.root (Doc.subtree_node_count doc b.root) b.id)
    blocks;
  node_block

(* Ids are dense [0..n-1] at setup but become sparse once incremental
   deletes drop whole blocks (dropped ids are never reused — the
   engine's per-generation cache keys depend on that), so the lookup
   table is an option array over the id range. *)
let with_blocks ~doc ~scheme ~blocks ~skeleton ~encrypted_tags ~plaintext_tags ~node_block =
  let max_id = List.fold_left (fun acc b -> Int.max acc b.id) (-1) blocks in
  let block_by_id = Array.make (max_id + 1) None in
  List.iter
    (fun b ->
      if b.id < 0 then invalid_arg "Encrypt.make_db: negative block id";
      if block_by_id.(b.id) <> None then
        invalid_arg "Encrypt.make_db: duplicate block id";
      block_by_id.(b.id) <- Some b)
    blocks;
  { doc; scheme; blocks; skeleton; encrypted_tags; plaintext_tags;
    node_block; block_by_id }

(* Shared constructor: every [db] — freshly encrypted or restored from
   disk — goes through here so the derived node→block table exists by
   construction, which makes [block_of_node] an O(1) array read. *)
let make_db ~doc ~scheme ~blocks ~skeleton ~encrypted_tags ~plaintext_tags =
  with_blocks ~doc ~scheme ~blocks ~skeleton ~encrypted_tags ~plaintext_tags
    ~node_block:(node_blocks doc blocks)

(* The server's half of the split: ciphertext blocks only.  The rest
   of the [db] (plaintext document, scheme, tag partitions) stays on
   the client side of the wire. *)
let server_blocks db = db.blocks

(* The derived-key memos inside [Keys] are mutable; touch every label
   the per-block work needs before fanning out so parallel workers
   only ever read them. *)
let prewarm_block_keys ~keys =
  ignore (Crypto.Keys.block_cipher keys);
  ignore (Crypto.Keys.block_mac_key keys);
  ignore (Crypto.Keys.decoy_key keys)

(* The decoy key, prepared once per encrypt call before any fan-out:
   each decoy draws with an evaluator of its own, so workers share only
   this immutable key. *)
let prepared_decoy ~keys =
  prewarm_block_keys ~keys;
  Crypto.Hmac.prepare ~key:(Crypto.Keys.decoy_key keys)

(* Assemble a db around a document and its (already encrypted) blocks:
   recompute the skeleton and the tag partition from the plaintext —
   pure bookkeeping, no cryptography.  Shared by fresh encryption and
   the incremental delta path (which re-encrypts only touched blocks
   and reuses every other ciphertext verbatim). *)
let reassemble ~doc ~scheme ~blocks =
  let root_to_block = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace root_to_block b.root b.id) blocks;
  let skeleton = Doc.of_tree (skeleton_of doc ~block_at:(Hashtbl.find_opt root_to_block)) in
  (* Partition tags by whether their nodes fall inside blocks. *)
  let covered = Scheme.coverage doc scheme in
  let encrypted = Hashtbl.create 64 and plaintext = Hashtbl.create 64 in
  Doc.iter doc (fun n ->
      let table = if covered.(n) then encrypted else plaintext in
      Hashtbl.replace table (Doc.tag doc n) ());
  let tags table =
    Hashtbl.fold (fun tag () acc -> tag :: acc) table [] |> List.sort String.compare
  in
  make_db ~doc ~scheme ~blocks ~skeleton ~encrypted_tags:(tags encrypted)
    ~plaintext_tags:(tags plaintext)

(* Doc node -> skeleton node: a node outside every block and a block
   root (as its placeholder) are in the skeleton, in preorder; a node
   strictly inside a block is not (-1).  Blocks never nest, so a node
   is in the skeleton exactly when its parent lies outside every
   block. *)
let skeleton_map doc node_block =
  let map = Array.make (Doc.node_count doc) (-1) and next = ref 0 in
  Doc.iter doc (fun n ->
      match Doc.parent doc n with
      | Some p when node_block.(p) >= 0 -> ()
      | Some _ | None ->
        map.(n) <- !next;
        incr next);
  map

let anchors db =
  let map = skeleton_map db.doc db.node_block in
  List.map (fun b -> b.id, map.(b.root)) db.blocks

(* The successor of [old] under one planned edit, part by part.  A value
   edit keeps the shape: the node→block table and tag partition are
   shared, and the skeleton changes only where a plaintext leaf did.  A
   structural edit splices the skeleton where the edit lies outside
   every block, and re-derives the partition only for the tags of the
   nodes it removed or added: every other node keeps its block. *)
let patch old (plan : Update.plan) ~scheme ~blocks =
  let doc = plan.Update.edited in
  if not plan.Update.structural then begin
    let skeleton =
      match List.filter (fun n -> old.node_block.(n) < 0) plan.Update.changed_values with
      | [] -> old.skeleton
      | plain ->
        let map = skeleton_map old.doc old.node_block in
        Doc.set_values old.skeleton
          (List.filter_map (fun n -> Option.map (fun v -> map.(n), v) (Doc.value doc n)) plain)
    in
    with_blocks ~doc ~scheme ~blocks ~skeleton ~encrypted_tags:old.encrypted_tags
      ~plaintext_tags:old.plaintext_tags ~node_block:old.node_block
  end
  else begin
    let map = skeleton_map old.doc old.node_block in
    let outside n = old.node_block.(n) < 0 in
    let n_old = Doc.node_count old.doc and n_new = Doc.node_count doc in
    (* The old node an inserted root lands before: the first old node
       after its subtree, past any other inserted roots. *)
    let rec landing at =
      if at >= n_new then n_old
      else
        let o = plan.Update.old_of_new.(at) in
        if o >= 0 then o else landing (at + Doc.subtree_node_count doc at)
    in
    let insert =
      List.filter_map
        (fun r ->
          match Doc.parent doc r with
          | Some p when outside plan.Update.old_of_new.(p) ->
            let before = landing (r + Doc.subtree_node_count doc r) in
            let before =
              if before >= n_old then Doc.node_count old.skeleton else map.(before)
            in
            Some (before, map.(plan.Update.old_of_new.(p)), doc, r)
          | Some _ | None -> None)
        plan.Update.inserted_roots
    in
    let delete =
      List.filter_map (fun d -> if map.(d) >= 0 then Some map.(d) else None)
        plan.Update.deleted_roots
    in
    let skeleton =
      if insert = [] && delete = [] then old.skeleton
      else (Doc.splice old.skeleton ~delete ~insert).Doc.doc
    in
    let node_block = node_blocks doc blocks in
    let touched = Hashtbl.create 8 in
    let note d roots =
      List.iter
        (fun r ->
          List.iter (fun n -> Hashtbl.replace touched (Doc.tag d n) ()) (Doc.descendant_or_self d r))
        roots
    in
    note old.doc plan.Update.deleted_roots;
    note doc plan.Update.inserted_roots;
    let partition tags ~inside =
      let kept = List.filter (fun tag -> not (Hashtbl.mem touched tag)) tags in
      let found =
        Hashtbl.fold
          (fun tag () acc ->
            if Array.exists (fun n -> (node_block.(n) >= 0) = inside) (Doc.tagged doc tag)
            then tag :: acc
            else acc)
          touched []
      in
      List.sort String.compare (kept @ found)
    in
    with_blocks ~doc ~scheme ~blocks ~skeleton
      ~encrypted_tags:(partition old.encrypted_tags ~inside:true)
      ~plaintext_tags:(partition old.plaintext_tags ~inside:false)
      ~node_block
  end

let encrypt ?pool ~keys doc scheme =
  let decoy = prepared_decoy ~keys in
  let roots = Array.of_list scheme.Scheme.block_roots in
  let encrypt_at id root = encrypt_one ~keys ~decoy doc ~id root in
  (* Each block's cipher+MAC depends only on (id, subtree): the nonce
     is keyed by block id, so evaluation order is irrelevant and the
     pooled path produces byte-identical ciphertexts. *)
  let blocks_arr =
    match pool with
    | Some p -> Parallel.Pool.mapi p encrypt_at roots
    | None -> Array.mapi encrypt_at roots
  in
  reassemble ~doc ~scheme ~blocks:(Array.to_list blocks_arr)

(* Re-encrypt a delta's touched blocks under bumped generations.  Like
   [encrypt], the output is encrypt-then-MAC ciphertext only — which is
   why this is a declassification boundary in the secret-flow policy —
   and nonces are keyed by (id, generation), so the pooled path is
   byte-identical to the sequential one. *)
let reencrypt_blocks ?pool ~keys doc jobs =
  let decoy = prepared_decoy ~keys in
  let re (b, root) =
    encrypt_one ~keys ~decoy ~generation:(b.generation + 1) doc ~id:b.id root
  in
  match pool with
  | Some p when Parallel.Pool.size p > 1 ->
    Parallel.Pool.mapi p (fun _ job -> re job) jobs
  | Some _ | None -> Array.map re jobs

(* The body is the ciphertext minus its trailing tag; it is MAC'd and
   decrypted where it lies, never copied out. *)
let decrypt_block ~keys block =
  let ciphertext = block.ciphertext in
  let body_len = String.length ciphertext - mac_tag_bytes in
  if body_len < 0 then raise (Tampered block.id);
  let tag = String.sub ciphertext body_len mac_tag_bytes in
  if
    not
      (Crypto.Eq.constant_time tag
         (block_mac ~keys ~id:block.id ~generation:block.generation ciphertext
            body_len))
  then raise (Tampered block.id);
  let serialized =
    Crypto.Cipher.decrypt (Crypto.Keys.block_cipher keys)
      ~nonce:
        (Crypto.Keys.block_nonce keys ~generation:block.generation
           ~block_id:block.id ())
      ~len:body_len ciphertext
  in
  let tree = Xmlcore.Parser.parse serialized in
  if block.has_decoy then strip_decoy tree else tree

let block_id_of_node db n =
  let id = db.node_block.(n) in
  if id < 0 then None else Some id

let block_of_node db n =
  match block_id_of_node db n with
  | None -> None
  | Some id -> db.block_by_id.(id)

let encrypted_bytes db =
  List.fold_left
    (fun acc b -> acc + String.length b.ciphertext + block_header_bytes)
    0 db.blocks

let server_bytes db =
  String.length (Xmlcore.Printer.doc_to_string db.skeleton) + encrypted_bytes db
