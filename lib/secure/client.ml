module Ast = Xpath.Ast
module Tree = Xmlcore.Tree
module Doc = Xmlcore.Doc

type t = {
  keys : Crypto.Keys.t;
  catalogs : (string, Opess.t) Hashtbl.t;
  indexed : (string, unit) Hashtbl.t;  (* value-indexed attributes *)
  encrypted_tags : (string, unit) Hashtbl.t;
  plaintext_tags : (string, unit) Hashtbl.t;
  skeleton : Composite.skeleton;
  generations : int array;
      (* block id -> the generation the client hosted, -1 for an id it
         does not host: the provider writes a block record's generation
         itself, so it is checked against this, not trusted *)
}

let keys t = t.keys

(* The translation tables are a few entries per attribute and are
   rebuilt whole; the skeleton's index is what costs. *)
let make ~keys meta db skeleton =
  let set_of tags =
    let h = Hashtbl.create 32 in
    List.iter (fun tag -> Hashtbl.replace h tag ()) tags;
    h
  in
  let catalogs = Hashtbl.create 32 in
  List.iter (fun (tag, c) -> Hashtbl.replace catalogs tag c) meta.Metadata.catalogs;
  { keys;
    catalogs;
    indexed = set_of meta.Metadata.indexed_tags;
    encrypted_tags = set_of db.Encrypt.encrypted_tags;
    plaintext_tags = set_of db.Encrypt.plaintext_tags;
    skeleton;
    generations =
      Array.map
        (function Some b -> b.Encrypt.generation | None -> -1)
        db.Encrypt.block_by_id }

let prepare db = Composite.prepare db.Encrypt.skeleton ~anchors:(Encrypt.anchors db)

let create ~keys meta db = make ~keys meta db (prepare db)

let patch t meta db =
  make ~keys:t.keys meta db
    (if Composite.doc t.skeleton == db.Encrypt.skeleton then t.skeleton else prepare db)

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)

let tokens_for t tag =
  let enc =
    if Hashtbl.mem t.encrypted_tags tag then
      [ Squery.Enc
          (Crypto.Vernam.encrypt_hex
             ~key:(Crypto.Keys.tag_key t.keys)
             ~pad_id:(Crypto.Keys.tag_pad_id tag)
             tag) ]
    else []
  in
  let clear = if Hashtbl.mem t.plaintext_tags tag then [ Squery.Clear tag ] else [] in
  match enc @ clear with
  | [] -> [ Squery.Clear tag ] (* tag absent from the database: misses *)
  | tokens -> tokens

let translate_test t = function
  | Ast.Tag tag -> Squery.Tokens (tokens_for t tag)
  | Ast.Wildcard -> Squery.Any

(* The attribute a comparison applies to: the last step's tag of the
   predicate path, or the owning step's tag for a self comparison. *)
let comparison_attribute ~owner_test path =
  let of_test = function
    | Ast.Tag tag -> tag
    | Ast.Wildcard ->
      invalid_arg "Client.translate: comparison on a wildcard step"
  in
  match List.rev path.Ast.steps with
  | [] -> of_test owner_test
  | last :: _ -> of_test last.Ast.test

let rec translate_path t p =
  { Squery.absolute = p.Ast.absolute;
    steps = List.map (translate_step t) p.Ast.steps }

and translate_step t s =
  { Squery.axis = s.Ast.axis;
    test = translate_test t s.Ast.test;
    predicates = List.map (translate_predicate t ~owner_test:s.Ast.test) s.Ast.predicates }

and translate_predicate t ~owner_test = function
  | Ast.And (a, b) ->
    Squery.P_and
      (translate_predicate t ~owner_test a, translate_predicate t ~owner_test b)
  | Ast.Or (a, b) ->
    Squery.P_or
      (translate_predicate t ~owner_test a, translate_predicate t ~owner_test b)
  | Ast.Not a -> Squery.P_not (translate_predicate t ~owner_test a)
  | Ast.Exists q -> Squery.Exists (translate_path t q)
  | Ast.Compare (q, op, literal) ->
    let attribute = comparison_attribute ~owner_test q in
    let ranges =
      match Hashtbl.find_opt t.catalogs attribute with
      | None ->
        (* the attribute has no values in D: unsatisfiable *)
        Squery.Ranges []
      | Some catalog ->
        if Hashtbl.mem t.indexed attribute then
          Squery.Ranges (Opess.translate catalog op literal)
        else Squery.Unknown (* not indexed: server keeps all candidates *)
    in
    Squery.Value (translate_path t q, ranges)

let translate t p = translate_path t p

(* For MIN/MAX: the key range spanning the output attribute's chunks.
   [None] when the query's output is not a catalogued leaf attribute
   (then no encrypted occurrence can exist either). *)
let aggregate_range t p =
  match List.rev p.Ast.steps with
  | { Ast.test = Ast.Tag tag; _ } :: _ when Hashtbl.mem t.indexed tag ->
    (* Only indexed attributes can use the B-tree fast path: otherwise
       encrypted occurrences are invisible to the scan and the ordinary
       protocol must run. *)
    Option.bind (Hashtbl.find_opt t.catalogs tag) Opess.full_range
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Post-processing                                                     *)

type answer = Tree.t

(* A block whose id the client does not host, or whose generation is
   not the one it hosted, is refused before its MAC is checked: a
   superseded record verifies under its own generation, so the MAC
   alone cannot tell it from the current one. *)
let decrypt_block t b =
  let id = b.Encrypt.id in
  if id < 0 || id >= Array.length t.generations || t.generations.(id) <> b.Encrypt.generation
  then raise (Encrypt.Tampered id);
  Encrypt.decrypt_block ~keys:t.keys b

let composite t ~decrypted =
  Composite.create t.skeleton
    ~blocks:(List.map (fun (id, tree) -> id, Doc.of_tree tree) decrypted)

let evaluate_with t ~decrypted query =
  let view = composite t ~decrypted in
  List.map (Composite.subtree view) (Composite.Eval.eval view query)

let evaluate_union_with t ~decrypted queries =
  let view = composite t ~decrypted in
  List.map (Composite.subtree view) (Composite.Eval.eval_union view queries)
