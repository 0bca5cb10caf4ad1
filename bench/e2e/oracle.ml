(* The plaintext oracle.  It is independent of the hosted system: the
   benchmark keeps its own copy of the document, applies every edit to
   it with [Update.apply], and evaluates queries with [Xpath.Eval].
   Answers are memoised per query until the next edit. *)

module Doc = Xmlcore.Doc

type t = {
  mutable doc : Doc.t;
  memo : (string, Xmlcore.Tree.t list) Hashtbl.t;
}

let create doc = { doc; memo = Hashtbl.create 256 }

let doc t = t.doc

let answers t query =
  let key = Xpath.Ast.to_string query in
  match Hashtbl.find_opt t.memo key with
  | Some answers -> answers
  | None ->
    let answers = List.map (Doc.subtree t.doc) (Xpath.Eval.eval t.doc query) in
    Hashtbl.replace t.memo key answers;
    answers

let serialize trees = List.map Xmlcore.Printer.tree_to_string trees

(* Structural equality first; serialized comparison decides when the
   trees differ only in representation. *)
let agrees t query got =
  let want = answers t query in
  want = got || serialize want = serialize got

(* User bytes an edit writes: the new values, the inserted subtree, or
   the deleted subtrees, as serialized XML.  Call before [apply]. *)
let edited_bytes t edit =
  let size path f =
    List.fold_left (fun acc n -> acc + f n) 0 (Xpath.Eval.eval t.doc path)
  in
  match edit with
  | Secure.Update.Set_value (path, value) -> size path (fun _ -> String.length value)
  | Secure.Update.Insert_child { parent; subtree; position = _ } ->
    size parent (fun _ -> Xmlcore.Printer.serialized_size subtree)
  | Secure.Update.Delete_nodes path ->
    size path (fun n -> Xmlcore.Printer.serialized_size (Doc.subtree t.doc n))

let apply t edit =
  t.doc <- Doc.of_tree (Secure.Update.apply t.doc edit);
  Hashtbl.reset t.memo
