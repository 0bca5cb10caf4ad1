module Ast = Xpath.Ast
module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree

type edit =
  | Insert_child of {
      parent : Ast.path;
      position : int;
      subtree : Tree.t;
    }
  | Delete_nodes of Ast.path
  | Set_value of Ast.path * string

module Node_set = Set.Make (Int)

let bindings_of doc path =
  match Xpath.Eval.eval doc path with
  | [] ->
    invalid_arg
      (Printf.sprintf "Update: path %s binds nothing" (Ast.to_string path))
  | nodes -> Node_set.of_list nodes

(* Rebuild the tree applying per-node transformations. *)
let rebuild doc ~delete ~set_value ~insert_at =
  let rec walk n =
    if Node_set.mem n delete then None
    else begin
      let tag = Doc.tag doc n in
      match Doc.value doc n with
      | Some v ->
        let v = match set_value n with Some v' -> v' | None -> v in
        Some (Tree.leaf tag v)
      | None ->
        let children = List.filter_map walk (Doc.children doc n) in
        let children =
          match insert_at n with
          | None -> children
          | Some (position, subtree) ->
            let position = max 0 (min position (List.length children)) in
            let rec splice i = function
              | rest when i = position -> subtree :: rest
              | [] -> [ subtree ]
              | c :: rest -> c :: splice (i + 1) rest
            in
            splice 0 children
        in
        Some (Tree.element tag children)
    end
  in
  match walk (Doc.root doc) with
  | Some tree -> tree
  | None -> invalid_arg "Update: cannot delete the document root"

let no_delete = Node_set.empty
let no_set _ = None
let no_insert _ = None

(* Number of document nodes a tree will occupy once [Doc.of_tree] runs:
   [Element (tag, [Text v])] collapses to a single leaf node. *)
let rec tree_node_count = function
  | Tree.Element (_, [ Tree.Text _ ]) -> 1
  | Tree.Element (_, children) ->
    1 + List.fold_left (fun acc c -> acc + tree_node_count c) 0 children
  | Tree.Text _ -> invalid_arg "Update.tree_node_count: loose text node"

let apply doc = function
  | Delete_nodes path ->
    rebuild doc ~delete:(bindings_of doc path) ~set_value:no_set ~insert_at:no_insert
  | Set_value (path, v) ->
    let targets = bindings_of doc path in
    Node_set.iter
      (fun n ->
        if Doc.value doc n = None then
          invalid_arg
            (Printf.sprintf "Update: node %d (%s) is not a leaf" n (Doc.tag doc n)))
      targets;
    rebuild doc ~delete:no_delete
      ~set_value:(fun n -> if Node_set.mem n targets then Some v else None)
      ~insert_at:no_insert
  | Insert_child { parent; position; subtree } ->
    let parents = bindings_of doc parent in
    Node_set.iter
      (fun n ->
        if Doc.value doc n <> None then
          invalid_arg
            (Printf.sprintf "Update: cannot insert under leaf node %d" n))
      parents;
    ignore (tree_node_count subtree);
    rebuild doc ~delete:no_delete ~set_value:no_set
      ~insert_at:(fun n ->
        if Node_set.mem n parents then Some (position, subtree) else None)

let apply_all doc edits =
  List.fold_left (fun doc edit -> Doc.of_tree (apply doc edit)) doc edits

(* ------------------------------------------------------------------ *)
(* Delta planning                                                      *)

type plan = {
  edit : edit;
  edited : Doc.t;
  new_of_old : int array;
  old_of_new : int array;
  inserted_roots : int list;
  deleted_roots : int list;
  changed_values : int list;
  structural : bool;
}

(* The edited document is spliced from the old one's arrays
   ({!Doc.set_values}, {!Doc.splice}) instead of rebuilt as a tree and
   indexed again, and the splice's renumbering is the plan's node
   correspondence.  An insert lands where [rebuild] puts it: before the
   [position]-th child (clamped), or at the end of the parent's
   subtree.  Two plantings meet at one spot only when one parent
   encloses the other and both append; the inner one comes first in
   preorder. *)
let delta doc edit =
  let n = Doc.node_count doc in
  let identity () = Array.init n Fun.id in
  let structural ~delete ~insert =
    let s = Doc.splice doc ~delete ~insert in
    let old_of_new = Array.make (Doc.node_count s.Doc.doc) (-1) in
    Array.iteri
      (fun old_id new_id -> if new_id >= 0 then old_of_new.(new_id) <- old_id)
      s.Doc.new_of_old;
    s.Doc.doc, s.Doc.new_of_old, old_of_new, s.Doc.inserted
  in
  match edit with
  | Set_value (path, v) ->
    let targets = bindings_of doc path in
    Node_set.iter
      (fun n ->
        if Doc.value doc n = None then
          invalid_arg
            (Printf.sprintf "Update: node %d (%s) is not a leaf" n (Doc.tag doc n)))
      targets;
    let changed_values = Node_set.elements targets in
    { edit;
      edited = Doc.set_values doc (List.map (fun n -> n, v) changed_values);
      new_of_old = identity ();
      old_of_new = identity ();
      inserted_roots = [];
      deleted_roots = [];
      changed_values;
      structural = false }
  | Delete_nodes path ->
    let bound = bindings_of doc path in
    if Node_set.mem (Doc.root doc) bound then
      invalid_arg "Update: cannot delete the document root";
    (* Nested bindings fold into their outermost deleted ancestor. *)
    let deleted_roots =
      List.rev
        (Node_set.fold
           (fun d acc ->
             match acc with
             | top :: _ when Doc.is_ancestor doc top d -> acc
             | _ -> d :: acc)
           bound [])
    in
    let edited, new_of_old, old_of_new, _ = structural ~delete:deleted_roots ~insert:[] in
    { edit; edited; new_of_old; old_of_new; inserted_roots = []; deleted_roots;
      changed_values = []; structural = true }
  | Insert_child { parent; position; subtree } ->
    let parents = bindings_of doc parent in
    Node_set.iter
      (fun n ->
        if Doc.value doc n <> None then
          invalid_arg (Printf.sprintf "Update: cannot insert under leaf node %d" n))
      parents;
    ignore (tree_node_count subtree);
    let src = Doc.of_tree subtree in
    let before p =
      match List.nth_opt (Doc.children doc p) (max 0 position) with
      | Some c -> c
      | None -> p + Doc.subtree_node_count doc p
    in
    let insert =
      Node_set.elements parents
      |> List.map (fun p -> before p, p, src, Doc.root src)
      |> List.stable_sort (fun (b1, p1, _, _) (b2, p2, _, _) ->
             if b1 <> b2 then Int.compare b1 b2 else Int.compare p2 p1)
    in
    let edited, new_of_old, old_of_new, inserted_roots = structural ~delete:[] ~insert in
    { edit; edited; new_of_old; old_of_new; inserted_roots; deleted_roots = [];
      changed_values = []; structural = true }

(* Shape-only rendering for logs: paths are plaintext the owner chose
   to log, but replaced values never appear. *)
let describe = function
  | Insert_child { parent; position; _ } ->
    Printf.sprintf "insert child at position %d under %s" position
      (Ast.to_string parent)
  | Delete_nodes path -> "delete nodes at " ^ Ast.to_string path
  | Set_value (path, _) -> "set value at " ^ Ast.to_string path
