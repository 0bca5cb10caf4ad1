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

(* The node correspondence mirrors [rebuild] + [Doc.of_tree] exactly:
   preorder over the old document, skipping deleted subtrees wholesale
   and reserving an id run for each inserted subtree at the spliced
   position (positions index {e surviving} children, as in [rebuild]'s
   clamp).  Everything downstream — interval copying, table surgery,
   block root remapping — leans on this walk agreeing with the fresh
   numbering of the edited document, which the planner asserts. *)
let delta doc edit =
  let delete, set_targets, insert_at =
    match edit with
    | Delete_nodes path ->
      let bound = bindings_of doc path in
      if Node_set.mem (Doc.root doc) bound then
        invalid_arg "Update: cannot delete the document root";
      bound, Node_set.empty, no_insert
    | Set_value (path, _) ->
      let targets = bindings_of doc path in
      Node_set.iter
        (fun n ->
          if Doc.value doc n = None then
            invalid_arg
              (Printf.sprintf "Update: node %d (%s) is not a leaf" n
                 (Doc.tag doc n)))
        targets;
      Node_set.empty, targets, no_insert
    | Insert_child { parent; position; subtree } ->
      let parents = bindings_of doc parent in
      Node_set.iter
        (fun n ->
          if Doc.value doc n <> None then
            invalid_arg
              (Printf.sprintf "Update: cannot insert under leaf node %d" n))
        parents;
      ignore (tree_node_count subtree);
      Node_set.empty, Node_set.empty,
      fun n -> if Node_set.mem n parents then Some (position, subtree) else None
  in
  let new_of_old = Array.make (Doc.node_count doc) (-1) in
  let counter = ref 0 in
  let inserted = ref [] and deleted = ref [] in
  let rec walk n =
    if Node_set.mem n delete then deleted := n :: !deleted
    else begin
      new_of_old.(n) <- !counter;
      incr counter;
      if Doc.value doc n = None then begin
        let children = Doc.children doc n in
        match insert_at n with
        | None -> List.iter walk children
        | Some (position, subtree) ->
          let surviving =
            List.length (List.filter (fun c -> not (Node_set.mem c delete)) children)
          in
          let position = max 0 (min position surviving) in
          let plant () =
            inserted := !counter :: !inserted;
            counter := !counter + tree_node_count subtree
          in
          let planted = ref false and seen = ref 0 in
          List.iter
            (fun c ->
              if not (Node_set.mem c delete) then begin
                if (not !planted) && !seen = position then begin
                  plant ();
                  planted := true
                end;
                incr seen
              end;
              walk c)
            children;
          if not !planted then plant ()
      end
    end
  in
  walk (Doc.root doc);
  let set_fun n =
    match edit with
    | Set_value (_, v) when Node_set.mem n set_targets -> Some v
    | _ -> None
  in
  let edited =
    Doc.of_tree (rebuild doc ~delete ~set_value:set_fun ~insert_at)
  in
  if Doc.node_count edited <> !counter then
    invalid_arg "Update.delta: correspondence walk disagrees with rebuild";
  let old_of_new = Array.make !counter (-1) in
  Array.iteri
    (fun old_id new_id -> if new_id >= 0 then old_of_new.(new_id) <- old_id)
    new_of_old;
  { edit;
    edited;
    new_of_old;
    old_of_new;
    inserted_roots = List.rev !inserted;
    deleted_roots = List.rev !deleted;
    changed_values = Node_set.elements set_targets;
    structural = (match edit with Set_value _ -> false | _ -> true) }

(* Shape-only rendering for logs: paths are plaintext the owner chose
   to log, but replaced values never appear. *)
let describe = function
  | Insert_child { parent; position; _ } ->
    Printf.sprintf "insert child at position %d under %s" position
      (Ast.to_string parent)
  | Delete_nodes path -> "delete nodes at " ^ Ast.to_string path
  | Set_value (path, _) -> "set value at " ^ Ast.to_string path
