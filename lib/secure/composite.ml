module Doc = Xmlcore.Doc
module Forest = Xmlcore.Forest
module Tree = Xmlcore.Tree
module Ast = Xpath.Ast

(* [In (anchor, id, m)]: node [m] of block [id], whose placeholder sits
   at skeleton node [anchor].  Carrying the anchor makes document-order
   comparison self-contained. *)
type node =
  | Skel of Doc.node
  | In of Doc.node * int * Doc.node

type skeleton = {
  doc : Doc.t;
  block_at : int array;       (* per skeleton node: its block id if a placeholder, else -1 *)
  anchor_of : (int, Doc.node) Hashtbl.t;  (* block id -> placeholder *)
  visible : Doc.node array;   (* what [*] selects: elements, placeholders excluded *)
}

type t = {
  skel : skeleton;
  blocks : (int, Doc.t) Hashtbl.t;  (* returned blocks only *)
  anchors : Doc.node array;         (* their placeholders, sorted *)
  ids : int array;                  (* block id of each anchor *)
}

let prepare doc ~anchors =
  let block_at = Array.make (Doc.node_count doc) (-1) in
  let anchor_of = Hashtbl.create (List.length anchors) in
  List.iter
    (fun (id, n) ->
      block_at.(n) <- id;
      Hashtbl.replace anchor_of id n)
    anchors;
  let elements = Doc.elements doc in
  let visible = Array.make (Array.length elements) 0 and count = ref 0 in
  Array.iter
    (fun n ->
      if block_at.(n) < 0 then begin
        visible.(!count) <- n;
        incr count
      end)
    elements;
  { doc; block_at; anchor_of; visible = Array.sub visible 0 !count }

let doc skel = skel.doc

(* The returned blocks' placeholders in document order, each anchor
   packed with its block id into one int ([anchor lsl 31 lor id]) so
   that sorting them moves no pairs. *)
let create skel ~blocks =
  let count = List.length blocks in
  let block_docs = Hashtbl.create count in
  let packed = Array.make count 0 and placed = ref 0 in
  List.iter
    (fun (id, doc) ->
      Hashtbl.replace block_docs id doc;
      match Hashtbl.find skel.anchor_of id with
      | a ->
        packed.(!placed) <- (a lsl 31) lor id;
        incr placed
      | exception Not_found -> ())
    blocks;
  let packed = Forest.of_unsorted (Array.sub packed 0 !placed) in
  { skel;
    blocks = block_docs;
    anchors = Array.map (fun p -> p lsr 31) packed;
    ids = Array.map (fun p -> p land 0x7FFF_FFFF) packed }

(* A skeleton node resolves to itself, to a block root (returned
   placeholder), or to nothing (unreturned placeholder). *)
let resolve t n =
  let id = t.skel.block_at.(n) in
  if id < 0 then Some (Skel n)
  else
    match Hashtbl.find_opt t.blocks id with
    | Some doc -> Some (In (n, id, Doc.root doc))
    | None -> None

(* ------------------------------------------------------------------ *)
(* Set-at-a-time steps                                                  *)

(* The skeleton nodes a test can select.  Placeholders never show:
   a returned block enters at its anchor instead. *)
let skeleton_candidates t = function
  | Ast.Tag tag when Encrypt.placeholder_id tag <> None -> [||]
  | Ast.Tag tag -> Doc.tagged t.skel.doc tag
  | Ast.Wildcard -> t.skel.visible

(* A placeholder is a leaf, so when an axis relates it to an origin,
   the block's root stands in that relation; along the axes that reach
   whole subtrees, so does every node of the block.  (No axis makes a
   leaf a parent or an ancestor.) *)
let whole_block = function
  | Forest.Descendant | Forest.Following | Forest.Preceding -> true
  | Forest.Child | Forest.Parent | Forest.Ancestor | Forest.Following_sibling
  | Forest.Preceding_sibling ->
    false

(* Skeleton results and the blocks entered at [anchors], merged in
   document order. *)
let merge t axis test nodes anchors =
  let acc = ref [] and i = ref (Array.length nodes - 1) and j = ref (Array.length anchors - 1) in
  while !i >= 0 || !j >= 0 do
    if !j < 0 || (!i >= 0 && nodes.(!i) > anchors.(!j)) then begin
      acc := Skel nodes.(!i) :: !acc;
      decr i
    end
    else begin
      let a = anchors.(!j) in
      let id = t.ids.(Forest.seek t.anchors 0 a) in
      let doc = Hashtbl.find t.blocks id in
      let ms = Xpath.Nav.candidates doc test in
      let ms = if whole_block axis then ms else Forest.inter [| Doc.root doc |] ms in
      acc := Array.fold_right (fun m acc -> In (a, id, m) :: acc) ms !acc;
      decr j
    end
  done;
  !acc

(* An axis leaves a block from its root (parent, siblings) or from any
   of its nodes (ancestors, following, preceding), and goes on from the
   placeholder in the skeleton. *)
let leaves_block axis ~root =
  match axis with
  | Forest.Ancestor | Forest.Following | Forest.Preceding -> true
  | Forest.Parent | Forest.Following_sibling | Forest.Preceding_sibling -> root
  | Forest.Child | Forest.Descendant -> false

let tag t = function
  | Skel n -> Doc.tag t.skel.doc n
  | In (_, id, m) -> Doc.tag (Hashtbl.find t.blocks id) m

let value t = function
  | Skel n -> Doc.value t.skel.doc n
  | In (_, id, m) -> Doc.value (Hashtbl.find t.blocks id) m

(* Document order: a block sits at its placeholder's position. *)
let compare_node a b =
  match a, b with
  | Skel x, Skel y -> Int.compare x y
  | Skel x, In (y, _, _) -> if x = y then -1 else Int.compare x y
  | In (x, _, _), Skel y -> if x = y then 1 else Int.compare x y
  | In (x, i, m), In (y, j, k) ->
    if x <> y then Int.compare x y else if i <> j then Int.compare i j else Int.compare m k

let root t =
  match resolve t (Doc.root t.skel.doc) with
  | Some n -> n
  | None -> Skel (Doc.root t.skel.doc)

(* Skeleton origins (and blocks left through their placeholders) join
   on the skeleton's forest; origins inside a block navigate that
   block's own small forest. *)
let step t origins axis test =
  match origins with
  | None ->
    (match axis with
     | Forest.Child ->
       let r = root t in
       let passes =
         match test with
         | Ast.Tag name -> String.equal (tag t r) name
         | Ast.Wildcard -> not (Tree.is_attribute_tag (tag t r))
       in
       if passes then [ r ] else []
     | Forest.Descendant -> merge t axis test (skeleton_candidates t test) t.anchors
     | Forest.Parent | Forest.Ancestor | Forest.Following_sibling
     | Forest.Preceding_sibling | Forest.Following | Forest.Preceding ->
       [])
  | Some origins ->
    let from, inside =
      List.fold_left
        (fun (from, inside) -> function
          | Skel n -> n :: from, inside
          | In (a, id, m) ->
            let doc = Hashtbl.find t.blocks id in
            let within =
              Forest.join (Doc.forest doc) axis [| m |] (Xpath.Nav.candidates doc test)
            in
            let inside = Array.fold_right (fun m acc -> In (a, id, m) :: acc) within inside in
            (if leaves_block axis ~root:(m = Doc.root doc) then a :: from else from), inside)
        ([], []) origins
    in
    let from = Forest.of_unsorted (Array.of_list (List.rev from)) in
    let outside =
      if from = [||] then []
      else begin
        let f = Doc.forest t.skel.doc in
        merge t axis test
          (Forest.join f axis from (skeleton_candidates t test))
          (Forest.join f axis from t.anchors)
      end
    in
    if inside = [] then outside else List.sort_uniq compare_node (outside @ inside)

module Navigation = struct
  type doc = t
  type nonrec node = node

  let root = root
  let step = step
  let tag = tag
  let value = value
  let compare_node = compare_node
end

module E = Xpath.Eval.Make (Navigation)

module Eval = struct
  let eval = E.eval
  let eval_union = E.eval_union
end

(* Answers are the only trees post-processing builds: each is read
   straight off the skeleton's and the blocks' arrays, a child list at
   a time, with no node list in between. *)
let rec subtree t node =
  match node with
  | Skel n ->
    let d = t.skel.doc in
    (match Doc.value d n with
     | Some v -> Tree.leaf (Doc.tag d n) v
     | None ->
       Tree.element (Doc.tag d n)
         (skeleton_children t (n + 1) (n + Doc.subtree_node_count d n)))
  | In (_, id, m) -> Doc.subtree (Hashtbl.find t.blocks id) m

(* The trees of the skeleton children from [c] on, up to [stop]; a
   placeholder stands for its block's tree when the block was returned
   and for nothing otherwise. *)
and skeleton_children t c stop =
  if c >= stop then []
  else
    let rest = skeleton_children t (c + Doc.subtree_node_count t.skel.doc c) stop in
    let id = t.skel.block_at.(c) in
    if id < 0 then subtree t (Skel c) :: rest
    else
      match Hashtbl.find t.blocks id with
      | doc -> Doc.to_tree doc :: rest
      | exception Not_found -> rest
