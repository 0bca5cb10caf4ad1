type node = int

type t = {
  tags : string array;
  values : string option array;
  parents : int array;            (* -1 for root *)
  depths : int array;
  subtree_sizes : int array;      (* node count of subtree rooted here *)
  forest : Forest.t;              (* [parents] and [subtree_sizes] as a join forest *)
  tag_ids : (string, int) Hashtbl.t;  (* tag -> its index in [tag_sets] *)
  tag_sets : int array array;     (* per tag, its nodes in document order *)
  elements : int array;           (* every non-attribute node *)
}

let root _ = 0
let node_count t = Array.length t.tags
let tag t n = t.tags.(n)
let value t n = t.values.(n)
let parent t n = if t.parents.(n) < 0 then None else Some t.parents.(n)

(* A node's children from the preorder sizes: each child's subtree ends
   where the next child begins. *)
let children t n =
  let stop = n + t.subtree_sizes.(n) in
  let rec from c = if c >= stop then [] else c :: from (c + t.subtree_sizes.(c)) in
  from (n + 1)

let child_count t n = List.length (children t n)
let is_leaf t n = t.values.(n) <> None
let depth_of t n = t.depths.(n)
let subtree_node_count t n = t.subtree_sizes.(n)

let of_tree tree =
  let tags = ref [] and values = ref [] and parents = ref [] in
  let next_id = ref 0 in
  (* Assign preorder ids; returns subtree node count. *)
  let rec walk parent node =
    match node with
    | Tree.Text _ -> invalid_arg "Doc.of_tree: bare text node (mixed content unsupported)"
    | Tree.Element (tag, child_list) ->
      let id = !next_id in
      incr next_id;
      let value, element_children =
        match child_list with
        | [ Tree.Text v ] -> Some v, []
        | cs ->
          let elements =
            List.map
              (function
                | Tree.Element _ as e -> e
                | Tree.Text _ ->
                  invalid_arg "Doc.of_tree: mixed content (text beside elements)")
              cs
          in
          None, elements
      in
      tags := tag :: !tags;
      values := value :: !values;
      parents := parent :: !parents;
      let size =
        List.fold_left (fun acc c -> acc + walk id c) 1 element_children
      in
      size
  in
  let _total = walk (-1) tree in
  let n = !next_id in
  let tags = Array.of_list (List.rev !tags) in
  let values = Array.of_list (List.rev !values) in
  let parents = Array.of_list (List.rev !parents) in
  let depths = Array.make n 0 in
  for i = 1 to n - 1 do
    depths.(i) <- depths.(parents.(i)) + 1
  done;
  let subtree_sizes = Array.make n 1 in
  for i = n - 1 downto 1 do
    subtree_sizes.(parents.(i)) <- subtree_sizes.(parents.(i)) + subtree_sizes.(i)
  done;
  (* Per-tag node sets by counting sort over numbered tags. *)
  let tag_ids = Hashtbl.create 16 in
  let numbered =
    Array.map
      (fun tag ->
        match Hashtbl.find_opt tag_ids tag with
        | Some k -> k
        | None ->
          Hashtbl.add tag_ids tag (Hashtbl.length tag_ids);
          Hashtbl.length tag_ids - 1)
      tags
  in
  let fill = Array.make (Hashtbl.length tag_ids) 0 in
  Array.iter (fun k -> fill.(k) <- fill.(k) + 1) numbered;
  let tag_sets = Array.map (fun count -> Array.make count 0) fill in
  Array.fill fill 0 (Array.length fill) 0;
  Array.iteri
    (fun i k ->
      tag_sets.(k).(fill.(k)) <- i;
      fill.(k) <- fill.(k) + 1)
    numbered;
  let elements =
    Array.of_list (List.filter (fun i -> not (Tree.is_attribute_tag tags.(i))) (List.init n Fun.id))
  in
  { tags; values; parents; depths; subtree_sizes;
    forest = Forest.make ~parent:parents ~size:subtree_sizes;
    tag_ids; tag_sets; elements }

let rec subtree t n =
  match t.values.(n) with
  | Some v -> Tree.leaf t.tags.(n) v
  | None -> Tree.element t.tags.(n) (List.map (subtree t) (children t n))

let to_tree t = subtree t 0

let height t = Array.fold_left max 0 t.depths

(* Preorder ids make the subtree of [n] exactly the contiguous id range
   [n, n + subtree_size n). *)
let descendants t n =
  List.init (t.subtree_sizes.(n) - 1) (fun i -> n + 1 + i)

let descendant_or_self t n =
  List.init t.subtree_sizes.(n) (fun i -> n + i)

let is_ancestor t a b = a < b && b < a + t.subtree_sizes.(a)

let iter t f =
  for i = 0 to node_count t - 1 do
    f i
  done

let fold t f acc =
  let acc = ref acc in
  iter t (fun n -> acc := f !acc n);
  !acc

let tagged t tag =
  match Hashtbl.find_opt t.tag_ids tag with Some k -> t.tag_sets.(k) | None -> [||]
let nodes_with_tag t tag = Array.to_list (tagged t tag)
let elements t = t.elements
let forest t = t.forest

let pp_node t fmt n =
  match t.values.(n) with
  | Some v -> Format.fprintf fmt "<%s #%d = %S>" t.tags.(n) n v
  | None -> Format.fprintf fmt "<%s #%d>" t.tags.(n) n
