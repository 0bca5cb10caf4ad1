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

(* A value edit changes one array: every other one is shared. *)
let set_values t edits =
  let values = Array.copy t.values in
  List.iter (fun (n, v) -> values.(n) <- Some v) edits;
  { t with values }

type splice = {
  doc : t;
  new_of_old : int array;
  inserted : node list;
}

(* The edited document from the old one's arrays: one sweep numbers the
   survivors and reserves each inserted subtree's id run, the node
   arrays are copied across, and the tag sets and element set are the
   old ones renumbered (the renumbering is monotone, so they stay
   sorted) merged with the inserted nodes.  Nothing is re-indexed from
   a tree. *)
let splice t ~delete ~insert =
  let n = node_count t in
  let new_of_old = Array.make n (-1) in
  let counter = ref 0 and planted = ref [] in
  let rec plant o = function
    | (before, parent, src, root) :: rest when before = o ->
      planted := (!counter, parent, src, root) :: !planted;
      counter := !counter + src.subtree_sizes.(root);
      plant o rest
    | rest -> rest
  in
  let rec sweep o dels ins =
    let ins = plant o ins in
    if o < n then
      match dels with
      | d :: _ when d = o ->
        let stop = o + t.subtree_sizes.(o) in
        sweep stop (List.filter (fun d -> d >= stop) dels) ins
      | _ ->
        new_of_old.(o) <- !counter;
        incr counter;
        sweep (o + 1) dels ins
  in
  sweep 0 (List.sort_uniq Int.compare delete) insert;
  let planted = List.rev !planted in
  let size = !counter in
  let tags = Array.make size "" and values = Array.make size None in
  let parents = Array.make size (-1) in
  for o = 0 to n - 1 do
    let p = new_of_old.(o) in
    if p >= 0 then begin
      tags.(p) <- t.tags.(o);
      values.(p) <- t.values.(o);
      parents.(p) <- (if t.parents.(o) < 0 then -1 else new_of_old.(t.parents.(o)))
    end
  done;
  let added = Hashtbl.create 8 and added_elements = ref [] in
  List.iter
    (fun (r, parent, src, root) ->
      let count = src.subtree_sizes.(root) in
      Array.blit src.tags root tags r count;
      Array.blit src.values root values r count;
      for k = 0 to count - 1 do
        parents.(r + k) <-
          (if k = 0 then new_of_old.(parent) else src.parents.(root + k) - root + r);
        let tag = tags.(r + k) in
        Hashtbl.replace added tag ((r + k) :: Option.value ~default:[] (Hashtbl.find_opt added tag));
        if not (Tree.is_attribute_tag tag) then added_elements := (r + k) :: !added_elements
      done)
    planted;
  let depths = Array.make size 0 in
  for i = 1 to size - 1 do
    depths.(i) <- depths.(parents.(i)) + 1
  done;
  let subtree_sizes = Array.make size 1 in
  for i = size - 1 downto 1 do
    subtree_sizes.(parents.(i)) <- subtree_sizes.(parents.(i)) + subtree_sizes.(i)
  done;
  (* The first old node the edit moves: a set ending before it keeps
     its ids, and is shared. *)
  let unmoved =
    let rec go o = if o < n && new_of_old.(o) = o then go (o + 1) else o in
    go 0
  in
  let renumber set =
    let count = Array.length set in
    if count = 0 || set.(count - 1) < unmoved then set
    else
    let out = Array.make count 0 and k = ref 0 in
    Array.iter
      (fun o ->
        let p = new_of_old.(o) in
        if p >= 0 then begin
          out.(!k) <- p;
          incr k
        end)
      set;
    if !k = count then out else Array.sub out 0 !k
  in
  let merge set nodes = Forest.union set (Forest.of_unsorted (Array.of_list nodes)) in
  let tag_ids =
    if Hashtbl.fold (fun tag _ known -> known && Hashtbl.mem t.tag_ids tag) added true
    then t.tag_ids
    else begin
      let tag_ids = Hashtbl.copy t.tag_ids in
      Hashtbl.iter
        (fun tag _ ->
          if not (Hashtbl.mem tag_ids tag) then Hashtbl.add tag_ids tag (Hashtbl.length tag_ids))
        added;
      tag_ids
    end
  in
  let tag_sets =
    Array.init (Hashtbl.length tag_ids) (fun k ->
        if k < Array.length t.tag_sets then renumber t.tag_sets.(k) else [||])
  in
  Hashtbl.iter
    (fun tag nodes ->
      let k = Hashtbl.find tag_ids tag in
      tag_sets.(k) <- merge tag_sets.(k) nodes)
    added;
  let doc =
    { tags; values; parents; depths; subtree_sizes;
      forest = Forest.make ~parent:parents ~size:subtree_sizes;
      tag_ids; tag_sets;
      elements = merge (renumber t.elements) !added_elements }
  in
  { doc; new_of_old; inserted = List.map (fun (r, _, _, _) -> r) planted }

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
