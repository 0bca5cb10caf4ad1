type node = int

(* tag -> its index in [tag_sets].  A one-node document, most
   decrypted blocks, has its one tag at index 0 and needs no table. *)
type tag_ids =
  | One of string
  | Many of (string, int) Hashtbl.t

type t = {
  tags : string array;
  values : string option array;
  parents : int array;            (* -1 for root *)
  depths : int array;
  subtree_sizes : int array;      (* node count of subtree rooted here *)
  forest : Forest.t;              (* [parents] and [subtree_sizes] as a join forest *)
  tag_ids : tag_ids;
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

(* The arrays past [tags], [values] and [parents], derived once from
   them: depths, subtree sizes, the per-tag node sets (a counting sort
   over numbered tags) and the element set.  Loops, not closures: a
   decrypted block is a document of a node or a few, so what indexing
   one allocates beyond its arrays is most of its cost. *)
let index ~tags ~values ~parents =
  let n = Array.length tags in
  let depths = Array.make n 0 in
  for i = 1 to n - 1 do
    depths.(i) <- depths.(parents.(i)) + 1
  done;
  let subtree_sizes = Array.make n 1 in
  for i = n - 1 downto 1 do
    subtree_sizes.(parents.(i)) <- subtree_sizes.(parents.(i)) + subtree_sizes.(i)
  done;
  let tag_ids = Hashtbl.create 16 in
  let numbered = Array.make n 0 and elements = ref 0 in
  for i = 0 to n - 1 do
    let tag = tags.(i) in
    numbered.(i) <-
      (match Hashtbl.find tag_ids tag with
       | k -> k
       | exception Not_found ->
         let k = Hashtbl.length tag_ids in
         Hashtbl.add tag_ids tag k;
         k);
    if not (Tree.is_attribute_tag tag) then incr elements
  done;
  let distinct = Hashtbl.length tag_ids in
  let fill = Array.make distinct 0 in
  for i = 0 to n - 1 do
    fill.(numbered.(i)) <- fill.(numbered.(i)) + 1
  done;
  let tag_sets = Array.make distinct [||] in
  for k = 0 to distinct - 1 do
    tag_sets.(k) <- Array.make fill.(k) 0;
    fill.(k) <- 0
  done;
  let element_set = Array.make !elements 0 and next = ref 0 in
  for i = 0 to n - 1 do
    let k = numbered.(i) in
    tag_sets.(k).(fill.(k)) <- i;
    fill.(k) <- fill.(k) + 1;
    if not (Tree.is_attribute_tag tags.(i)) then begin
      element_set.(!next) <- i;
      incr next
    end
  done;
  { tags; values; parents; depths; subtree_sizes;
    forest = Forest.make ~parent:parents ~size:subtree_sizes;
    tag_ids = Many tag_ids; tag_sets; elements = element_set }

(* Most decrypted blocks are a single leaf.  A one-node document owns
   its tag and value and shares every structural array (documents are
   never mutated in place). *)
let zero = [| 0 |]
let root_parent = [| -1 |]
let one = [| 1 |]
let single_forest = Forest.make ~parent:root_parent ~size:one
let single_tag_sets = [| zero |]

let single tag value =
  { tags = [| tag |];
    values = [| value |];
    parents = root_parent;
    depths = zero;
    subtree_sizes = one;
    forest = single_forest;
    tag_ids = One tag;
    tag_sets = single_tag_sets;
    elements = (if Tree.is_attribute_tag tag then [||] else zero) }

module Builder = struct
  type doc = t

  type t = {
    mutable tags : string array;
    mutable values : string option array;
    mutable parents : int array;
    mutable count : int;
    mutable current : int;  (* the innermost open node, -1 when none *)
  }

  let create ?(capacity = 16) () =
    let capacity = max 1 capacity in
    { tags = Array.make capacity "";
      values = Array.make capacity None;
      parents = Array.make capacity (-1);
      count = 0;
      current = -1 }

  let grow b =
    let size = 2 * Array.length b.tags in
    let extend a fill =
      let a' = Array.make size fill in
      Array.blit a 0 a' 0 b.count;
      a'
    in
    b.tags <- extend b.tags "";
    b.values <- extend b.values None;
    b.parents <- extend b.parents (-1)

  let open_node b tag =
    if b.count > 0 && b.current < 0 then invalid_arg "Doc.Builder: a second root";
    if b.count = Array.length b.tags then grow b;
    let n = b.count in
    b.tags.(n) <- tag;
    b.parents.(n) <- b.current;
    b.count <- n + 1;
    b.current <- n

  let has_children b = b.current >= 0 && b.count > b.current + 1

  let close_node b value =
    let n = b.current in
    if n < 0 then invalid_arg "Doc.Builder: no open node";
    b.values.(n) <- value;
    b.current <- b.parents.(n)

  let finish b : doc =
    if b.count = 0 || b.current >= 0 then invalid_arg "Doc.Builder: unfinished document";
    let n = b.count in
    if n = 1 then single b.tags.(0) b.values.(0)
    else
      let trim a = if Array.length a = n then a else Array.sub a 0 n in
      index ~tags:(trim b.tags) ~values:(trim b.values) ~parents:(trim b.parents)
end

let of_tree tree =
  let b = Builder.create () in
  let rec walk = function
    | Tree.Text _ -> invalid_arg "Doc.of_tree: bare text node (mixed content unsupported)"
    | Tree.Element (tag, [ Tree.Text v ]) ->
      Builder.open_node b tag;
      Builder.close_node b (Some v)
    | Tree.Element (tag, children) ->
      Builder.open_node b tag;
      List.iter
        (function
          | Tree.Element _ as e -> walk e
          | Tree.Text _ -> invalid_arg "Doc.of_tree: mixed content (text beside elements)")
        children;
      Builder.close_node b None
  in
  walk tree;
  Builder.finish b

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

let table t =
  match t.tag_ids with
  | Many ids -> ids
  | One tag ->
    let ids = Hashtbl.create 1 in
    Hashtbl.add ids tag 0;
    ids

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
  let old_ids = table t in
  let tag_ids =
    if Hashtbl.fold (fun tag _ known -> known && Hashtbl.mem old_ids tag) added true
    then old_ids
    else begin
      let tag_ids = Hashtbl.copy old_ids in
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
      tag_ids = Many tag_ids; tag_sets;
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
  match t.tag_ids with
  | One only -> if String.equal tag only then t.tag_sets.(0) else [||]
  | Many ids -> (
    match Hashtbl.find ids tag with k -> t.tag_sets.(k) | exception Not_found -> [||])
let nodes_with_tag t tag = Array.to_list (tagged t tag)
let elements t = t.elements
let forest t = t.forest

let pp_node t fmt n =
  match t.values.(n) with
  | Some v -> Format.fprintf fmt "<%s #%d = %S>" t.tags.(n) n v
  | None -> Format.fprintf fmt "<%s #%d>" t.tags.(n) n
