type 'a node = {
  keys : int64 array;         (* sorted *)
  payloads : 'a array;        (* one per key *)
  children : 'a node array;   (* empty for leaves *)
}

type 'a t = {
  min_degree : int;
  root : 'a node;
  size : int;
}

let is_leaf node = Array.length node.children = 0

let length t = t.size

(* One level of bottom-up packing.  The level is [m] subtrees ([kids];
   none at the leaf level, where the [m - 1] entries are separators
   between empty subtrees) with the [m - 1] sorted entries between
   them, [entries.(base) .. entries.(base + m - 2)].  They are cut into
   ceil(m / 2td) nodes of td..2td subtrees each, as evenly as possible,
   larger nodes first: each node keeps the entries between its own
   subtrees, and the entry between two adjacent nodes goes up, in
   order, as a separator of the level above. *)
let pack ~td kids entries ~base ~count =
  let m = count + 1 in
  let parts = (m + (2 * td) - 1) / (2 * td) in
  let up = if parts = 1 then [||] else Array.make (parts - 1) entries.(base) in
  let first = ref 0 in
  let nodes =
    Array.init parts (fun i ->
        let g = (m / parts) + if i < m mod parts then 1 else 0 in
        let at = base + !first in
        if i < parts - 1 then up.(i) <- entries.(at + g - 1);
        first := !first + g;
        { keys = Array.init (g - 1) (fun j -> fst entries.(at + j));
          payloads = Array.init (g - 1) (fun j -> snd entries.(at + j));
          children = (if Array.length kids = 0 then [||] else Array.sub kids (at - base) g) })
  in
  nodes, up

let ascending entries ~pos ~len =
  let rec go i =
    i >= pos + len - 1
    || (Int64.compare (fst entries.(i)) (fst entries.(i + 1)) <= 0 && go (i + 1))
  in
  go pos

let of_array ?(min_degree = 16) ?(pos = 0) ?len entries =
  if min_degree < 2 then invalid_arg "Btree.of_array: min_degree must be >= 2";
  let len = Option.value len ~default:(Array.length entries - pos) in
  if pos < 0 || len < 0 || pos + len > Array.length entries then
    invalid_arg "Btree.of_array: slice out of bounds";
  let entries, pos =
    if ascending entries ~pos ~len then entries, pos
    else begin
      let sorted = Array.sub entries pos len in
      Array.stable_sort (fun (a, _) (b, _) -> Int64.compare a b) sorted;
      sorted, 0
    end
  in
  let rec build kids entries ~base ~count =
    match pack ~td:min_degree kids entries ~base ~count with
    | [| root |], _ -> root
    | nodes, up -> build nodes up ~base:0 ~count:(Array.length up)
  in
  { min_degree; root = build [||] entries ~base:pos ~count:len; size = len }

let bulk_load ?(min_degree = 16) entries =
  if min_degree < 2 then invalid_arg "Btree.bulk_load: min_degree must be >= 2";
  of_array ~min_degree (Array.of_list entries)

let height t =
  let rec go node = if is_leaf node then 1 else 1 + go node.children.(0) in
  go t.root

let node_count t =
  let rec go node = Array.fold_left (fun acc kid -> acc + go kid) 1 node.children in
  go t.root

(* Right to left, so the entries cons up in key order. *)
let to_list t =
  let rec go node tail =
    let n = Array.length node.keys in
    let acc = ref (if is_leaf node then tail else go node.children.(n) tail) in
    for i = n - 1 downto 0 do
      acc := (node.keys.(i), node.payloads.(i)) :: !acc;
      if not (is_leaf node) then acc := go node.children.(i) !acc
    done;
    !acc
  in
  go t.root []

let range t ~lo ~hi =
  let acc = ref [] in
  let rec go node =
    let n = Array.length node.keys in
    for i = 0 to n do
      (* Visit child i when its key window [key_(i-1), key_i] overlaps. *)
      if (not (is_leaf node))
         && (i = 0 || node.keys.(i - 1) <= hi)
         && (i = n || node.keys.(i) >= lo)
      then go node.children.(i);
      if i < n then begin
        let k = node.keys.(i) in
        if k >= lo && k <= hi then acc := (k, node.payloads.(i)) :: !acc
      end
    done
  in
  go t.root;
  List.rev !acc

let validate t =
  let exception Bad of string in
  let td = t.min_degree in
  let leaf_depths = ref [] in
  let rec go node ~depth ~is_root ~lo ~hi =
    let n = Array.length node.keys in
    if not is_root && n < td - 1 then
      raise (Bad (Printf.sprintf "underfull node: %d keys (min %d)" n (td - 1)));
    if n > (2 * td) - 1 then raise (Bad "overfull node");
    for i = 0 to n - 1 do
      let k = node.keys.(i) in
      if i > 0 && node.keys.(i - 1) > k then raise (Bad "keys out of order within a node");
      (match lo with Some l when k < l -> raise (Bad "key below subtree bound") | _ -> ());
      (match hi with Some h when k > h -> raise (Bad "key above subtree bound") | _ -> ())
    done;
    if is_leaf node then leaf_depths := depth :: !leaf_depths
    else begin
      if n = 0 then raise (Bad "internal node with no keys");
      if Array.length node.children <> n + 1 then raise (Bad "child count is not keys + 1");
      for i = 0 to n do
        let child_lo = if i = 0 then lo else Some node.keys.(i - 1) in
        let child_hi = if i = n then hi else Some node.keys.(i) in
        go node.children.(i) ~depth:(depth + 1) ~is_root:false ~lo:child_lo ~hi:child_hi
      done
    end
  in
  match go t.root ~depth:0 ~is_root:true ~lo:None ~hi:None with
  | () ->
    (match !leaf_depths with
     | [] -> Ok ()
     | d :: rest ->
       if List.for_all (fun d' -> d' = d) rest then Ok ()
       else Error "leaves at different depths")
  | exception Bad msg -> Error msg
