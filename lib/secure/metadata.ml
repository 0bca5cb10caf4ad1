module Doc = Xmlcore.Doc
module Interval = Dsi.Interval

type target =
  | To_block of int
  | To_plain of Interval.t

type index_policy =
  | All_leaves
  | Encrypted_only

type t = {
  assignment : Dsi.Assign.t;
  dsi_table : (string * Interval.t list) list;
  block_table : (int * Interval.t) list;
  index : target Btree.t array;
  catalogs : (string * Opess.t) list;
  indexed_tags : string list;
}

(* Attribute ids run from 0 to 126 ({!Opess.build}); a key carries its
   attribute id in the top bits, 56 bits of OPE cipher below. *)
let attribute_slots = 127

let attribute_of_key key = Int64.to_int (Int64.shift_right key 56)

let empty_tree = Btree.bulk_load []

(* Key order groups each attribute's entries into one contiguous run:
   each run is bulk-loaded where it lies. *)
let index_of_entries entries =
  let index = Array.make attribute_slots empty_tree in
  let n = Array.length entries in
  let rec runs start =
    if start < n then begin
      let a = attribute_of_key (fst entries.(start)) in
      if a < 0 || a >= attribute_slots || index.(a) != empty_tree then
        invalid_arg "Metadata.index_of_entries: key outside every attribute or out of order";
      let stop = ref (start + 1) in
      while !stop < n && attribute_of_key (fst entries.(!stop)) = a do
        incr stop
      done;
      index.(a) <- Btree.of_array ~min_degree:16 ~pos:start ~len:(!stop - start) entries;
      runs !stop
    end
  in
  runs 0;
  index

let index_range index ~lo ~hi =
  let first = Int.max 0 (attribute_of_key lo) in
  let last = Int.min (attribute_slots - 1) (attribute_of_key hi) in
  List.concat_map
    (fun a -> Btree.range index.(a) ~lo ~hi)
    (List.init (Int.max 0 (last - first + 1)) (fun i -> first + i))

let token_key = function
  | Squery.Clear tag -> "P:" ^ tag
  | Squery.Enc hex -> "E:" ^ hex

let encrypted_token ~keys tag =
  Squery.Enc
    (Crypto.Vernam.encrypt_hex
       ~key:(Crypto.Keys.tag_key keys)
       ~pad_id:(Crypto.Keys.tag_pad_id tag)
       tag)

(* Where a value-index entry points: the node's block, or for a
   plaintext leaf its own interval. *)
let target_of db assignment n =
  let id = db.Encrypt.node_block.(n) in
  if id >= 0 then To_block id else To_plain (Dsi.Assign.interval assignment n)

(* DSI index table rows contributed by one sibling list: runs of
   adjacent same-tag siblings inside the same block collapse to their
   hull.  Factored per-parent so the incremental [patch] can recompute
   exactly the affected parents' contributions — the rows are a pure
   function of (children, tags, intervals, block membership), so a
   parent whose child list did not change contributes byte-identical
   rows in the old and new states. *)
let rows_for_children ~keys doc assignment node_block children =
  let rows = ref [] in
  let emit node_run =
    match node_run with
    | [] -> ()
    | first :: _ ->
      let tag = Doc.tag doc first in
      let token =
        if node_block.(first) >= 0 then encrypted_token ~keys tag else Squery.Clear tag
      in
      let hull =
        List.fold_left
          (fun acc n -> Interval.hull acc (Dsi.Assign.interval assignment n))
          (Dsi.Assign.interval assignment first)
          node_run
      in
      rows := (token_key token, hull) :: !rows
  in
  let same a b =
    String.equal (Doc.tag doc a) (Doc.tag doc b)
    && node_block.(a) = node_block.(b)
    && node_block.(a) >= 0
  in
  let rec runs current = function
    | [] -> emit (List.rev current)
    | c :: rest ->
      (match current with
       | prev :: _ when same prev c -> runs (c :: current) rest
       | _ :: _ ->
         emit (List.rev current);
         runs [ c ] rest
       | [] -> runs [ c ] rest)
  in
  runs [] children;
  !rows

(* DSI index table rows: one per node, except that runs of adjacent
   same-tag siblings inside the same block collapse to their hull. *)
let table_rows ~keys db assignment =
  let doc = db.Encrypt.doc and node_block = db.Encrypt.node_block in
  let rows = ref (rows_for_children ~keys doc assignment node_block [ Doc.root doc ]) in
  Doc.iter doc (fun n ->
      match Doc.children doc n with
      | [] -> ()
      | children ->
        rows := rows_for_children ~keys doc assignment node_block children @ !rows);
  !rows

(* One attribute's value-index entries in key order: one entry per
   occurrence per scale replica, each value's occurrences in document
   order taking its chunks in turn, values in catalog order.  When
   chunk ciphers climb strictly through the catalog — OPE gives that —
   this is the stable key sort of the document-order list, with no
   sort; a catalog whose chunks collide gets the document-order list,
   which {!Btree.bulk_load} sorts. *)
let attribute_entries cat doc ~tag ~target =
  let nodes = Hashtbl.create 64 in
  let tagged = Doc.tagged doc tag in
  for i = Array.length tagged - 1 downto 0 do
    let n = tagged.(i) in
    Option.iter
      (fun v -> Hashtbl.replace nodes v (n :: Option.value ~default:[] (Hashtbl.find_opt nodes v)))
      (Doc.value doc n)
  done;
  let occurrences e =
    let rec walk chunks used = function
      | [] -> []
      | n :: rest as ns ->
        (match chunks with
         | [] -> []
         | c :: later when used >= c.Opess.occurrences -> walk later 0 ns
         | c :: _ ->
           (n, List.init e.Opess.scale (fun _ -> c.Opess.cipher, target n))
           :: walk chunks (used + 1) rest)
    in
    walk e.Opess.chunks 0 (Option.value ~default:[] (Hashtbl.find_opt nodes e.Opess.value))
  in
  let per_value = List.map occurrences (Opess.entries cat) in
  let rec climbs = function
    | (a, _) :: ((b, _) :: _ as rest) -> Int64.compare a b < 0 && climbs rest
    | [ _ ] | [] -> true
  in
  if climbs (Opess.ciphertext_histogram cat) then List.concat_map (List.concat_map snd) per_value
  else
    List.concat_map snd
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.concat per_value))

let build ?pool ~keys ?(policy = All_leaves) db =
  let doc = db.Encrypt.doc in
  let assignment = Dsi.Assign.assign ~key:(Crypto.Keys.dsi_key keys) doc in
  let rows = table_rows ~keys db assignment in
  let grouped = Hashtbl.create 256 in
  List.iter
    (fun (key, iv) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt grouped key) in
      Hashtbl.replace grouped key (iv :: prev))
    rows;
  let dsi_table =
    Hashtbl.fold
      (fun key ivs acc -> (key, List.sort Interval.compare_by_lo ivs) :: acc)
      grouped []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let block_table =
    List.map
      (fun b -> b.Encrypt.id, Dsi.Assign.interval assignment b.Encrypt.root)
      db.Encrypt.blocks
  in
  (* OPESS catalogs for every leaf attribute, ids in sorted-tag order. *)
  let leaf_tags = Xmlcore.Stats.leaf_tags doc in
  if List.length leaf_tags > attribute_slots then
    invalid_arg "Metadata.build: more than 127 distinct leaf attributes";
  (* Derive every per-attribute key up front: the [Keys] memo table is
     mutable, so parallel workers must only read it.  Each catalog then
     owns its own OPE instance and histogram, making the per-tag builds
     independent; merging in tag order keeps attr ids and catalog order
     identical to the sequential path. *)
  let opess_keys =
    List.map (fun tag -> Crypto.Keys.opess_key keys ~attribute:tag) leaf_tags
  in
  let build_catalog attr_id (tag, key) =
    let histogram = Xmlcore.Stats.value_histogram doc ~tag in
    tag, Opess.build ~key ~attr_id ~tag histogram
  in
  let keyed_tags = Array.of_list (List.combine leaf_tags opess_keys) in
  let catalogs =
    match pool with
    | Some p -> Array.to_list (Parallel.Pool.mapi p build_catalog keyed_tags)
    | None -> Array.to_list (Array.mapi build_catalog keyed_tags)
  in
  (* Which attributes enter the value index. *)
  let indexed_tags =
    match policy with
    | All_leaves -> leaf_tags
    | Encrypted_only ->
      List.filter (fun tag -> List.mem tag db.Encrypt.encrypted_tags) leaf_tags
  in
  (* Value index: each indexed attribute's entries, already in key
     order, bulk-loaded into its own tree. *)
  let index = Array.make attribute_slots empty_tree in
  List.iter
    (fun (tag, cat) ->
      if List.mem tag indexed_tags then
        index.(Opess.attr_id cat) <-
          Btree.bulk_load ~min_degree:16
            (attribute_entries cat doc ~tag ~target:(target_of db assignment)))
    catalogs;
  { assignment; dsi_table; block_table; index; catalogs; indexed_tags }

(* ------------------------------------------------------------------ *)
(* Incremental patching                                                *)

exception Patch_impossible of string

type change = {
  rows_removed : (string * Interval.t) list;
  rows_added : (string * Interval.t) list;
  catalogs_patched : int;
  index_entries_removed : int;
  index_entries_added : int;
}

module Iset = Set.Make (Int)

(* Between two key-sorted entry lists: how many old and how many new
   entries belong to keys whose entry list differs.  Each key's two
   runs are compared and counted where they lie. *)
let changed_entries old fresh =
  let at key = function (k, _) :: _ -> Int64.equal k key | [] -> false in
  let rec skip key n l = if at key l then skip key (n + 1) (List.tl l) else n, l in
  let rec same key a b =
    match a, b with
    | (_, x) :: a', (_, y) :: b' when at key a && at key b -> x = y && same key a' b'
    | _ -> not (at key a || at key b)
  in
  let rec go ((removed, added) as counts) old fresh =
    match old, fresh with
    | [], [] -> counts
    | (a, _) :: _, _ | [], (a, _) :: _ ->
      let key = match fresh with (b, _) :: _ -> Int64.min a b | [] -> a in
      let o, old' = skip key 0 old and f, fresh' = skip key 0 fresh in
      go (if same key old fresh then counts else removed + o, added + f) old' fresh'
  in
  go (0, 0) old fresh

(* The DSI table after removing and adding rows: only the keys a row
   names are regrouped; every other group is shared. *)
let regroup table ~removed ~added =
  let delta = Hashtbl.create 16 in
  let get k = Option.value ~default:([], []) (Hashtbl.find_opt delta k) in
  List.iter (fun (k, iv) -> let r, a = get k in Hashtbl.replace delta k (iv :: r, a)) removed;
  List.iter (fun (k, iv) -> let r, a = get k in Hashtbl.replace delta k (r, iv :: a)) added;
  let drop k ivl iv =
    let rec go = function
      | [] -> raise (Patch_impossible ("dsi row not found under " ^ k))
      | x :: rest when Interval.equal x iv -> rest
      | x :: rest -> x :: go rest
    in
    go ivl
  in
  let fresh =
    Hashtbl.fold (fun k _ acc -> if List.mem_assoc k table then acc else (k, []) :: acc) delta []
  in
  List.merge (fun (a, _) (b, _) -> String.compare a b) table
    (List.sort (fun (a, _) (b, _) -> String.compare a b) fresh)
  |> List.filter_map (fun (k, ivl) ->
         match Hashtbl.find_opt delta k with
         | None -> Some (k, ivl)
         | Some (r, a) ->
           if ivl = [] && r <> [] then
             raise (Patch_impossible ("dsi table has no group for " ^ k));
           (match
              List.merge Interval.compare_by_lo
                (List.fold_left (drop k) ivl r)
                (List.sort Interval.compare_by_lo a)
            with
            | [] -> None
            | ivl -> Some (k, ivl)))

(* The interval assignment, DSI table and block table after a
   structural edit, with the rows it removed and added.

   - Surviving nodes keep their exact interval (copied through the
     plan's correspondence); inserted subtrees land in the sibling gaps
     calInterval reserved and subdivide below that.
   - Only the parents whose child list changed have their rows
     recomputed: rows are a pure function of (children, tags,
     intervals, block membership), so every other parent contributes
     what a fresh build would. *)
let patch_structure ~keys t (plan : Update.plan) ~old_db ~new_db =
  let old_doc = old_db.Encrypt.doc in
  let new_doc = new_db.Encrypt.doc in
  let dsi_key = Crypto.Keys.dsi_key keys in
  let ivs = Array.make (Doc.node_count new_doc) (Interval.make 0.0 1.0) in
  Array.iteri
    (fun new_id old_id ->
      if old_id >= 0 then ivs.(new_id) <- Dsi.Assign.interval t.assignment old_id)
    plan.Update.old_of_new;
  List.iter
    (fun r ->
      let p =
        match Doc.parent new_doc r with
        | Some p -> p
        | None -> raise (Patch_impossible "inserted subtree at document root")
      in
      (* Neighbouring siblings survive the edit (one insert per parent),
         so their intervals are already in place; the gap between them
         (or out to the parent's bounds) is exactly what calInterval
         reserved for future inserts. *)
      let rec neighbors prev = function
        | [] -> prev, None
        | c :: rest when c = r ->
          prev, (match rest with [] -> None | next :: _ -> Some next)
        | c :: rest -> neighbors (Some c) rest
      in
      let prev, next = neighbors None (Doc.children new_doc p) in
      let lo =
        match prev with Some s -> ivs.(s).Interval.hi | None -> ivs.(p).Interval.lo
      in
      let hi =
        match next with Some s -> ivs.(s).Interval.lo | None -> ivs.(p).Interval.hi
      in
      ivs.(r) <- Dsi.Assign.interval_in_gap ~key:dsi_key ~label:r ~lo ~hi)
    plan.Update.inserted_roots;
  let assignment = Dsi.Assign.of_intervals new_doc ivs in
  List.iter
    (fun r -> Dsi.Assign.subdivide ~key:dsi_key assignment r)
    plan.Update.inserted_roots;
  let parents_of doc roots =
    List.fold_left
      (fun acc r -> match Doc.parent doc r with Some p -> Iset.add p acc | None -> acc)
      Iset.empty roots
  in
  let interior doc roots acc =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc n -> if Doc.children doc n <> [] then Iset.add n acc else acc)
          acc (Doc.descendant_or_self doc r))
      acc roots
  in
  let across map set =
    Iset.fold (fun p acc -> if map.(p) >= 0 then Iset.add map.(p) acc else acc) set Iset.empty
  in
  let deleted = plan.Update.deleted_roots and inserted = plan.Update.inserted_roots in
  let insert_parents = parents_of new_doc inserted in
  let affected_old =
    Iset.union
      (interior old_doc deleted (parents_of old_doc deleted))
      (across plan.Update.old_of_new insert_parents)
  in
  let affected_new =
    interior new_doc inserted
      (Iset.union insert_parents (across plan.Update.new_of_old (parents_of old_doc deleted)))
  in
  let rows doc assignment node_block parents =
    Iset.fold
      (fun p acc ->
        rows_for_children ~keys doc assignment node_block (Doc.children doc p) @ acc)
      parents []
  in
  let removed = rows old_doc t.assignment old_db.Encrypt.node_block affected_old in
  let added = rows new_doc assignment new_db.Encrypt.node_block affected_new in
  let block_table =
    List.map
      (fun b -> b.Encrypt.id, Dsi.Assign.interval assignment b.Encrypt.root)
      new_db.Encrypt.blocks
  in
  assignment, regroup t.dsi_table ~removed ~added, block_table, removed, added

(* Patch the metadata for one planned edit instead of rebuilding it.

   - A value edit leaves the assignment, DSI table and block table as
     they were, so they are shared; a structural edit patches them
     ([patch_structure]).
   - OPESS catalogs: only attributes whose value multiset changed are
     patched ([Opess.patch]: OPE re-runs only for chunks whose domain
     point moved), under their existing attr id, so every other
     attribute's keys survive verbatim.  A brand-new attribute takes
     the next free id.
   - Value index: an affected attribute whose keys' entry lists changed
     gets a fresh tree of its entries, listed in key order; every other
     tree is shared.

   Nothing in [t] is mutated, so [t] stays a valid index of the old
   document whether the patch succeeds or raises. *)
let patch ~keys ?(policy = All_leaves) t (plan : Update.plan) ~old_db ~new_db =
  let old_doc = old_db.Encrypt.doc in
  let new_doc = new_db.Encrypt.doc in
  let assignment, dsi_table, block_table, rows_removed, rows_added =
    if plan.Update.structural then patch_structure ~keys t plan ~old_db ~new_db
    else t.assignment, t.dsi_table, t.block_table, [], []
  in
  (* -- OPESS catalogs and value index ------------------------------ *)
  let affected_tags = Hashtbl.create 16 in
  let note doc roots =
    List.iter
      (fun r ->
        List.iter
          (fun n -> if Doc.value doc n <> None then Hashtbl.replace affected_tags (Doc.tag doc n) ())
          (Doc.descendant_or_self doc r))
      roots
  in
  note old_doc plan.Update.deleted_roots;
  note new_doc plan.Update.inserted_roots;
  note old_doc plan.Update.changed_values;
  let affected =
    List.sort String.compare (Hashtbl.fold (fun tag () acc -> tag :: acc) affected_tags [])
  in
  let next_attr_id =
    ref (1 + List.fold_left (fun acc (_, c) -> Int.max acc (Opess.attr_id c)) (-1)
           t.catalogs)
  in
  (* (tag, old catalog option, new catalog option) per affected tag. *)
  let catalog_changes =
    List.map
      (fun tag ->
        let histogram = Xmlcore.Stats.value_histogram new_doc ~tag in
        let old_cat = List.assoc_opt tag t.catalogs in
        let new_cat =
          match histogram, old_cat with
          | [], _ -> None
          | _, Some cat ->
            Some (Opess.patch ~key:(Crypto.Keys.opess_key keys ~attribute:tag) cat
                    histogram)
          | _, None ->
            let attr_id = !next_attr_id in
            if attr_id >= attribute_slots then
              raise (Patch_impossible "attribute id space exhausted");
            incr next_attr_id;
            Some
              (Opess.build ~key:(Crypto.Keys.opess_key keys ~attribute:tag)
                 ~attr_id ~tag histogram)
        in
        tag, old_cat, new_cat)
      affected
  in
  let catalogs =
    List.fold_left
      (fun cats (tag, _, new_cat) ->
        let without = List.remove_assoc tag cats in
        match new_cat with
        | None -> without
        | Some c ->
          List.sort (fun (a, _) (b, _) -> String.compare a b) ((tag, c) :: without))
      t.catalogs catalog_changes
  in
  let indexed tag =
    match policy with
    | All_leaves -> true
    | Encrypted_only -> List.mem tag new_db.Encrypt.encrypted_tags
  in
  let indexed_tags =
    List.fold_left
      (fun tags (tag, _, new_cat) ->
        let without = List.filter (fun x -> not (String.equal x tag)) tags in
        match new_cat with
        | Some _ when indexed tag -> List.sort String.compare (tag :: without)
        | Some _ | None -> without)
      t.indexed_tags catalog_changes
  in
  let index = Array.copy t.index in
  let index_entries_removed = ref 0 and index_entries_added = ref 0 in
  List.iter
    (fun (tag, old_cat, new_cat) ->
      match new_cat, old_cat with
      | None, None -> ()
      | Some cat, _ | None, Some cat ->
        let id = Opess.attr_id cat in
        let fresh =
          match new_cat with
          | Some cat when indexed tag ->
            attribute_entries cat new_doc ~tag ~target:(target_of new_db assignment)
          | Some _ | None -> []
        in
        let removed, added = changed_entries (Btree.to_list t.index.(id)) fresh in
        if removed + added > 0 then index.(id) <- Btree.bulk_load ~min_degree:16 fresh;
        index_entries_removed := !index_entries_removed + removed;
        index_entries_added := !index_entries_added + added)
    catalog_changes;
  ( { assignment; dsi_table; block_table; index; catalogs; indexed_tags },
    { rows_removed;
      rows_added;
      catalogs_patched = List.length catalog_changes;
      index_entries_removed = !index_entries_removed;
      index_entries_added = !index_entries_added } )

let catalog t ~tag = List.assoc_opt tag t.catalogs

let table_entry_count t =
  List.fold_left (fun acc (_, ivs) -> acc + List.length ivs) 0 t.dsi_table

type index_summary = {
  entries : int;
  height : int;
}

let index_summary t =
  Array.fold_left
    (fun s tree ->
      { entries = s.entries + Btree.length tree;
        height = Int.max s.height (Btree.height tree) })
    { entries = 0; height = 1 } t.index

let index_entries t = List.concat_map Btree.to_list (Array.to_list t.index)

let key_histogram t =
  List.fold_left
    (fun acc (key, _) ->
      match acc with
      | (k, count) :: rest when Int64.equal k key -> (k, count + 1) :: rest
      | _ -> (key, 1) :: acc)
    [] (index_entries t)
  |> List.rev

let metadata_bytes t =
  let interval_bytes = 16 in
  let table =
    List.fold_left
      (fun acc (key, ivs) ->
        acc + String.length key + (List.length ivs * interval_bytes))
      0 t.dsi_table
  in
  let blocks = List.length t.block_table * (8 + interval_bytes) in
  let index_bytes = (index_summary t).entries * (8 + interval_bytes) in
  table + blocks + index_bytes
