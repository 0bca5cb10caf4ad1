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
  btree : target Btree.t;
  catalogs : (string * Opess.t) list;
  indexed_tags : string list;
}

let token_key = function
  | Squery.Clear tag -> "P:" ^ tag
  | Squery.Enc hex -> "E:" ^ hex

let encrypted_token ~keys tag =
  Squery.Enc
    (Crypto.Vernam.encrypt_hex
       ~key:(Crypto.Keys.tag_key keys)
       ~pad_id:(Crypto.Keys.tag_pad_id tag)
       tag)

(* Block id containing node [n] (including block roots), or None.
   Served from the node→block table [Encrypt.make_db] precomputed. *)
let block_index db =
  Array.map
    (fun id -> if id < 0 then None else Some id)
    db.Encrypt.node_block

(* DSI index table rows contributed by one sibling list: runs of
   adjacent same-tag siblings inside the same block collapse to their
   hull.  Factored per-parent so the incremental [patch] can recompute
   exactly the affected parents' contributions — the rows are a pure
   function of (children, tags, intervals, block membership), so a
   parent whose child list did not change contributes byte-identical
   rows in the old and new states. *)
let rows_for_children ~keys doc assignment block_of children =
  let rows = ref [] in
  let emit node_run =
    match node_run with
    | [] -> ()
    | first :: _ ->
      let tag = Doc.tag doc first in
      let token =
        match block_of.(first) with
        | Some _ -> encrypted_token ~keys tag
        | None -> Squery.Clear tag
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
    && block_of.(a) = block_of.(b)
    && block_of.(a) <> None
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
let table_rows ~keys db assignment block_of =
  let doc = db.Encrypt.doc in
  let rows = ref (rows_for_children ~keys doc assignment block_of [ Doc.root doc ]) in
  Doc.iter doc (fun n ->
      match Doc.children doc n with
      | [] -> ()
      | children ->
        rows := rows_for_children ~keys doc assignment block_of children @ !rows);
  !rows

let build ?pool ~keys ?(policy = All_leaves) db =
  let doc = db.Encrypt.doc in
  let assignment = Dsi.Assign.assign ~key:(Crypto.Keys.dsi_key keys) doc in
  let block_of = block_index db in
  let rows = table_rows ~keys db assignment block_of in
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
  if List.length leaf_tags > 127 then
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
  let catalog_of = Hashtbl.create 32 in
  List.iter (fun (tag, c) -> Hashtbl.replace catalog_of tag c) catalogs;
  (* Which attributes enter the value index. *)
  let indexed_tags =
    match policy with
    | All_leaves -> leaf_tags
    | Encrypted_only ->
      List.filter (fun tag -> List.mem tag db.Encrypt.encrypted_tags) leaf_tags
  in
  let indexed_set = Hashtbl.create 32 in
  List.iter (fun tag -> Hashtbl.replace indexed_set tag ()) indexed_tags;
  (* Value index: one entry per occurrence per scale replica,
     bulk-loaded in one pass. *)
  let occurrence_counters = Hashtbl.create 1024 in
  let entries = ref [] in
  Doc.iter doc (fun n ->
      match Doc.value doc n with
      | None -> ()
      | Some v when Hashtbl.mem indexed_set (Doc.tag doc n) ->
        let tag = Doc.tag doc n in
        let cat = Hashtbl.find catalog_of tag in
        let counter_key = (tag, v) in
        let occurrence =
          Option.value ~default:0 (Hashtbl.find_opt occurrence_counters counter_key)
        in
        Hashtbl.replace occurrence_counters counter_key (occurrence + 1);
        let cipher = Opess.occurrence_cipher cat ~value:v ~occurrence in
        let target =
          match block_of.(n) with
          | Some id -> To_block id
          | None -> To_plain (Dsi.Assign.interval assignment n)
        in
        let scale =
          match Opess.find_entry cat v with
          | Some entry -> entry.Opess.scale
          | None -> 1
        in
        for _ = 1 to scale do
          entries := (cipher, target) :: !entries
        done
      | Some _ -> ());
  let btree = Btree.bulk_load ~min_degree:16 (List.rev !entries) in
  { assignment; dsi_table; block_table; btree; catalogs; indexed_tags }

(* ------------------------------------------------------------------ *)
(* Incremental patching                                                *)

exception Patch_impossible of string

type patch_stats = {
  rows_removed : int;
  rows_added : int;
  catalogs_patched : int;
  index_entries_removed : int;
  index_entries_added : int;
}

module Iset = Set.Make (Int)
module Kmap = Map.Make (Int64)

(* Entries grouped per key, each key's payloads in list order. *)
let by_key entries =
  List.fold_left
    (fun acc (key, v) ->
      Kmap.update key (fun vs -> Some (v :: Option.value ~default:[] vs)) acc)
    Kmap.empty (List.rev entries)

(* Namespace of one attribute in the shared B-tree: attr id in the top
   bits, 56 bits of OPE cipher below. *)
let namespace_range attr_id =
  let lo = Int64.shift_left (Int64.of_int attr_id) 56 in
  lo, Int64.logor lo 0xFF_FFFF_FFFF_FFFFL

(* Patch the metadata for one planned edit instead of rebuilding it.

   - DSI intervals: surviving nodes keep their exact interval (copied
     through the plan's correspondence); inserted subtrees land in the
     sibling gaps calInterval reserved and subdivide below that.
   - DSI table: only the parents whose child list changed have their
     rows recomputed; everything else is untouched (and provably equal
     to what a fresh build would emit for those parents, since rows are
     a pure function of unchanged inputs).
   - OPESS catalogs: only attributes whose value multiset changed are
     patched ([Opess.patch]: OPE re-runs only for chunks whose domain
     point moved), under their existing attr id, so every other
     attribute's B-tree namespace survives verbatim.  A brand-new
     attribute takes the next free id.
   - Value B-tree: an affected attribute's namespace is read and diffed
     key by key against its fresh entries; only keys whose entry list
     changed are deleted and re-inserted, and the rest of the tree is
     never traversed.

   All fallible work (interval drawing, row matching, catalog builds,
   cipher lookups) happens before the B-tree is mutated, so a raised
   [Patch_impossible] / [Invalid_argument] leaves [t] untouched and the
   caller can fall back to a full rebuild. *)
let patch ~keys ?(policy = All_leaves) t (plan : Update.plan) ~old_db ~new_db =
  let old_doc = old_db.Encrypt.doc in
  let new_doc = new_db.Encrypt.doc in
  (* -- interval assignment ---------------------------------------- *)
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
  (* -- DSI table surgery ------------------------------------------ *)
  let old_block_of = block_index old_db in
  let new_block_of = block_index new_db in
  let insert_parents_new =
    List.fold_left
      (fun acc r ->
        match Doc.parent new_doc r with Some p -> Iset.add p acc | None -> acc)
      Iset.empty plan.Update.inserted_roots
  in
  let affected_old_parents =
    let with_deletes =
      List.fold_left
        (fun acc d ->
          let acc =
            match Doc.parent old_doc d with
            | Some p -> Iset.add p acc
            | None -> acc
          in
          List.fold_left
            (fun acc n ->
              if Doc.children old_doc n <> [] then Iset.add n acc else acc)
            acc
            (Doc.descendant_or_self old_doc d))
        Iset.empty plan.Update.deleted_roots
    in
    Iset.fold
      (fun p acc ->
        let old_p = plan.Update.old_of_new.(p) in
        if old_p >= 0 then Iset.add old_p acc else acc)
      insert_parents_new with_deletes
  in
  let affected_new_parents =
    let with_deletes =
      List.fold_left
        (fun acc d ->
          match Doc.parent old_doc d with
          | Some p ->
            let np = plan.Update.new_of_old.(p) in
            if np >= 0 then Iset.add np acc else acc
          | None -> acc)
        Iset.empty plan.Update.deleted_roots
    in
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc n ->
            if Doc.children new_doc n <> [] then Iset.add n acc else acc)
          acc
          (Doc.descendant_or_self new_doc r))
      (Iset.union insert_parents_new with_deletes)
      plan.Update.inserted_roots
  in
  let removed_rows =
    Iset.fold
      (fun p acc ->
        rows_for_children ~keys old_doc t.assignment old_block_of
          (Doc.children old_doc p)
        @ acc)
      affected_old_parents []
  in
  let added_rows =
    Iset.fold
      (fun p acc ->
        rows_for_children ~keys new_doc assignment new_block_of
          (Doc.children new_doc p)
        @ acc)
      affected_new_parents []
  in
  let table = Hashtbl.create 256 in
  List.iter (fun (k, ivl) -> Hashtbl.replace table k ivl) t.dsi_table;
  List.iter
    (fun (k, iv) ->
      match Hashtbl.find_opt table k with
      | None -> raise (Patch_impossible ("dsi table has no group for " ^ k))
      | Some ivl ->
        let rec drop = function
          | [] -> raise (Patch_impossible ("dsi row not found under " ^ k))
          | x :: rest when Interval.equal x iv -> rest
          | x :: rest -> x :: drop rest
        in
        (match drop ivl with
         | [] -> Hashtbl.remove table k
         | ivl -> Hashtbl.replace table k ivl))
    removed_rows;
  List.iter
    (fun (k, iv) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt table k) in
      Hashtbl.replace table k (iv :: prev))
    added_rows;
  let dsi_table =
    Hashtbl.fold
      (fun key ivl acc -> (key, List.sort Interval.compare_by_lo ivl) :: acc)
      table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let block_table =
    List.map
      (fun b -> b.Encrypt.id, Dsi.Assign.interval assignment b.Encrypt.root)
      new_db.Encrypt.blocks
  in
  (* -- OPESS catalogs and value index ------------------------------ *)
  let affected_tags = Hashtbl.create 16 in
  let note tag = Hashtbl.replace affected_tags tag () in
  List.iter
    (fun d ->
      List.iter
        (fun n -> if Doc.value old_doc n <> None then note (Doc.tag old_doc n))
        (Doc.descendant_or_self old_doc d))
    plan.Update.deleted_roots;
  List.iter
    (fun r ->
      List.iter
        (fun n -> if Doc.value new_doc n <> None then note (Doc.tag new_doc n))
        (Doc.descendant_or_self new_doc r))
    plan.Update.inserted_roots;
  List.iter (fun n -> note (Doc.tag old_doc n)) plan.Update.changed_values;
  let affected = Hashtbl.fold (fun tag () acc -> tag :: acc) affected_tags [] in
  let affected = List.sort String.compare affected in
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
            if attr_id > 126 then
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
  (* Compute every fresh index entry before touching the tree: the
     occurrence→cipher mapping can only fail here, never mid-surgery. *)
  let fresh_entries =
    List.map
      (fun (tag, old_cat, new_cat) ->
        let fresh =
          match new_cat with
          | Some cat when indexed tag ->
            let counters = Hashtbl.create 64 in
            List.concat_map
              (fun n ->
                match Doc.value new_doc n with
                | None -> []
                | Some v ->
                  let occurrence =
                    Option.value ~default:0 (Hashtbl.find_opt counters v)
                  in
                  Hashtbl.replace counters v (occurrence + 1);
                  let cipher = Opess.occurrence_cipher cat ~value:v ~occurrence in
                  let target =
                    match new_block_of.(n) with
                    | Some id -> To_block id
                    | None -> To_plain (Dsi.Assign.interval assignment n)
                  in
                  let scale =
                    match Opess.find_entry cat v with
                    | Some entry -> entry.Opess.scale
                    | None -> 1
                  in
                  List.init scale (fun _ -> cipher, target))
              (Doc.nodes_with_tag new_doc tag)
          | Some _ | None -> []
        in
        old_cat, fresh)
      catalog_changes
  in
  (* Point of no return: everything below is infallible surgery.  Per
     attribute, the namespace's current entries are diffed against the
     fresh ones key by key; only a key whose entry list changed is
     deleted and re-inserted (in document order, as a rebuild would),
     so the tree's contents — duplicate order included — equal a
     delete-and-reinsert of the whole namespace. *)
  let index_entries_removed = ref 0 and index_entries_added = ref 0 in
  List.iter
    (fun (old_cat, fresh) ->
      let stale =
        match old_cat with
        | None -> Kmap.empty
        | Some cat ->
          let lo, hi = namespace_range (Opess.attr_id cat) in
          by_key (Btree.range t.btree ~lo ~hi)
      in
      Kmap.iter
        (fun key (was_indexed, entries) ->
          if was_indexed then
            index_entries_removed :=
              !index_entries_removed + Btree.delete_all t.btree key (fun _ -> true);
          List.iter (fun target -> Btree.insert t.btree key target) entries;
          index_entries_added := !index_entries_added + List.length entries)
        (Kmap.merge
           (fun _ old fresh ->
             match old, fresh with
             | Some o, Some f when o = f -> None
             | None, None -> None
             | _ -> Some (old <> None, Option.value ~default:[] fresh))
           stale (by_key fresh)))
    fresh_entries;
  let stats =
    { rows_removed = List.length removed_rows;
      rows_added = List.length added_rows;
      catalogs_patched = List.length catalog_changes;
      index_entries_removed = !index_entries_removed;
      index_entries_added = !index_entries_added }
  in
  ( { assignment; dsi_table; block_table; btree = t.btree; catalogs; indexed_tags },
    stats )

let catalog t ~tag = List.assoc_opt tag t.catalogs

let table_entry_count t =
  List.fold_left (fun acc (_, ivs) -> acc + List.length ivs) 0 t.dsi_table

let btree_entry_count t = Btree.length t.btree

let metadata_bytes t =
  let interval_bytes = 16 in
  let table =
    List.fold_left
      (fun acc (key, ivs) ->
        acc + String.length key + (List.length ivs * interval_bytes))
      0 t.dsi_table
  in
  let blocks = List.length t.block_table * (8 + interval_bytes) in
  let btree_bytes = Btree.length t.btree * (8 + interval_bytes) in
  table + blocks + btree_bytes
