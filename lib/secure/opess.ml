type chunk = {
  cipher : int64;
  occurrences : int;
}

type value_entry = {
  value : string;
  numeric : float;
  count : int;
  chunks : chunk list;
  scale : int;
}

type t = {
  tag : string;
  attr_id : int;
  m : int;
  num_keys : int;
  entries : value_entry list;
  by_value : (string, value_entry) Hashtbl.t;
}

let tag t = t.tag
let attr_id t = t.attr_id
let chunk_parameter t = t.m
let key_count t = t.num_keys
let entries t = t.entries
let find_entry t v = Hashtbl.find_opt t.by_value v

let namespace ~attr_id cipher =
  Int64.logor (Int64.shift_left (Int64.of_int attr_id) 56) cipher

(* [n] splits into chunks of sizes m-1, m, m+1 iff some chunk count [c]
   satisfies c(m-1) <= n <= c(m+1). *)
let expressible ~m n =
  let cmin = (n + m) / (m + 1) in
  cmin * (m - 1) <= n

(* Largest m for which every count >= 2 decomposes; counts of 1 are
   handled separately (single chunk + scaling). *)
let choose_m counts =
  let splittable = List.filter (fun n -> n >= 2) counts in
  match splittable with
  | [] -> 2
  | _ ->
    let upper = List.fold_left min max_int splittable + 1 in
    let rec search m =
      if m <= 2 then 2
      else if List.for_all (expressible ~m) splittable then m
      else search (m - 1)
    in
    search upper

(* Chunk sizes for one count: k1 of m-1, k2 of m, k3 of m+1. *)
let decompose ~m n =
  if n = 1 then [ 1 ]
  else begin
    let c = (n + m) / (m + 1) in
    let c = if c * (m - 1) > n then c + 1 else c in
    assert (c * (m - 1) <= n && n <= c * (m + 1));
    let diff = n - (c * m) in
    let k1, k2, k3 =
      if diff >= 0 then 0, c - diff, diff else -diff, c + diff, 0
    in
    List.concat
      [ List.init k1 (fun _ -> m - 1);
        List.init k2 (fun _ -> m);
        List.init k3 (fun _ -> m + 1) ]
  end

(* Map the histogram's values onto the number line: by their numbers
   when every value parses as one, by lexicographic rank otherwise (the
   client keeps the rank mapping — it is this catalog).  [None] asks
   for ranks. *)
let positions ~numeric histogram =
  let numbers =
    List.filter_map
      (fun (v, n) -> Option.map (fun num -> v, num, n) (float_of_string_opt v))
      histogram
  in
  if numeric && List.length numbers = List.length histogram then
    List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) numbers
  else
    List.sort (fun (a, _) (b, _) -> String.compare a b) histogram
    |> List.mapi (fun i (v, n) -> v, float_of_int i, n)

let of_parts ~tag ~attr_id ~m ~num_keys entries =
  let by_value = Hashtbl.create (List.length entries) in
  List.iter (fun e -> Hashtbl.replace by_value e.value e) entries;
  { tag; attr_id; m; num_keys; entries; by_value }

let domain_bits = 40

(* Everything [build] decides before any cryptography: the positioned
   domain, [m], [K], and each chunk's size and point in the OPE domain.
   A pure function of (key, histogram) that costs K PRF calls, so
   [patch] can afford to recompute it for the old catalog too. *)
type layout = {
  positioned : (string * float * int) list;
  m : int;
  num_keys : int;
  sizes : int list list;      (* per value, chunk sizes *)
  points : int64 list list;   (* per value, chunk domain points *)
}

let rec layout ?(numeric = true) ~key histogram =
  let positioned = positions ~numeric histogram in
  let counts = List.map (fun (_, _, n) -> n) positioned in
  let m = choose_m counts in
  let sizes = List.map (fun n -> decompose ~m n) counts in
  let num_keys = List.fold_left (fun acc d -> max acc (List.length d)) 1 sizes in
  (* Split weights w_1..w_K in (1/(2(K+1)), 1/(K+1)), sorted ascending;
     prefix sums stay below K/(K+1) < 1 so chunk j of v_i never reaches
     v_i + delta_i: the paper's no-straddling condition. *)
  let weights =
    Array.init num_keys (fun i ->
        let kf = float_of_int (num_keys + 1) in
        Crypto.Hmac.prf_float_in ~key (Printf.sprintf "split-w\x00%d" i)
          (1.0 /. (2.0 *. kf))
          (1.0 /. kf))
  in
  Array.sort Float.compare weights;
  let prefix = Array.make (num_keys + 1) 0.0 in
  for i = 1 to num_keys do
    prefix.(i) <- prefix.(i - 1) +. weights.(i - 1)
  done;
  (* Per-value gap to the successor; the last value reuses the maximum
     gap (any positive bound works — nothing sits above it). *)
  let positions = Array.of_list (List.map (fun (_, num, _) -> num) positioned) in
  let k = Array.length positions in
  let max_gap =
    let g = ref 1.0 in
    for i = 0 to k - 2 do
      g := Float.max !g (positions.(i + 1) -. positions.(i))
    done;
    !g
  in
  let delta i = if i < k - 1 then positions.(i + 1) -. positions.(i) else max_gap in
  (* Collect displaced reals, then fix a global monotone real->int map. *)
  let displaced =
    List.mapi
      (fun i ((_, num, _), chunk_sizes) ->
        let d = delta i in
        List.mapi (fun j _size -> num +. (prefix.(j + 1) *. d)) chunk_sizes)
      (List.combine positioned sizes)
  in
  let lo = if k = 0 then 0.0 else positions.(0) in
  let hi =
    List.fold_left (List.fold_left Float.max) (lo +. 1.0) displaced
  in
  let fixscale = (Int64.to_float (Int64.shift_left 1L domain_bits) -. 2.0) /. (hi -. lo) in
  let to_domain x = Int64.of_float (Float.round ((x -. lo) *. fixscale)) in
  let points = List.map (List.map to_domain) displaced in
  (* Numbers that are not finite, or whose spread overflows or swamps
     the domain, give points that are negative or fail to climb within
     a value; such an attribute is ranked instead.  A layout that does
     not fail keeps its numbers, so finite catalogs are unchanged. *)
  let rec climbs = function
    | a :: (b :: _ as rest) -> a < b && climbs rest
    | [ _ ] | [] -> true
  in
  if numeric
     && not (Float.is_finite (hi -. lo) && List.for_all (fun ps -> climbs (-1L :: ps)) points)
  then layout ~numeric:false ~key histogram
  else { positioned; m; num_keys; sizes; points }

let ope_of ~key =
  Crypto.Ope.create ~key:(Crypto.Sha256.digest (key ^ "\x00ope")) ~domain_bits

let scale_of ~key value = 1 + Crypto.Hmac.prf_int ~key ("scale\x00" ^ value) 10

(* The catalog a layout describes, given each chunk's namespaced cipher
   and each value's scale. *)
let assemble ~attr_id ~tag layout ~cipher ~scale =
  let entries =
    List.map2
      (fun (value, numeric, count) (sizes, points) ->
        let chunks =
          List.map2 (fun size point -> { cipher = cipher point; occurrences = size })
            sizes points
        in
        (* OPE is monotone, so chunks come out sorted; check anyway. *)
        let rec sorted = function
          | a :: (b :: _ as rest) -> a.cipher < b.cipher && sorted rest
          | [ _ ] | [] -> true
        in
        assert (sorted chunks);
        { value; numeric; count; chunks; scale = scale value })
      layout.positioned
      (List.combine layout.sizes layout.points)
  in
  of_parts ~tag ~attr_id ~m:layout.m ~num_keys:layout.num_keys entries

let build ~key ~attr_id ~tag histogram =
  if attr_id < 0 || attr_id > 126 then
    invalid_arg "Opess.build: attr_id must be in [0, 126]";
  let ope = ope_of ~key in
  assemble ~attr_id ~tag (layout ~key histogram)
    ~cipher:(fun point -> namespace ~attr_id (Crypto.Ope.encrypt ope point))
    ~scale:(scale_of ~key)

(* Incremental-update entry point.  [build] is deterministic in
   (key, attr_id, tag, histogram), and OPE is a function of the domain
   point alone, so the patched catalog is [build] on the new histogram
   with the expensive parts looked up instead of recomputed: the old
   catalog's own layout names the domain point behind every old
   cipher, a chunk whose point did not move keeps its cipher, a
   surviving value keeps its scale, and OPE runs only for points that
   moved.  An edit that moves the extremes, the largest gap or [K]
   moves every point and pays for a full build.  Structural edits that
   leave the value multiset alone get the catalog back as-is. *)
let patch ~key t histogram =
  let by_value (a, _) (b, _) = String.compare a b in
  let current = List.sort by_value (List.map (fun e -> e.value, e.count) t.entries) in
  if current = List.sort by_value histogram then t
  else begin
    let old_layout = layout ~key current in
    let cipher_at = Hashtbl.create 64 in
    List.iter2
      (fun (value, _, _) points ->
        List.iter2
          (fun c p -> Hashtbl.replace cipher_at p c.cipher)
          (Hashtbl.find t.by_value value).chunks points)
      old_layout.positioned old_layout.points;
    let ope = lazy (ope_of ~key) in
    let attr_id = t.attr_id in
    assemble ~attr_id ~tag:t.tag (layout ~key histogram)
      ~cipher:(fun point ->
        match Hashtbl.find_opt cipher_at point with
        | Some cipher -> cipher
        | None -> namespace ~attr_id (Crypto.Ope.encrypt (Lazy.force ope) point))
      ~scale:(fun value ->
        match Hashtbl.find_opt t.by_value value with
        | Some e -> e.scale
        | None -> scale_of ~key value)
  end

let occurrence_cipher t ~value ~occurrence =
  match Hashtbl.find_opt t.by_value value with
  | None -> raise Not_found
  | Some entry ->
    let rec pick skipped = function
      | [] -> raise Not_found
      | c :: rest ->
        if occurrence < skipped + c.occurrences then c.cipher
        else pick (skipped + c.occurrences) rest
    in
    pick 0 entry.chunks

(* First and last ciphertext of an entry's chunk list (chunks are built
   sorted ascending).  [None] only for a chunkless entry, which [build]
   never produces but [of_parts] cannot rule out. *)
let chunk_span entry =
  match entry.chunks with
  | [] -> None
  | first :: rest ->
    let last = List.fold_left (fun _ c -> c) first rest in
    Some (first.cipher, last.cipher)

(* Span of a run of entries in catalog order: the first non-empty
   entry's low cipher to the last non-empty entry's high cipher. *)
let entries_span entries =
  List.fold_left
    (fun acc entry ->
      match chunk_span entry, acc with
      | None, acc -> acc
      | Some span, None -> Some span
      | Some (_, hi), Some (lo, _) -> Some (lo, hi))
    None entries

let translate t op literal =
  let qualifies entry = Xpath.Eval.compare_values entry.value op literal in
  (* Entries are sorted by numeric position; qualifying entries form
     runs, each becoming one ciphertext range. *)
  let rec runs acc current = function
    | [] -> List.rev (match current with None -> acc | Some r -> r :: acc)
    | entry :: rest ->
      if qualifies entry then
        let current =
          match current with
          | None -> Some (entry, entry)
          | Some (first, _) -> Some (first, entry)
        in
        runs acc current rest
      else
        let acc = match current with None -> acc | Some r -> r :: acc in
        runs acc None rest
  in
  let to_range (first, last) = entries_span [ first; last ] in
  List.filter_map to_range (runs [] None t.entries)

let full_range t = entries_span t.entries

let ciphertext_histogram t =
  List.concat_map
    (fun e -> List.map (fun c -> c.cipher, c.occurrences) e.chunks)
    t.entries

let scaled_histogram t =
  List.concat_map
    (fun e -> List.map (fun c -> c.cipher, c.occurrences * e.scale) e.chunks)
    t.entries
