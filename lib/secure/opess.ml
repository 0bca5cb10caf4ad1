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

(* Everything [build] decides before OPE: the positioned domain, [m],
   [K], and each chunk's size and point in the OPE domain.  A pure
   function of (key, histogram) that costs K PRF calls, so [patch] can
   afford to recompute it for the old catalog too. *)
type layout = {
  positioned : (string * float * int) list;
  m : int;
  num_keys : int;
  sizes : int list list;      (* per value, chunk sizes *)
  points : int64 array;       (* every chunk's domain point, value by value *)
}

type t = {
  tag : string;
  attr_id : int;
  m : int;
  num_keys : int;
  entries : value_entry list;
  by_value : (string, value_entry) Hashtbl.t;
  assembled_from : layout option;
      (* the layout [patch] assembled this catalog from, so the next
         patch need not recompute it; [None] for a built or loaded
         catalog *)
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
  { tag; attr_id; m; num_keys; entries; by_value; assembled_from = None }

let domain_bits = 40

let prf_of ~key = Crypto.Hmac.prf (Crypto.Hmac.prepare ~key)

let rec layout ?(numeric = true) prf histogram =
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
        let lo = 1.0 /. (2.0 *. kf) and hi = 1.0 /. kf in
        Crypto.Hmac.eval prf "split-w\x00" i (-1) "";
        lo +. (Float.of_int (Crypto.Hmac.bits prf 53) /. 9007199254740992.0 *. (hi -. lo)))
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
  then layout ~numeric:false prf histogram
  else { positioned; m; num_keys; sizes; points = Array.of_list (List.concat points) }

let ope_of ~key =
  Crypto.Ope.create ~key:(Crypto.Sha256.digest (key ^ "\x00ope")) ~domain_bits

(* Namespaced OPE ciphers of a layout's points, in one batch.  The
   points never descend: within a value they climb (the layout checks),
   and a value's last displacement stays below the next value's
   position, since the prefix weights sum to less than K/(K+1) of the
   gap, far more than rounding can take back. *)
let ciphers_of ~key ~attr_id points =
  Array.map (namespace ~attr_id) (Crypto.Ope.encrypt (ope_of ~key) points)

let scale_of prf value =
  Crypto.Hmac.eval prf "scale\x00" (-1) (-1) value;
  1 + Crypto.Hmac.below prf 10

(* The catalog a layout describes, given every chunk's namespaced
   cipher in the layout's point order and each value's scale. *)
let assemble ~attr_id ~tag layout ciphers ~scale =
  let next = ref 0 in
  let chunk size =
    let c = { cipher = ciphers.(!next); occurrences = size } in
    incr next;
    c
  in
  let entries =
    List.rev
      (List.fold_left2
         (fun acc (value, numeric, count) sizes ->
           let chunks = List.rev (List.fold_left (fun acc size -> chunk size :: acc) [] sizes) in
           (* OPE is monotone, so chunks come out sorted; check anyway. *)
           let rec sorted = function
             | a :: (b :: _ as rest) -> a.cipher < b.cipher && sorted rest
             | [ _ ] | [] -> true
           in
           assert (sorted chunks);
           { value; numeric; count; chunks; scale = scale value } :: acc)
         [] layout.positioned layout.sizes)
  in
  of_parts ~tag ~attr_id ~m:layout.m ~num_keys:layout.num_keys entries

(* One PRF evaluator serves the split weights and every scale, and OPE
   runs once over all the chunk points. *)
let build ~key ~attr_id ~tag histogram =
  if attr_id < 0 || attr_id > 126 then
    invalid_arg "Opess.build: attr_id must be in [0, 126]";
  let prf = prf_of ~key in
  let layout = layout prf histogram in
  assemble ~attr_id ~tag layout (ciphers_of ~key ~attr_id layout.points) ~scale:(scale_of prf)

(* Incremental-update entry point.  [build] is deterministic in
   (key, attr_id, tag, histogram), and OPE is a function of the domain
   point alone, so the patched catalog is [build] on the new histogram
   with the expensive parts looked up instead of recomputed: the old
   catalog's own layout (kept by the patch that assembled it, else
   recomputed) names the domain point behind every old cipher, a chunk
   whose point did not move keeps its cipher, a surviving value keeps
   its scale, and OPE runs once, over the points that moved.  Old and
   new points both climb, so one merge pairs them.  An edit that moves
   the extremes, the largest gap or [K] moves every point and pays for
   a full build.  Structural edits that leave the value multiset alone
   get the catalog back as-is. *)
let patch ~key t histogram =
  let unchanged =
    List.compare_length_with histogram (Hashtbl.length t.by_value) = 0
    && List.for_all
         (fun (value, count) ->
           match Hashtbl.find_opt t.by_value value with
           | Some e -> e.count = count
           | None -> false)
         histogram
  in
  if unchanged then t
  else begin
    let prf = prf_of ~key in
    let old_layout =
      match t.assembled_from with
      | Some old_layout -> old_layout
      | None ->
        layout prf
          (List.sort (fun (a, _) (b, _) -> String.compare a b)
             (List.map (fun e -> e.value, e.count) t.entries))
    in
    let old_points = old_layout.points in
    let old_ciphers =
      Array.of_list
        (List.concat_map
           (fun (value, _, _) -> List.map (fun c -> c.cipher) (Hashtbl.find t.by_value value).chunks)
           old_layout.positioned)
    in
    if Array.length old_ciphers <> Array.length old_points then
      invalid_arg "Opess.patch: catalog does not match its layout";
    let new_layout = layout prf histogram in
    let points = new_layout.points in
    let ciphers = Array.make (Array.length points) 0L in
    let moved = ref [] and j = ref 0 in
    Array.iteri
      (fun i point ->
        while !j < Array.length old_points && old_points.(!j) < point do incr j done;
        if !j < Array.length old_points && old_points.(!j) = point then
          ciphers.(i) <- old_ciphers.(!j)
        else moved := i :: !moved)
      points;
    let attr_id = t.attr_id in
    if !moved <> [] then begin
      let moved = Array.of_list (List.rev !moved) in
      let fresh = ciphers_of ~key ~attr_id (Array.map (fun i -> points.(i)) moved) in
      Array.iteri (fun k i -> ciphers.(i) <- fresh.(k)) moved
    end;
    let patched =
      assemble ~attr_id ~tag:t.tag new_layout ciphers ~scale:(fun value ->
          match Hashtbl.find_opt t.by_value value with
          | Some e -> e.scale
          | None -> scale_of prf value)
    in
    { patched with assembled_from = Some new_layout }
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
