module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree

(* Lexicographic next permutation over a string array; returns false at
   the last permutation.  Skips duplicate arrangements by construction
   (standard multiset-permutation behaviour). *)
let next_permutation a =
  let n = Array.length a in
  let rec find_pivot i =
    if i < 0 then None else if a.(i) < a.(i + 1) then Some i else find_pivot (i - 1)
  in
  match find_pivot (n - 2) with
  | None -> false
  | Some i ->
    let rec find_successor j = if a.(j) > a.(i) then j else find_successor (j - 1) in
    let j = find_successor (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp;
    (* Reverse the suffix. *)
    let lo = ref (i + 1) and hi = ref (n - 1) in
    while !lo < !hi do
      let t = a.(!lo) in
      a.(!lo) <- a.(!hi);
      a.(!hi) <- t;
      incr lo;
      decr hi
    done;
    true

(* Rebuild the document with the [tag] leaves' values replaced by the
   given assignment (in document order). *)
let with_assignment doc ~tag values =
  let slots = Doc.nodes_with_tag doc tag in
  let assignment = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace assignment n values.(i)) slots;
  let rec rebuild n =
    match Doc.value doc n with
    | Some v ->
      let v = Option.value ~default:v (Hashtbl.find_opt assignment n) in
      Tree.leaf (Doc.tag doc n) v
    | None -> Tree.element (Doc.tag doc n) (List.map rebuild (Doc.children doc n))
  in
  Doc.of_tree (rebuild (Doc.root doc))

let value_permutations doc ~tag ~limit =
  let slots = Doc.nodes_with_tag doc tag in
  let original =
    Array.of_list (List.map (fun n -> Option.get (Doc.value doc n)) slots)
  in
  if Array.length original = 0 then []
  else begin
    (* Enumerate from the sorted arrangement so all distinct multiset
       permutations are visited; put the original first. *)
    let current = Array.copy original in
    Array.sort String.compare current;
    let out = ref [ doc ] in
    let count = ref 1 in
    let continue = ref true in
    while !continue && !count < limit do
      if current <> original then begin
        out := with_assignment doc ~tag current :: !out;
        incr count
      end;
      continue := next_permutation current
    done;
    List.rev !out
  end

let candidate_count doc ~tag =
  let hist = Xmlcore.Stats.value_histogram doc ~tag in
  Counting.multinomial (List.map snd hist)

let structural_assignments ~leaves ~intervals =
  if leaves <= 0 || intervals <= 0 || intervals > leaves then
    invalid_arg "Candidates.structural_assignments: need 0 < intervals <= leaves";
  (* Compositions of [leaves] into [intervals] positive parts. *)
  let rec go remaining parts =
    if parts = 1 then [ [ remaining ] ]
    else
      List.concat_map
        (fun first ->
          List.map (fun rest -> first :: rest)
            (go (remaining - first) (parts - 1)))
        (List.init (remaining - parts + 1) (fun i -> i + 1))
  in
  go leaves intervals

let structural_candidate_trees ~tag ~leaf_tag ~values ~intervals =
  let leaves = List.length values in
  List.map
    (fun assignment ->
      let rec split values = function
        | [] -> []
        | size :: rest ->
          let rec take k = function
            | vs when k = 0 -> [], vs
            | v :: vs ->
              let taken, remaining = take (k - 1) vs in
              v :: taken, remaining
            | [] -> [], []
          in
          let group, remaining = take size values in
          Tree.element (tag ^ "_g") (List.map (Tree.leaf leaf_tag) group)
          :: split remaining rest
      in
      Tree.element tag (split values assignment))
    (structural_assignments ~leaves ~intervals)

type report = {
  candidates : int;
  all_conform : bool;
  equal_sizes : bool;
  equal_index_histograms : bool;
  satisfying_original : int;
}

let indistinguishability_report ~master ~constraints ~kind ~tag ~limit doc =
  let schema = Xmlcore.Schema.infer doc in
  let candidates = value_permutations doc ~tag ~limit in
  let all_conform =
    List.for_all (fun d -> Xmlcore.Schema.conforms d schema = Ok ()) candidates
  in
  (* Queries captured by association SCs in the true database. *)
  let captured =
    List.concat_map
      (fun sc ->
        match sc with
        | Sc.Association _ ->
          List.map (fun c -> c.Sc.query) (Sc.captured_queries doc sc)
        | Sc.Node_type _ -> [])
      constraints
  in
  let systems =
    List.map (fun d -> d, fst (System.setup ~master d constraints kind)) candidates
  in
  let sizes =
    List.map (fun (_, sys) -> Encrypt.encrypted_bytes (System.db sys)) systems
  in
  let equal_sizes =
    match sizes with
    | [] -> true
    | s :: rest -> List.for_all (fun s' -> s' = s) rest
  in
  let histograms =
    List.map (fun (_, sys) -> Metadata.key_histogram (System.metadata sys)) systems
  in
  let equal_index_histograms =
    match histograms with
    | [] -> true
    | h :: rest -> List.for_all (fun h' -> h' = h) rest
  in
  let satisfying_original =
    List.length
      (List.filter
         (fun (d, _) -> List.for_all (fun q -> Xpath.Eval.matches d q) captured)
         systems)
  in
  { candidates = List.length candidates;
    all_conform;
    equal_sizes;
    equal_index_histograms;
    satisfying_original }
