type frequency_result = {
  domain_size : int;
  cracked : (string * int) list;
  crack_rate : float;
}

let frequency_attack ~known ~observed =
  (* [occurs_once counts c]: exactly one entry of [counts] has count [c]. *)
  let occurs_once counts =
    let h = Hashtbl.create 16 in
    List.iter
      (fun (_, c) -> Hashtbl.replace h c (1 + Option.value ~default:0 (Hashtbl.find_opt h c)))
      counts;
    fun c -> Hashtbl.find_opt h c = Some 1
  in
  let in_known = occurs_once known and in_observed = occurs_once observed in
  let cracked = List.filter (fun (_, c) -> in_known c && in_observed c) known in
  let domain_size = List.length known in
  { domain_size;
    cracked;
    crack_rate =
      (if domain_size = 0 then 0.0
       else float_of_int (List.length cracked) /. float_of_int domain_size) }

let deterministic_leaf_histogram known =
  List.mapi (fun i (_, count) -> Int64.of_int i, count) known

type coalescing_result = {
  valid_partitions : int;
  unique : bool;
}

let coalescing_attack ~known ~observed =
  let targets = Array.of_list (List.map snd known) in
  let counts = Array.of_list (List.map snd observed) in
  let n = Array.length counts and k = Array.length targets in
  let cap = 1_000_000 in
  (* ways.(i).(j): partitions of the first i ciphertext counts into the
     first j runs with matching sums. *)
  let ways = Array.make_matrix (n + 1) (k + 1) 0 in
  ways.(0).(0) <- 1;
  for j = 1 to k do
    for i = 1 to n do
      (* The j-th run ends at position i: scan back while the suffix
         sums to at most the target. *)
      let sum = ref 0 in
      let p = ref i in
      let acc = ref 0 in
      while !p >= 1 && !sum < targets.(j - 1) do
        sum := !sum + counts.(!p - 1);
        if !sum = targets.(j - 1) then
          acc := min cap (!acc + ways.(!p - 1).(j - 1));
        decr p
      done;
      ways.(i).(j) <- !acc
    done
  done;
  let valid = ways.(n).(k) in
  { valid_partitions = valid; unique = valid = 1 }

type size_result = {
  candidates : int;
  survivors : int;
}

let size_attack ~candidate_sizes ~target_size =
  { candidates = List.length candidate_sizes;
    survivors = List.length (List.filter (fun s -> s = target_size) candidate_sizes) }

let belief_sequence ~k ~n ~queries =
  let prior = 1.0 /. float_of_int k in
  let after = exp (-.Secure.Counting.log_compositions_count ~n ~k) in
  prior :: List.init queries (fun _ -> after)
