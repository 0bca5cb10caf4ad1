(* The bounds are also kept unboxed, for the position search, and each
   interval's multiplicity (how many rows hold it), so a patch knows
   when an interval leaves. *)
type t = {
  intervals : Interval.t array;
  lo : float array;
  hi : float array;
  count : int array;
  forest : Xmlcore.Forest.t;
}

let size u = Array.length u.intervals
let interval u p = u.intervals.(p)
let forest u = u.forest

let position ?(from = 0) u iv =
  let n = size u in
  let lo_iv = iv.Interval.lo and hi_iv = iv.Interval.hi in
  (* [Interval.compare_by_lo (interval u k) iv < 0] *)
  let below k = u.lo.(k) < lo_iv || (u.lo.(k) = lo_iv && u.hi.(k) > hi_iv) in
  (* The first position not below [iv] lies in (lo, hi]: gallop from
     [from] when [iv] lies beyond it, then bisect. *)
  let lo = ref (-1) and hi = ref n and step = ref 1 in
  if from < n && below from then begin
    lo := from;
    while !lo + !step < n && below (!lo + !step) do
      lo := !lo + !step;
      step := 2 * !step
    done;
    hi := Int.min n (!lo + !step)
  end;
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if below mid then lo := mid else hi := mid
  done;
  if !hi < n && u.lo.(!hi) = lo_iv && u.hi.(!hi) = hi_iv then Some !hi else None

(* Sorted intervals, each once, with their multiplicities. *)
let of_sorted intervals count =
  { intervals;
    lo = Array.map (fun iv -> iv.Interval.lo) intervals;
    hi = Array.map (fun iv -> iv.Interval.hi) intervals;
    count;
    forest =
      Xmlcore.Forest.of_nesting (Array.length intervals) ~contains:(fun i j ->
          Interval.contains intervals.(i) intervals.(j)) }

(* Sorted and counted: equal intervals collapse into one entry. *)
let counted ivs =
  let rec go acc = function
    | [] -> List.rev acc
    | iv :: rest ->
      (match acc with
       | (prev, c) :: acc' when Interval.compare_by_lo prev iv = 0 -> go ((prev, c + 1) :: acc') rest
       | _ -> go ((iv, 1) :: acc) rest)
  in
  go [] (List.sort Interval.compare_by_lo ivs)

(* each row finds its positions by galloping along the universe *)
let members u ivs =
  let from = ref 0 in
  Xmlcore.Forest.of_unsorted
    (Array.of_list
       (List.filter_map
          (fun iv ->
            let p = position ~from:!from u iv in
            Option.iter (fun p -> from := p) p;
            p)
          ivs))

let index rows =
  let entries = Array.of_list (counted (List.concat (Array.to_list rows))) in
  let u = of_sorted (Array.map fst entries) (Array.map snd entries) in
  u, Array.map (members u) rows

(* One merge of the survivors with the newcomers, both in universe
   order; the old positions are renumbered as they are passed.
   [order.(k)] names the interval at new position [k]: an old position,
   or [-1 - i] for newcomer [i]. *)
let patch u ~removed ~added =
  let count = Array.copy u.count in
  List.iter
    (fun iv ->
      match position u iv with
      | Some p when count.(p) > 0 -> count.(p) <- count.(p) - 1
      | Some _ | None ->
        invalid_arg "Dsi.Universe.patch: a removed interval is not in the universe")
    removed;
  let fresh =
    Array.of_list
      (List.filter
         (fun (iv, c) ->
           match position u iv with
           | Some p ->
             count.(p) <- count.(p) + c;
             false
           | None -> true)
         (counted added))
  in
  let n = size u and f = Array.length fresh in
  let kept = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 count in
  let remap = Array.make n (-1) and order = Array.make (kept + f) 0 in
  let k = ref 0 and j = ref 0 in
  let take_fresh_below bound =
    while !j < f && bound (fst fresh.(!j)) do
      order.(!k) <- -1 - !j;
      incr j;
      incr k
    done
  in
  for p = 0 to n - 1 do
    take_fresh_below (fun iv -> Interval.compare_by_lo iv u.intervals.(p) < 0);
    if count.(p) > 0 then begin
      remap.(p) <- !k;
      order.(!k) <- p;
      incr k
    end
  done;
  take_fresh_below (fun _ -> true);
  ( of_sorted
      (Array.map (fun o -> if o >= 0 then u.intervals.(o) else fst fresh.(-1 - o)) order)
      (Array.map (fun o -> if o >= 0 then count.(o) else snd fresh.(-1 - o)) order),
    remap )
