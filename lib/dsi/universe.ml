(* The bounds are also kept unboxed, for the position search. *)
type t = {
  intervals : Interval.t array;
  lo : float array;
  hi : float array;
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

let index rows =
  let intervals =
    Array.of_list (List.sort_uniq Interval.compare_by_lo (List.concat (Array.to_list rows)))
  in
  let u =
    { intervals;
      lo = Array.map (fun iv -> iv.Interval.lo) intervals;
      hi = Array.map (fun iv -> iv.Interval.hi) intervals;
      forest =
        Xmlcore.Forest.of_nesting (Array.length intervals) ~contains:(fun i j ->
            Interval.contains intervals.(i) intervals.(j)) }
  in
  (* each row finds its positions by galloping along the universe *)
  let members ivs =
    let from = ref 0 in
    Xmlcore.Forest.of_unsorted
      (Array.of_list
         (List.filter_map
            (fun iv ->
              let p = position ~from:!from u iv in
              Option.iter (fun p -> from := p) p;
              p)
            ivs))
  in
  u, Array.map members rows
