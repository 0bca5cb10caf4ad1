type t = { parent : int array; size : int array }

let make ~parent ~size = { parent; size }
let parent f v = f.parent.(v)

let of_nesting n ~contains =
  let parent = Array.make n (-1) and size = Array.make n 1 in
  let stack = Array.make n 0 and top = ref (-1) in
  for j = 0 to n - 1 do
    while !top >= 0 && not (contains stack.(!top) j) do
      decr top
    done;
    if !top >= 0 then parent.(j) <- stack.(!top);
    incr top;
    stack.(!top) <- j
  done;
  for j = n - 1 downto 0 do
    let p = parent.(j) in
    if p >= 0 then size.(p) <- size.(p) + size.(j)
  done;
  { parent; size }

type axis =
  | Child
  | Parent
  | Descendant
  | Ancestor
  | Following_sibling
  | Preceding_sibling
  | Following
  | Preceding

let inverse = function
  | Child -> Parent
  | Parent -> Child
  | Descendant -> Ancestor
  | Ancestor -> Descendant
  | Following_sibling -> Preceding_sibling
  | Preceding_sibling -> Following_sibling
  | Following -> Preceding
  | Preceding -> Following

let seek a i x =
  let n = Array.length a in
  if i >= n || a.(i) >= x then i
  else begin
    (* a.(lo) < x throughout: gallop, then bisect *)
    let lo = ref i and step = ref 1 in
    while !lo + !step < n && a.(!lo + !step) < x do
      lo := !lo + !step;
      step := 2 * !step
    done;
    let hi = ref (Int.min n (!lo + !step)) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < x then lo := mid else hi := mid
    done;
    !hi
  end

(* Growable output: a join returns a subset of its candidates, usually
   a small one. *)
type buf = { mutable data : int array; mutable len : int }

let buf () = { data = [||]; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make ((2 * b.len) + 8) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

let inter a b =
  let out = buf () and i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      push out x;
      incr i;
      incr j
    end
    else if x < y then i := seek a !i y
    else j := seek b !j x
  done;
  contents out

let union a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 and i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na || !j < nb do
      let x = if !i < na then a.(!i) else max_int in
      let y = if !j < nb then b.(!j) else max_int in
      out.(!k) <- Int.min x y;
      incr k;
      if x <= y then incr i;
      if y <= x then incr j
    done;
    Array.sub out 0 !k
  end

let of_unsorted a =
  let sorted = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) < a.(i - 1) then sorted := false
  done;
  if not !sorted then Array.stable_sort Int.compare a;
  let k = ref 0 in
  Array.iteri
    (fun i x ->
      if i = 0 || x <> a.(!k - 1) then begin
        a.(!k) <- x;
        incr k
      end)
    a;
  if !k = Array.length a then a else Array.sub a 0 !k

(* The candidates inside some range, each decided by the innermost
   range holding it.  Range [r] (of [nr]) is the half-open span
   [lo r, hi r) of positions; ranges come sorted by [lo] and are
   pairwise nested or disjoint, so the open ones form a stack.  With no
   range open, the candidate cursor gallops to the next range. *)
let scan nr lo hi keep cands =
  let nc = Array.length cands in
  let out = buf () and stack = buf () in
  let top () = stack.data.(stack.len - 1) in
  let r = ref 0 and j = ref 0 in
  while !j < nc do
    let c = cands.(!j) in
    while !r < nr && lo !r <= c do
      while stack.len > 0 && hi (top ()) <= lo !r do
        stack.len <- stack.len - 1
      done;
      push stack !r;
      incr r
    done;
    while stack.len > 0 && hi (top ()) <= c do
      stack.len <- stack.len - 1
    done;
    if stack.len > 0 then begin
      if keep (top ()) c then push out c;
      incr j
    end
    else if !r < nr then j := seek cands !j (lo !r)
    else j := nc
  done;
  contents out

let rev_map f a =
  let n = Array.length a in
  Array.init n (fun i -> f a.(n - 1 - i))

let join ?(self = false) f axis origins cands =
  let n = Array.length f.parent and no = Array.length origins in
  (* end of a subtree; [-1] is the virtual parent of every root *)
  let stop p = if p < 0 then n else p + f.size.(p) in
  let parent o = f.parent.(o) in
  let joined =
    match axis with
    | Child ->
      scan no (fun r -> origins.(r) + 1) (fun r -> stop origins.(r))
        (fun r c -> parent c = origins.(r)) cands
    | Descendant ->
      let from = if self then 0 else 1 in
      scan no (fun r -> origins.(r) + from) (fun r -> stop origins.(r)) (fun _ _ -> true) cands
    | Parent ->
      (* parents of sorted same-depth origins come sorted; a root's [-1]
         matches no candidate *)
      inter (of_unsorted (Array.map parent origins)) cands
    | Ancestor ->
      let out = buf () and k = ref 0 in
      let from = if self then 0 else 1 in
      Array.iter
        (fun c ->
          k := seek origins !k (c + from);
          if !k < no && origins.(!k) < stop c then push out c)
        cands;
      contents out
    | Following_sibling ->
      (* origin [o] opens its later siblings: [o + 1, end of its parent) *)
      scan no (fun r -> origins.(r) + 1) (fun r -> stop (parent origins.(r)))
        (fun r c -> parent c = parent origins.(r)) cands
    | Preceding_sibling ->
      (* the same scan in reverse document order, where a subtree is
         still a span: position [x] becomes [n - 1 - x] *)
      let m x = n - 1 - x in
      let ro = rev_map m origins in
      rev_map m
        (scan no (fun r -> ro.(r) + 1) (fun r -> m (parent (m ro.(r))))
           (fun r c -> parent (m c) = parent (m ro.(r)))
           (rev_map m cands))
    | Following ->
      let from = Array.fold_left (fun acc o -> Int.min acc (stop o)) max_int origins in
      let k = seek cands 0 from in
      Array.sub cands k (Array.length cands - k)
    | Preceding ->
      if no = 0 then [||]
      else
        let last = origins.(no - 1) in
        scan 1 (fun _ -> 0) (fun _ -> last) (fun _ c -> stop c <= last) cands
  in
  match axis with
  | _ when not self -> joined
  | Descendant | Ancestor -> joined
  | Child | Parent | Following_sibling | Preceding_sibling | Following | Preceding ->
    union joined (inter origins cands)
