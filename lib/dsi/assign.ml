module Doc = Xmlcore.Doc

type t = {
  doc : Doc.t;
  intervals : Interval.t array;
}

let interval t n = t.intervals.(n)

let doc t = t.doc

(* A uniform draw in [0, 1) for the label [prefix ^ side ^ "\x00" ^ id]. *)
let draw prf prefix ~side id =
  Crypto.Hmac.eval prf prefix side id "";
  Float.of_int (Crypto.Hmac.bits prf 53) /. 9007199254740992.0

(* Weight in (0, 0.5) for child node [child_id]; [side] distinguishes w1
   from w2.  Kept away from the extremes so gaps never collapse
   numerically. *)
let weight prf ~side child_id = 0.01 +. (draw prf "dsi-w" ~side child_id *. 0.48)

(* Core calInterval recursion over a mutable interval array: place every
   descendant of [node] inside [intervals.(node)].  Shared by whole-tree
   [assign] and by incremental [subdivide] (which seeds the subtree root
   from a sibling gap first). *)
let rec place prf doc intervals node =
  let iv = intervals.(node) in
  let children = Doc.children doc node in
  let count = List.length children in
  if count > 0 then begin
    let d = Interval.width iv /. float_of_int ((2 * count) + 1) in
    (* Each level shrinks widths by 1/(2N+1); below double-precision
       resolution the discontinuity guarantees collapse.  Fail loudly
       with the remedy rather than corrupting the index. *)
    if d < Float.abs iv.Interval.lo *. 1e-13 || d < 1e-300 then
      invalid_arg
        (Printf.sprintf
           "Dsi.Assign: node %d is too deep/narrow for float-interval \
            precision (interval width %.3g); the DSI scheme supports \
            documents up to roughly 2^53 total slot subdivisions — \
            restructure or shard the document"
           node (Interval.width iv));
    List.iteri
      (fun idx child ->
        let i = float_of_int (idx + 1) in
        let w1 = weight prf ~side:1 child in
        let w2 = weight prf ~side:2 child in
        let lo = iv.Interval.lo +. (((2.0 *. i) -. 1.0) *. d) -. (w1 *. d) in
        let hi = iv.Interval.lo +. (2.0 *. i *. d) +. (w2 *. d) in
        intervals.(child) <- Interval.make lo hi;
        place prf doc intervals child)
      children
  end

let prf_of ~key = Crypto.Hmac.prf (Crypto.Hmac.prepare ~key)

let assign ~key doc =
  let n = Doc.node_count doc in
  let intervals = Array.make n (Interval.make 0.0 1.0) in
  place (prf_of ~key) doc intervals (Doc.root doc);
  { doc; intervals }

let of_intervals doc intervals =
  if Array.length intervals <> Doc.node_count doc then
    invalid_arg "Assign.of_intervals: interval count does not match document";
  { doc; intervals = Array.copy intervals }

let intervals t = Array.copy t.intervals

let subdivide ~key t node = place (prf_of ~key) t.doc t.intervals node

let interval_in_gap ~key ~label ~lo ~hi =
  if label < 0 then invalid_arg "Assign.interval_in_gap: negative label";
  if not (hi > lo) then invalid_arg "Assign.interval_in_gap: empty gap";
  let width = hi -. lo in
  let prf = prf_of ~key in
  (* Land strictly inside the middle 60% of the gap, leaving fresh gaps
     on both sides for future inserts. *)
  let new_lo = lo +. (width *. (0.2 +. (draw prf "gap-w" ~side:1 label *. 0.2))) in
  let new_hi = hi -. (width *. (0.2 +. (draw prf "gap-w" ~side:2 label *. 0.2))) in
  if not (new_hi > new_lo) then
    invalid_arg "Assign.interval_in_gap: gap too narrow for float precision";
  Interval.make new_lo new_hi

let validate t =
  let exception Bad of string in
  let check node =
    let iv = t.intervals.(node) in
    if Interval.width iv <= 0.0 then
      raise (Bad (Printf.sprintf "degenerate interval at node %d" node));
    (match Doc.parent t.doc node with
     | None -> ()
     | Some p ->
       if not (Interval.contains t.intervals.(p) iv) then
         raise (Bad (Printf.sprintf "node %d not strictly inside its parent" node)));
    let rec check_siblings = function
      | a :: (b :: _ as rest) ->
        if not (t.intervals.(a).Interval.hi < t.intervals.(b).Interval.lo) then
          raise (Bad (Printf.sprintf "no gap between siblings %d and %d" a b));
        check_siblings rest
      | [ _ ] | [] -> ()
    in
    check_siblings (Doc.children t.doc node)
  in
  match Doc.iter t.doc check with
  | () -> Ok ()
  | exception Bad msg -> Error msg
