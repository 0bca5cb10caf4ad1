type t = {
  key : Hmac.prepared;
  domain_bits : int;
}

let headroom_bits = 16

let create ~key ~domain_bits =
  if domain_bits < 1 || domain_bits > 40 then
    invalid_arg "Ope.create: domain_bits must be in [1, 40]";
  { key = Hmac.prepare ~key; domain_bits }

let domain_max t = Int64.shift_left 1L t.domain_bits
let range_max t = Int64.shift_left 1L (t.domain_bits + headroom_bits)

(* Domains and ranges stay below 2^56, so the walks run on native ints
   and convert to [int64] only at the interface. *)

(* Split range [rlo, rhi) for domain halves of sizes [ldom] and [rdom]
   at a keyed fraction in [1/4, 3/4) of the slack, so each side keeps
   at least its domain size of room. *)
let range_split prf ~depth ~dlo ~rlo ~rhi ~ldom ~rdom =
  let slack = rhi - rlo - (ldom + rdom) in
  assert (slack >= 0);
  Hmac.eval prf "ope-split\x00" depth dlo "";
  let frac = 0.25 +. (Float.of_int (Hmac.bits prf 53) /. 9007199254740992.0 *. 0.5) in
  rlo + ldom + Float.to_int (Float.of_int slack *. frac)

(* Offset of the ciphertext inside a leaf range interval of size [size]. *)
let leaf_offset prf ~dlo size =
  if size <= 1 then 0
  else begin
    Hmac.eval prf "ope-leaf\x00" dlo (-1) "";
    Hmac.below prf size
  end

let encrypt t points =
  let dmax = 1 lsl t.domain_bits in
  let n = Array.length points in
  let xs = Array.make n 0 in
  Array.iteri
    (fun i x ->
      if x < 0L || x >= Int64.of_int dmax then
        invalid_arg "Ope.encrypt: plaintext out of domain";
      let x = Int64.to_int x in
      if i > 0 && x < xs.(i - 1) then invalid_arg "Ope.encrypt: points not in ascending order";
      xs.(i) <- x)
    points;
  let prf = Hmac.prf t.key in
  let out = Array.make n 0L in
  (* First index in [lo, hi) whose point is at least [x]. *)
  let rec first_at_least x lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if xs.(mid) < x then first_at_least x (mid + 1) hi else first_at_least x lo mid
  in
  (* Points [lo, hi) lie in domain [dlo, dhi), which maps to range
     [rlo, rhi): the node's split is drawn once and the run is cut at
     the domain midpoint. *)
  let rec go ~depth ~dlo ~dhi ~rlo ~rhi lo hi =
    if lo < hi then
      let dsize = dhi - dlo in
      if dsize = 1 then
        Array.fill out lo (hi - lo) (Int64.of_int (rlo + leaf_offset prf ~dlo (rhi - rlo)))
      else begin
        let half = dsize lsr 1 in
        let dmid = dlo + half in
        let rmid = range_split prf ~depth ~dlo ~rlo ~rhi ~ldom:half ~rdom:(dsize - half) in
        let mid = first_at_least dmid lo hi in
        go ~depth:(depth + 1) ~dlo ~dhi:dmid ~rlo ~rhi:rmid lo mid;
        go ~depth:(depth + 1) ~dlo:dmid ~dhi ~rlo:rmid ~rhi mid hi
      end
  in
  go ~depth:0 ~dlo:0 ~dhi:dmax ~rlo:0 ~rhi:(1 lsl (t.domain_bits + headroom_bits)) 0 n;
  out

let decrypt t c =
  if c < 0L || c >= range_max t then raise Not_found;
  let c = Int64.to_int c in
  let prf = Hmac.prf t.key in
  let rec go ~depth ~dlo ~dhi ~rlo ~rhi =
    let dsize = dhi - dlo in
    if dsize = 1 then
      if c = rlo + leaf_offset prf ~dlo (rhi - rlo) then Int64.of_int dlo else raise Not_found
    else
      let half = dsize lsr 1 in
      let dmid = dlo + half in
      let rmid = range_split prf ~depth ~dlo ~rlo ~rhi ~ldom:half ~rdom:(dsize - half) in
      if c < rmid then go ~depth:(depth + 1) ~dlo ~dhi:dmid ~rlo ~rhi:rmid
      else go ~depth:(depth + 1) ~dlo:dmid ~dhi ~rlo:rmid ~rhi
  in
  go ~depth:0 ~dlo:0 ~dhi:(1 lsl t.domain_bits) ~rlo:0
    ~rhi:(1 lsl (t.domain_bits + headroom_bits))
