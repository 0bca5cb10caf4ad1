type t = {
  key : Hmac.prepared;
  domain_bits : int;
  domain_max : int64;
  range_max : int64;
  (* Memoised 53-bit split fractions keyed by [depth lsl 41 lor dlo]
     (depth <= 40, dlo < 2^40); encryption of a sorted batch revisits
     the same prefix path repeatedly. *)
  splits : (int, int) Hashtbl.t;
}

let headroom_bits = 16

let create ~key ~domain_bits =
  if domain_bits < 1 || domain_bits > 40 then
    invalid_arg "Ope.create: domain_bits must be in [1, 40]";
  { key = Hmac.prepare ~key;
    domain_bits;
    domain_max = Int64.shift_left 1L domain_bits;
    range_max = Int64.shift_left 1L (domain_bits + headroom_bits);
    splits = Hashtbl.create 1024 }

let domain_max t = t.domain_max
let range_max t = t.range_max

(* Keyed fraction in [1/4, 3/4) used to split a range interval. *)
let split_fraction t ~depth ~dlo =
  let memo_key = (depth lsl 41) lor Int64.to_int dlo in
  let bits =
    match Hashtbl.find_opt t.splits memo_key with
    | Some bits -> bits
    | None ->
      let label =
        String.concat "" [ "ope-split\x00"; string_of_int depth; "\x00"; Int64.to_string dlo ]
      in
      let bits = Int64.to_int (Int64.shift_right_logical (Hmac.prf64_prepared t.key label) 11) in
      Hashtbl.replace t.splits memo_key bits;
      bits
  in
  Float.of_int bits /. 9007199254740992.0

(* Offset of the ciphertext inside a leaf range interval of size [size]. *)
let leaf_offset t ~dlo size =
  if size <= 1L then 0L
  else
    let label = "ope-leaf\x00" ^ Int64.to_string dlo in
    Int64.rem (Int64.shift_right_logical (Hmac.prf64_prepared t.key label) 1) size

(* Split range [rlo, rhi) for domain halves of sizes [ldom] and [rdom]:
   pick rmid such that each side keeps at least its domain size of room. *)
let range_split t ~depth ~dlo ~rlo ~rhi ~ldom ~rdom =
  let range_size = Int64.sub rhi rlo in
  let slack = Int64.sub range_size (Int64.add ldom rdom) in
  assert (slack >= 0L);
  let frac = 0.25 +. (split_fraction t ~depth ~dlo *. 0.5) in
  let extra = Int64.of_float (Int64.to_float slack *. frac) in
  Int64.add rlo (Int64.add ldom extra)

let encrypt t x =
  if x < 0L || x >= t.domain_max then invalid_arg "Ope.encrypt: plaintext out of domain";
  let rec go ~depth ~dlo ~dhi ~rlo ~rhi =
    let dsize = Int64.sub dhi dlo in
    if dsize = 1L then Int64.add rlo (leaf_offset t ~dlo (Int64.sub rhi rlo))
    else
      let half = Int64.shift_right_logical dsize 1 in
      let dmid = Int64.add dlo half in
      let rmid =
        range_split t ~depth ~dlo ~rlo ~rhi ~ldom:half ~rdom:(Int64.sub dsize half)
      in
      if x < dmid then go ~depth:(depth + 1) ~dlo ~dhi:dmid ~rlo ~rhi:rmid
      else go ~depth:(depth + 1) ~dlo:dmid ~dhi ~rlo:rmid ~rhi
  in
  go ~depth:0 ~dlo:0L ~dhi:t.domain_max ~rlo:0L ~rhi:t.range_max

let decrypt t c =
  if c < 0L || c >= t.range_max then raise Not_found;
  let rec go ~depth ~dlo ~dhi ~rlo ~rhi =
    let dsize = Int64.sub dhi dlo in
    if dsize = 1L then
      if c = Int64.add rlo (leaf_offset t ~dlo (Int64.sub rhi rlo)) then dlo
      else raise Not_found
    else
      let half = Int64.shift_right_logical dsize 1 in
      let dmid = Int64.add dlo half in
      let rmid =
        range_split t ~depth ~dlo ~rlo ~rhi ~ldom:half ~rdom:(Int64.sub dsize half)
      in
      if c < rmid then go ~depth:(depth + 1) ~dlo ~dhi:dmid ~rlo ~rhi:rmid
      else go ~depth:(depth + 1) ~dlo:dmid ~dhi ~rlo:rmid ~rhi
  in
  go ~depth:0 ~dlo:0L ~dhi:t.domain_max ~rlo:0L ~rhi:t.range_max
