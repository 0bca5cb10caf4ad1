let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\000' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  padded

let xor_pad key byte =
  let out = Bytes.create block_size in
  for i = 0 to block_size - 1 do
    Bytes.set out i (Char.chr (Char.code (Bytes.get key i) lxor byte))
  done;
  Bytes.unsafe_to_string out

type prepared = {
  inner : Sha256.ctx;  (* state after absorbing key XOR ipad *)
  outer : Sha256.ctx;  (* state after absorbing key XOR opad *)
}

let prepare ~key =
  let key = normalize_key key in
  let inner = Sha256.init () in
  Sha256.update inner (xor_pad key 0x36);
  let outer = Sha256.init () in
  Sha256.update outer (xor_pad key 0x5c);
  { inner; outer }

(* One scratch context serves both passes: the inner hash absorbs the
   prefix and the slice where they lie, then the context is reset to
   the outer pad state. *)
let mac_slice p ~prefix msg off len =
  let ctx = Sha256.copy p.inner in
  Sha256.update ctx prefix;
  Sha256.update_sub ctx msg off len;
  let inner = Sha256.finalize ctx in
  Sha256.reset ctx ~from:p.outer;
  Sha256.update ctx inner;
  Sha256.finalize ctx

let mac_prepared p msg = mac_slice p ~prefix:"" msg 0 (String.length msg)

let mac ~key msg = mac_prepared (prepare ~key) msg

let first64 tag = String.get_int64_be tag 0

let prf64_prepared p label = first64 (mac_prepared p label)

let mac_hex ~key msg = Sha256.to_hex (mac ~key msg)

let prf64 ~key label = first64 (mac ~key label)

let prf_float ~key label =
  let bits = Int64.shift_right_logical (prf64 ~key label) 11 in
  Int64.to_float bits /. 9007199254740992.0

let prf_float_in ~key label lo hi = lo +. (prf_float ~key label *. (hi -. lo))

let prf_int ~key label bound =
  assert (bound > 0);
  Int64.to_int (Int64.rem (Int64.shift_right_logical (prf64 ~key label) 1) (Int64.of_int bound))
