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

let mac_hex ~key msg = Sha256.to_hex (mac ~key msg)

(* The PRF kernel.  An evaluator owns the context a label is hashed
   in, the digits of one decimal int and the 32-byte output, so an
   evaluation allocates nothing: the label's parts go straight into
   the inner state, the inner digest into the output block, and the
   outer pass finalizes over it in place. *)
type prf = {
  key : prepared;
  ctx : Sha256.ctx;
  digits : Bytes.t;
  out : Bytes.t;
}

let prf key =
  { key; ctx = Sha256.copy key.inner; digits = Bytes.create 20; out = Bytes.create 32 }

(* max_int has 19 decimal digits; they are written from the end. *)
let absorb_int p n =
  let pos = ref 20 and n = ref n in
  while
    decr pos;
    Bytes.unsafe_set p.digits !pos (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10;
    !n > 0
  do () done;
  Sha256.update_sub p.ctx (Bytes.unsafe_to_string p.digits) !pos (20 - !pos)

(* An evaluation opened up: [start] resets the context to the key's
   inner state, the [add]s hash the label's parts where they lie, and
   [finish] runs the outer pass over the inner digest, all in the
   evaluator's own scratch. *)
let start p = Sha256.reset p.ctx ~from:p.key.inner
let add p s = Sha256.update p.ctx s
let add_sub p s off len = Sha256.update_sub p.ctx s off len

let add_int p n =
  if n < 0 then invalid_arg "Hmac.add_int: negative";
  absorb_int p n

let finish p =
  let ctx = p.ctx in
  Sha256.finalize_into ctx p.out 0;
  Sha256.reset ctx ~from:p.key.outer;
  Sha256.update_sub ctx (Bytes.unsafe_to_string p.out) 0 32;
  Sha256.finalize_into ctx p.out 0

let eval p prefix i j suffix =
  start p;
  add p prefix;
  if i >= 0 then absorb_int p i;
  if j >= 0 then begin
    add p "\x00";
    absorb_int p j
  end;
  add p suffix;
  finish p

let blit p dst off len =
  if len < 0 || len > 32 then invalid_arg "Hmac.blit: length";
  Bytes.blit p.out 0 dst off len

(* Every byte is folded into one accumulator: no early exit. *)
let matches p s off len =
  if len < 0 || len > 32 || off < 0 || off > String.length s - len then
    invalid_arg "Hmac.matches: range";
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc :=
      !acc lor (Char.code (Bytes.unsafe_get p.out i) lxor Char.code (String.unsafe_get s (off + i)))
  done;
  !acc = 0

let bits p k =
  if k < 1 || k > 62 then invalid_arg "Hmac.bits: k must be in [1, 62]";
  Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_be p.out 0) (64 - k))

let below p bound =
  if bound <= 0 then invalid_arg "Hmac.below: bound must be positive";
  Int64.to_int
    (Int64.rem (Int64.shift_right_logical (Bytes.get_int64_be p.out 0) 1) (Int64.of_int bound))
