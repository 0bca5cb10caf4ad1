let block_bytes = Xtea.block_bytes

type prepared = {
  cipher_key : Xtea.key;
  iv_mac : Hmac.prepared;
}

let prepare key =
  { cipher_key = Xtea.key_of_string key; iv_mac = Hmac.prepare ~key }

(* The IV is the first 8 bytes of the keyed PRF tag of the nonce. *)
let iv_of_prepared p ~nonce =
  Bytes.unsafe_of_string
    (Hmac.mac_slice p.iv_mac ~prefix:"cbc-iv\x00" nonce 0 (String.length nonce))

(* [dst.(o .. o+7)] <- [dst.(o .. o+7)] xor [src.(so .. so+7)]. *)
let[@inline] xor8 dst o src so =
  Bytes.set_int64_ne dst o (Int64.logxor (Bytes.get_int64_ne dst o) (Bytes.get_int64_ne src so))

let encrypt_prepared p ~nonce plaintext =
  let len = String.length plaintext in
  let pad_len = block_bytes - (len mod block_bytes) in
  let buf = Bytes.make (len + pad_len) (Char.chr pad_len) in
  Bytes.blit_string plaintext 0 buf 0 len;
  xor8 buf 0 (iv_of_prepared p ~nonce) 0;
  Xtea.encrypt_block p.cipher_key buf 0;
  for i = 1 to ((len + pad_len) / block_bytes) - 1 do
    let o = i * block_bytes in
    xor8 buf o buf (o - block_bytes);
    Xtea.encrypt_block p.cipher_key buf o
  done;
  Bytes.unsafe_to_string buf

let iv_key p = p.iv_mac

(* The last block is decrypted first, into a scratch block, so that the
   padding is known before the output is allocated at its exact
   length; every other block is copied once, from the ciphertext
   straight into its place in the output. *)
let decrypt_iv p ~iv ~iv_off ?len ciphertext =
  let len = Option.value len ~default:(String.length ciphertext) in
  if len > String.length ciphertext then invalid_arg "Cbc.decrypt: length out of bounds";
  if len <= 0 || len mod block_bytes <> 0 then
    invalid_arg "Cbc.decrypt: ciphertext length must be a positive multiple of 8";
  if iv_off < 0 || iv_off > Bytes.length iv - block_bytes then
    invalid_arg "Cbc.decrypt: IV out of bounds";
  let src = Bytes.unsafe_of_string ciphertext in
  let unchain dst o at =
    if at = 0 then xor8 dst o iv iv_off else xor8 dst o src (at - block_bytes)
  in
  let last = len - block_bytes in
  let tail = Bytes.create block_bytes in
  Bytes.set_int64_ne tail 0 (Bytes.get_int64_ne src last);
  Xtea.decrypt_block p.cipher_key tail 0;
  unchain tail 0 last;
  let pad_len = Char.code (Bytes.get tail (block_bytes - 1)) in
  if pad_len = 0 || pad_len > block_bytes then invalid_arg "Cbc.decrypt: malformed padding";
  for i = block_bytes - pad_len to block_bytes - 1 do
    if Char.code (Bytes.get tail i) <> pad_len then invalid_arg "Cbc.decrypt: malformed padding"
  done;
  let out = Bytes.create (len - pad_len) in
  for i = 0 to (last / block_bytes) - 1 do
    let o = i * block_bytes in
    Bytes.set_int64_ne out o (Bytes.get_int64_ne src o);
    Xtea.decrypt_block p.cipher_key out o;
    unchain out o o
  done;
  Bytes.blit tail 0 out last (block_bytes - pad_len);
  Bytes.unsafe_to_string out

let decrypt_prepared p ~nonce ?len ciphertext =
  decrypt_iv p ~iv:(iv_of_prepared p ~nonce) ~iv_off:0 ?len ciphertext

let encrypt ~key ~nonce plaintext = encrypt_prepared (prepare key) ~nonce plaintext

let decrypt ~key ~nonce ciphertext = decrypt_prepared (prepare key) ~nonce ciphertext

let ciphertext_length n = ((n / block_bytes) + 1) * block_bytes
