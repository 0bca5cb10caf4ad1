type suite = Xtea | Aes

let suite_to_string = function Xtea -> "xtea" | Aes -> "aes"

let suite_of_string = function
  | "xtea" -> Some Xtea
  | "aes" -> Some Aes
  | _ -> None

type prepared =
  | P_xtea of Cbc.prepared
  | P_aes of { key : Aes.key; iv_mac : Hmac.prepared }

let prepare suite key_material =
  match suite with
  | Xtea -> P_xtea (Cbc.prepare key_material)
  | Aes ->
    P_aes
      { key = Aes.key_of_string key_material;
        iv_mac = Hmac.prepare ~key:key_material }

let suite_of = function P_xtea _ -> Xtea | P_aes _ -> Aes

(* --- AES-CBC with PKCS#7 ------------------------------------------- *)

let aes_block = Aes.block_bytes

let aes_iv iv_mac ~nonce = Hmac.mac_prepared iv_mac ("cbc-iv\x00" ^ nonce)

let pkcs7_pad plaintext block =
  let len = String.length plaintext in
  let pad = block - (len mod block) in
  let out = Bytes.make (len + pad) (Char.chr pad) in
  Bytes.blit_string plaintext 0 out 0 len;
  out

let pkcs7_unpad padded block =
  let len = Bytes.length padded in
  if len = 0 then invalid_arg "Cipher.decrypt: empty plaintext";
  let pad = Char.code (Bytes.get padded (len - 1)) in
  if pad = 0 || pad > block || pad > len then
    invalid_arg "Cipher.decrypt: malformed padding";
  for i = len - pad to len - 1 do
    if Char.code (Bytes.get padded i) <> pad then
      invalid_arg "Cipher.decrypt: malformed padding"
  done;
  Bytes.sub_string padded 0 (len - pad)

let xor_into dst off src srcoff n =
  for i = 0 to n - 1 do
    Bytes.set dst (off + i)
      (Char.chr (Char.code (Bytes.get dst (off + i)) lxor Char.code (Bytes.get src (srcoff + i))))
  done

let aes_encrypt ~key ~iv_mac ~nonce plaintext =
  let buf = pkcs7_pad plaintext aes_block in
  let prev = Bytes.of_string (String.sub (aes_iv iv_mac ~nonce) 0 aes_block) in
  let blocks = Bytes.length buf / aes_block in
  for b = 0 to blocks - 1 do
    let off = b * aes_block in
    xor_into buf off prev 0 aes_block;
    Aes.encrypt_block key buf off;
    Bytes.blit buf off prev 0 aes_block
  done;
  Bytes.unsafe_to_string buf

let aes_decrypt ~key ~iv ~iv_off ~len ciphertext =
  if len > String.length ciphertext then invalid_arg "Cipher.decrypt: length out of bounds";
  if len <= 0 || len mod aes_block <> 0 then
    invalid_arg "Cipher.decrypt: ciphertext length must be a positive multiple of 16";
  if iv_off < 0 || iv_off > Bytes.length iv - aes_block then
    invalid_arg "Cipher.decrypt: IV out of bounds";
  let buf = Bytes.sub (Bytes.unsafe_of_string ciphertext) 0 len in
  let prev = Bytes.sub iv iv_off aes_block in
  let scratch = Bytes.create aes_block in
  for b = 0 to (len / aes_block) - 1 do
    let off = b * aes_block in
    Bytes.blit buf off scratch 0 aes_block;
    Aes.decrypt_block key buf off;
    xor_into buf off prev 0 aes_block;
    Bytes.blit scratch 0 prev 0 aes_block
  done;
  pkcs7_unpad buf aes_block

(* --- Dispatch ------------------------------------------------------- *)

let encrypt prepared ~nonce plaintext =
  match prepared with
  | P_xtea p -> Cbc.encrypt_prepared p ~nonce plaintext
  | P_aes { key; iv_mac } -> aes_encrypt ~key ~iv_mac ~nonce plaintext

let iv_bytes = aes_block

let iv_key = function
  | P_xtea p -> Cbc.iv_key p
  | P_aes { iv_mac; _ } -> iv_mac

let decrypt_iv prepared ~iv ~iv_off ?len ciphertext =
  let len = Option.value len ~default:(String.length ciphertext) in
  match prepared with
  | P_xtea p -> Cbc.decrypt_iv p ~iv ~iv_off ~len ciphertext
  | P_aes { key; _ } -> aes_decrypt ~key ~iv ~iv_off ~len ciphertext

let decrypt prepared ~nonce ?len ciphertext =
  match prepared with
  | P_xtea p -> Cbc.decrypt_prepared p ~nonce ?len ciphertext
  | P_aes { iv_mac; _ } ->
    decrypt_iv prepared ~iv:(Bytes.unsafe_of_string (aes_iv iv_mac ~nonce)) ~iv_off:0 ?len
      ciphertext

let ciphertext_length suite n =
  match suite with
  | Xtea -> Cbc.ciphertext_length n
  | Aes -> ((n / aes_block) + 1) * aes_block
