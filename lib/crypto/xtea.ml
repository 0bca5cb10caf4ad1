(* 32-bit words are kept in native ints (masked), avoiding boxed Int32
   arithmetic on the hot path — block en/decryption dominates the
   system's measured costs.  Blocks are read and written in place. *)

let block_bytes = 8

let mask = 0xFFFFFFFF

let rounds = 32
let delta = 0x9E3779B9

(* The schedule: the 64 half-round constants (sum + key word) land
   mask, in encryption order.  Entry 2r belongs to the first half of
   round r, entry 2r+1 to the second half. *)
type key = int array

let expand k =
  let table = Array.make (2 * rounds) 0 in
  let sum = ref 0 in
  for r = 0 to rounds - 1 do
    table.(2 * r) <- (!sum + k.(!sum land 3)) land mask;
    sum := (!sum + delta) land mask;
    table.((2 * r) + 1) <- (!sum + k.((!sum lsr 11) land 3)) land mask
  done;
  table

let words s = Array.init 4 (fun i -> Int32.to_int (String.get_int32_be s (i * 4)) land mask)

let key_of_raw s =
  if String.length s <> 16 then invalid_arg "Xtea.key_of_raw: need 16 bytes";
  expand (words s)

let key_of_string s = expand (words (Sha256.digest s))

let[@inline] get32 b off = Int32.to_int (Bytes.get_int32_be b off) land mask
let[@inline] set32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

(* The Feistel half-round term ((v<<4 ^ v>>5) + v) ^ constant; the high
   bits it leaves above bit 31 die at the caller's mask. *)
let[@inline] term v c = (((v lsl 4) lxor (v lsr 5)) + v) lxor c

let encrypt_block key b off =
  let v0 = ref (get32 b off) and v1 = ref (get32 b (off + 4)) in
  for r = 0 to rounds - 1 do
    v0 := (!v0 + term !v1 (Array.unsafe_get key (2 * r))) land mask;
    v1 := (!v1 + term !v0 (Array.unsafe_get key ((2 * r) + 1))) land mask
  done;
  set32 b off !v0;
  set32 b (off + 4) !v1

let decrypt_block key b off =
  let v0 = ref (get32 b off) and v1 = ref (get32 b (off + 4)) in
  for r = rounds - 1 downto 0 do
    v1 := (!v1 - term !v0 (Array.unsafe_get key ((2 * r) + 1))) land mask;
    v0 := (!v0 - term !v1 (Array.unsafe_get key (2 * r))) land mask
  done;
  set32 b off !v0;
  set32 b (off + 4) !v1
