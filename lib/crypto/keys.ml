type t = {
  master : string;
  suite : Cipher.suite;
  derived : (string, string) Hashtbl.t;     (* label -> subkey memo *)
  mutable block_cipher : Cipher.prepared option;
  mutable block_mac : Hmac.prepared option;
}

let create ?(suite = Cipher.Xtea) ~master () =
  { master; suite; derived = Hashtbl.create 16; block_cipher = None;
    block_mac = None }

let suite t = t.suite

let derive t label =
  match Hashtbl.find_opt t.derived label with
  | Some key -> key
  | None ->
    let key = Hmac.mac ~key:t.master ("derive\x00" ^ label) in
    Hashtbl.replace t.derived label key;
    key

let block_key t = derive t "block-cipher"

let block_cipher t =
  match t.block_cipher with
  | Some prepared -> prepared
  | None ->
    let prepared = Cipher.prepare t.suite (block_key t) in
    t.block_cipher <- Some prepared;
    prepared

let block_mac_key t =
  match t.block_mac with
  | Some prepared -> prepared
  | None ->
    let prepared = Hmac.prepare ~key:(derive t "block-mac") in
    t.block_mac <- Some prepared;
    prepared

(* The nonce only needs to be unique per (block, content version); the
   IV derivation is keyed downstream, so the identifiers themselves
   suffice.  Generation 0 keeps the historical shape so freshly hosted
   blocks stay byte-identical across versions of this code; re-encrypted
   blocks (incremental updates) bump the generation and therefore never
   reuse a nonce under the same key with different plaintext. *)
let block_nonce _t ?(generation = 0) ~block_id () =
  if generation = 0 then "blk-" ^ string_of_int block_id
  else String.concat "" [ "blk-"; string_of_int block_id; "."; string_of_int generation ]

let block_iv_prf t = Hmac.prf (Cipher.iv_key (block_cipher t))

(* The label [Cipher] derives an IV from, ["cbc-iv\x00" ^ block_nonce],
   absorbed in parts. *)
let block_iv prf ?(generation = 0) ~block_id dst off =
  if block_id < 0 || generation < 0 then invalid_arg "Keys.block_iv: negative";
  Hmac.start prf;
  Hmac.add prf "cbc-iv\x00blk-";
  Hmac.add_int prf block_id;
  if generation <> 0 then begin
    Hmac.add prf ".";
    Hmac.add_int prf generation
  end;
  Hmac.finish prf;
  Hmac.blit prf dst off Cipher.iv_bytes

let tag_key t = derive t "tag-vernam"

let tag_pad_id tag = "tag\x00" ^ tag

let ope_key t ~attribute = derive t ("ope\x00" ^ attribute)

let opess_key t ~attribute = derive t ("opess\x00" ^ attribute)

let dsi_key t = derive t "dsi-weights"

let decoy_key t = derive t "decoy"
