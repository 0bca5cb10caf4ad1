(** CBC-mode encryption of byte strings over the {!Xtea} block cipher,
    with PKCS#7 padding.

    This is what the client uses to encrypt whole XML subtrees
    ("encryption blocks" in the paper).  The IV is derived
    deterministically from the key and a caller-supplied nonce so that
    the system stays reproducible; distinct nonces give independent
    ciphertexts. *)

type prepared
(** Key material with the XTEA schedule expanded and the IV-derivation
    HMAC pads pre-absorbed.  Prepare once, use per block. *)

val prepare : string -> prepared

val encrypt_prepared : prepared -> nonce:string -> string -> string

val decrypt_prepared : prepared -> nonce:string -> ?len:int -> string -> string
(** Decrypts the first [len] bytes of the ciphertext (default: all of
    it) where they lie; only the plaintext is allocated. *)

val iv_key : prepared -> Hmac.prepared
(** The key the IVs are derived under: a nonce's IV is the first 8
    bytes of its HMAC tag over ["cbc-iv\x00" ^ nonce]. *)

val decrypt_iv : prepared -> iv:Bytes.t -> iv_off:int -> ?len:int -> string -> string
(** {!decrypt_prepared} with the IV given, as the 8 bytes of [iv] from
    [iv_off], instead of derived from a nonce.
    @raise Invalid_argument as {!decrypt}, or if [iv] has no 8 bytes at
    [iv_off]. *)

val encrypt : key:string -> nonce:string -> string -> string
(** [encrypt ~key ~nonce plaintext] returns the ciphertext (the IV is
    derivable, so it is not stored).  Output length is the input length
    rounded up to the next multiple of 8. *)

val decrypt : key:string -> nonce:string -> string -> string
(** Inverse of {!encrypt} for the same [key] and [nonce].

    @raise Invalid_argument if the ciphertext length is not a positive
    multiple of 8, the padding is malformed, or the length given to
    {!decrypt_prepared} exceeds the ciphertext. *)

val ciphertext_length : int -> int
(** [ciphertext_length n] is the ciphertext size for an [n]-byte
    plaintext: [n] rounded up to the next multiple of 8 (PKCS#7 always
    adds at least one byte). *)
