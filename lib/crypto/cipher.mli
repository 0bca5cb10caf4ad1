(** Cipher-suite selection for block encryption.

    The paper leaves its block cipher unspecified; this library
    defaults to {!Xtea} (small, era-appropriate) and also offers
    AES-128 ({!Aes}), the cipher the W3C XML-Encryption deployments of
    the time actually used.  Both run in CBC mode with PKCS#7 padding
    and per-nonce derived IVs; the suite is chosen per key ring
    ({!Keys.create}) and recorded in persisted bundles. *)

type suite = Xtea | Aes

val suite_to_string : suite -> string
val suite_of_string : string -> suite option

type prepared
(** Key material with schedules expanded and IV-derivation pads
    pre-absorbed. *)

val prepare : suite -> string -> prepared

val suite_of : prepared -> suite

val encrypt : prepared -> nonce:string -> string -> string

val decrypt : prepared -> nonce:string -> ?len:int -> string -> string
(** Decrypts the first [len] bytes of the ciphertext (default: all of
    it), so a trailing tag need not be cut off first.
    @raise Invalid_argument on malformed ciphertext or padding, or a
    [len] beyond the ciphertext. *)

val iv_bytes : int
(** Bytes of IV the larger suite takes (16).  Both suites derive a
    nonce's IV as the leading block-size bytes of one HMAC tag under
    {!iv_key}, so an IV of [iv_bytes] serves either suite. *)

val iv_key : prepared -> Hmac.prepared
(** The key IVs are derived under: a nonce's IV is the first block of
    its HMAC tag over ["cbc-iv\x00" ^ nonce] (see {!Keys.block_iv}). *)

val decrypt_iv : prepared -> iv:Bytes.t -> iv_off:int -> ?len:int -> string -> string
(** {!decrypt} with the IV given, as the suite's block size of bytes of
    [iv] from [iv_off], instead of derived from a nonce.
    @raise Invalid_argument as {!decrypt}, or if [iv] has no IV at
    [iv_off]. *)

val ciphertext_length : suite -> int -> int
(** Ciphertext size for an n-byte plaintext under the suite's block
    size. *)
