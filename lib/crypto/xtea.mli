(** XTEA block cipher (Needham & Wheeler, 1997).

    64-bit block, 128-bit key, 64 Feistel rounds.  Stands in for the
    unspecified block cipher the paper uses to encrypt XML subtrees
    (see DESIGN.md substitution table).  Blocks are big-endian word
    pairs, en/decrypted in place like {!Aes}. *)

type key
(** Expanded 128-bit key: the 64 per-round constants, precomputed. *)

val key_of_string : string -> key
(** [key_of_string s] derives a key from arbitrary bytes: [s] is hashed
    with SHA-256 and the first 16 bytes become the key material. *)

val key_of_raw : string -> key
(** Use exactly these 16 bytes (four big-endian words) as the key,
    mirroring {!Aes.key_of_raw}.
    @raise Invalid_argument unless the length is 16. *)

val block_bytes : int
(** 8. *)

val encrypt_block : key -> Bytes.t -> int -> unit
(** [encrypt_block k buf off] encrypts the 8 bytes at [off] in place. *)

val decrypt_block : key -> Bytes.t -> int -> unit
(** Inverse of {!encrypt_block}. *)
