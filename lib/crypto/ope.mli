(** Order-preserving encryption (OPE) on 64-bit integers.

    Plays the role of the Agrawal et al. (SIGMOD 2004) order-preserving
    encryption function [enc] that OPESS builds on: a strictly
    increasing, key-dependent injection from a bounded plaintext domain
    into a much larger ciphertext range.

    Construction: binary-search-style recursive range splitting.  To
    encrypt [x] in domain [\[0, 2^domain_bits)] we walk down a virtual
    balanced binary partition of the domain; at each level the
    corresponding ciphertext interval is split at a keyed pseudo-random
    interior point (kept within the middle half so interval sizes never
    collapse), and we recurse into the half containing [x].  The
    ciphertext range has [domain_bits + 16] bits of headroom, which keeps
    the mapping injective.  Decryption walks the same path by binary
    search.

    Encryption takes a whole ascending batch (an OPESS catalog's chunk
    points) and walks the partition once: every node on some point's
    path draws its split from the PRF exactly once, and the batch is
    cut at the node's domain midpoint.  An OPESS point costs about 30
    split draws.

    The mapping is deterministic in [key]: the same plaintext always maps
    to the same ciphertext, which OPESS then diversifies via splitting
    and scaling.  A [t] is immutable; each call evaluates the PRF with
    scratch of its own, so one [t] may serve several domains. *)

type t
(** An OPE instance (key + domain size). *)

val create : key:string -> domain_bits:int -> t
(** [create ~key ~domain_bits] handles plaintexts in
    [\[0, 2^domain_bits)].  [domain_bits] must be in [\[1, 40\]]. *)

val domain_max : t -> int64
(** Exclusive upper bound of the plaintext domain. *)

val range_max : t -> int64
(** Exclusive upper bound of the ciphertext range. *)

val encrypt : t -> int64 array -> int64 array
(** [encrypt t points] encrypts every point, [0 <= x < domain_max t],
    given in ascending order (repeats allowed); the ciphertexts come
    back in the same order.  Strictly increasing in the plaintext.
    @raise Invalid_argument if a point is out of the domain or smaller
    than the one before it. *)

val decrypt : t -> int64 -> int64
(** [decrypt t c] recovers [x] from [c], a ciphertext {!encrypt} gave
    for [x].
    @raise Not_found if [c] is not a valid ciphertext. *)
