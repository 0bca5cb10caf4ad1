(** HMAC-SHA-256 (RFC 2104) and the PRF kernel.

    The PRF is the workhorse for deterministic, key-dependent
    randomness: OPE splits, DSI gap weights, OPESS split weights and
    scale factors, and encryption decoys are all drawn from it. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA-256 tag. *)

type prepared
(** A key with its inner/outer pads pre-absorbed: each subsequent MAC
    costs two compressions instead of four.  Use on hot paths (per-block
    IVs, keystreams). *)

val prepare : key:string -> prepared
val mac_prepared : prepared -> string -> string

val mac_slice : prepared -> prefix:string -> string -> int -> int -> string
(** [mac_slice p ~prefix msg off len] is
    [mac_prepared p (prefix ^ String.sub msg off len)], computed without
    building that string: block MACs and session frames hash their
    bytes in place.
    @raise Invalid_argument if the range is not within [msg]. *)

val mac_hex : key:string -> string -> string
(** Hex rendering of {!mac}. *)

(** {2 PRF kernel} *)

type prf
(** A PRF evaluator: a prepared key with a hashing context, a digit
    buffer and an output block of its own, so that evaluating
    allocates nothing.  An evaluator is mutable scratch: use it on the
    domain that made it, and make one per worker, never one shared by
    several. *)

val prf : prepared -> prf
(** [prf key] is a fresh evaluator under [key]. *)

val eval : prf -> string -> int -> int -> string -> unit
(** [eval p prefix i j suffix] computes [mac_prepared key label] for
    the label [prefix ^ string_of_int i ^ "\x00" ^ string_of_int j ^
    suffix], hashing its parts where they lie.  A negative [i] is left
    out, and so is a negative [j] together with the ["\x00"] before
    it.  The output stays in [p] until the next evaluation; read it
    with {!bits} or {!below}. *)

val bits : prf -> int -> int
(** [bits p k] is the first [k] bits of the last output, big-endian:
    [bits p 53] is its first 8 bytes shifted right by 11, a uniform
    53-bit draw.
    @raise Invalid_argument unless [1 <= k <= 62]. *)

val below : prf -> int -> int
(** [below p bound] maps the last output into [\[0, bound)]: its first
    8 bytes, shifted right by 1, modulo [bound].
    @raise Invalid_argument unless [bound > 0]. *)
