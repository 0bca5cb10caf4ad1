(** HMAC-SHA-256 (RFC 2104) and a PRF convenience layer.

    The PRF is the workhorse for deterministic, key-dependent randomness:
    DSI gap weights, OPESS split weights and scale factors, and the
    Vernam keystream are all derived from it. *)

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

val prf64_prepared : prepared -> string -> int64

val mac_hex : key:string -> string -> string
(** Hex rendering of {!mac}. *)

val prf64 : key:string -> string -> int64
(** [prf64 ~key label] extracts the first 8 bytes of [mac ~key label] as a
    big-endian int64: a pseudo-random function onto 64-bit values. *)

val prf_float : key:string -> string -> float
(** [prf_float ~key label] is a PRF output mapped uniformly to [\[0,1)]. *)

val prf_float_in : key:string -> string -> float -> float -> float
(** [prf_float_in ~key label lo hi] maps the PRF output to [\[lo, hi)]. *)

val prf_int : key:string -> string -> int -> int
(** [prf_int ~key label bound] maps the PRF output to [\[0, bound)].
    [bound] must be positive. *)
