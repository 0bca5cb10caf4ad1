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

(** {3 The kernel opened up}

    For labels of another shape, an evaluation is [start], then the
    label's parts in order, then [finish]: [eval p prefix i j suffix]
    is [start p; add p prefix; add_int p i; add p "\x00"; add_int p j;
    add p suffix; finish p] (the [add_int]s as {!eval} guards them).
    None of them allocates. *)

val start : prf -> unit
(** Begin an evaluation, discarding any label absorbed so far. *)

val add : prf -> string -> unit
(** Absorb a label part. *)

val add_sub : prf -> string -> int -> int -> unit
(** [add_sub p s off len] absorbs [len] bytes of [s] from [off], in
    place.
    @raise Invalid_argument if the range is not within [s]. *)

val add_int : prf -> int -> unit
(** Absorb the decimal digits of an int, as [string_of_int] renders it.
    @raise Invalid_argument if it is negative. *)

val finish : prf -> unit
(** End the evaluation: the output is the HMAC of the label absorbed
    since {!start}, and stays in [p] until the next one. *)

val blit : prf -> Bytes.t -> int -> int -> unit
(** [blit p dst off len] copies the first [len] bytes of the last
    output into [dst] at [off].
    @raise Invalid_argument unless [0 <= len <= 32] and the range is
    within [dst]. *)

val matches : prf -> string -> int -> int -> bool
(** [matches p s off len] is whether the first [len] bytes of the last
    output equal [len] bytes of [s] from [off], compared in constant
    time: a MAC tag is checked where it lies.
    @raise Invalid_argument unless [0 <= len <= 32] and the range is
    within [s]. *)

val bits : prf -> int -> int
(** [bits p k] is the first [k] bits of the last output, big-endian:
    [bits p 53] is its first 8 bytes shifted right by 11, a uniform
    53-bit draw.
    @raise Invalid_argument unless [1 <= k <= 62]. *)

val below : prf -> int -> int
(** [below p bound] maps the last output into [\[0, bound)]: its first
    8 bytes, shifted right by 1, modulo [bound].
    @raise Invalid_argument unless [bound > 0]. *)
