(** SHA-256 message digest (FIPS 180-4).

    Pure OCaml implementation used as the root primitive for key
    derivation ({!Keys}), MACs ({!Hmac}) and keystream generation
    ({!Vernam}).  Verified against the FIPS test vectors in the test
    suite. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
(** Fresh context. *)

val copy : ctx -> ctx
(** Independent clone of the running state — lets a fixed prefix (e.g.
    an HMAC pad) be absorbed once and reused. *)

val reset : ctx -> from:ctx -> unit
(** [reset ctx ~from] overwrites the running state of [ctx] with that
    of [from], which is left untouched: a finalized context becomes
    reusable without allocating a new one. *)

val update : ctx -> string -> unit
(** [update ctx s] absorbs the bytes of [s]. *)

val update_sub : ctx -> string -> int -> int -> unit
(** [update_sub ctx s off len] absorbs [len] bytes of [s] from [off],
    in place.
    @raise Invalid_argument if the range is not within [s]. *)

val finalize : ctx -> string
(** [finalize ctx] returns the 32-byte digest.  Afterwards [ctx] may
    only be {!reset}. *)

val digest : string -> string
(** [digest s] is the 32-byte SHA-256 of [s]. *)

val hex : string -> string
(** [hex s] is the digest of [s] as a 64-character lowercase hex string. *)

val to_hex : string -> string
(** [to_hex raw] renders an arbitrary byte string in lowercase hex. *)
