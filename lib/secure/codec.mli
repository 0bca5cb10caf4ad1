(** Binary codec primitives shared by {!Persist} (hosted bundles on
    disk) and {!Protocol} (wire messages).

    Fixed-width little-endian integers, IEEE-bits floats,
    length-prefixed strings and count-prefixed lists — boring on
    purpose; every reader bounds-checks and raises {!Error} instead of
    crashing on malformed input. *)

exception Error of string

module W : sig
  val i64 : Buffer.t -> int64 -> unit
  val int : Buffer.t -> int -> unit
  val float : Buffer.t -> float -> unit
  val bool : Buffer.t -> bool -> unit
  val string : Buffer.t -> string -> unit
  val list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
end

module R : sig
  type t = { data : string; mutable pos : int }

  val make : string -> int -> t
  val i64 : t -> int64
  val int : t -> int
  (** @raise Error when negative or implausibly large. *)

  val float : t -> float
  val bool : t -> bool
  (** @raise Error on any byte other than [\000] and [\001]. *)

  val string : t -> string

  val list : t -> (t -> 'a) -> 'a list
  (** @raise Error when the element count exceeds the bytes remaining
      (adversarial counts are rejected before allocation). *)

  val at_end : t -> bool
end
