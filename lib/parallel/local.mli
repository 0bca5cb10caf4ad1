(** Per-domain values: scratch that must not be shared between the
    domains a {!Pool} runs on.

    A slot holds one value per domain, made by its initialiser the
    first time that domain reads it.  A value read from a slot belongs
    to the reading domain: use it there, and never hand it to another
    one. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make init] is a slot whose value on each domain is [init ()]. *)

val get : 'a t -> 'a
(** The calling domain's value. *)
