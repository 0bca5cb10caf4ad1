(** Declared leakage budgets and the fail-closed scorer behind
    [make attack-gate].

    A budget declaration ([attack.budget] at the repo root) states, per
    fact class (one per {!Passes} pass), the minimum candidate-set size
    every finding must achieve, and which mitigations are bought to
    achieve it.  Parsing fails closed: a missing class, duplicate,
    non-positive minimum, unknown class or unknown mitigation name is
    an error — an unparseable budget never gates anything open.  So
    does scoring: an empty trace certifies nothing, and a finding whose
    class carries no declaration is a violation by definition. *)

type t = {
  minimums : (string * int) list;  (** per fact class, all of {!classes} *)
  mitigations : string list;       (** bought mitigations, subset of {!mitigation_names} *)
}

val classes : string list
(** The fact classes a declaration must cover:
    ["frequency"; "size"; "cooccurrence"; "linkability"]. *)

val mitigation_names : string list
(** Purchasable mitigations: ["pad"; "dummy"; "shuffle"]. *)

val parse : string -> (t, string) result
(** Parse a declaration.  Format, line-oriented: [#] starts a comment;
    [<class> <min>] declares one minimum (every class exactly once,
    [min >= 1]); [mitigations <name> ...] lists the bought mitigations
    (at most one such line; bare [mitigations] buys none). *)

val load : string -> (t, string) result
(** {!parse} the file at a path; I/O errors are [Error]. *)

type violation = {
  finding : Passes.finding;
  required : int;  (** declared minimum; [-1] for an undeclared class *)
}

type score = {
  violations : violation list;
  findings : int;  (** findings scored, violations included *)
}

val score : t -> Passes.finding list -> score

val check : t -> Obs.Ledger.round list -> (score, string) result
(** Run {!Passes.run_all} over the ledger's rounds and score it.
    [Error] on an empty trace — fail closed: no observations certify
    nothing. *)

val render_violation : violation -> string
