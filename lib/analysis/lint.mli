(** Lint driver: suppressions, baseline, tree walking.

    The pipeline for one compilation unit is
    [tokenize -> Rules.check -> drop suppressed -> drop baselined].

    A suppression is a comment [(* lint: allow <rule> ... *)] (rule
    names separated by spaces or commas; [all] matches every rule).  It
    covers every line the comment touches plus the following line, so
    both trailing and preceding-line placement work.

    The baseline file holds one {!Finding.fingerprint} per line ([#]
    comments and blank lines ignored); each entry absorbs at most one
    matching finding per run.  The shipped baseline is empty — it
    exists so a future rule can land before the violations it finds are
    all fixed, without the gate going red in between. *)

val check_source : ?policy:Policy.t -> rel:string -> string -> Finding.t list
(** Lint one unit from an in-memory source string: token-level rules
    only ([rel] decides which apply, see {!Policy.classify}).
    Suppression comments are honoured; the baseline is not applied.
    The whole-tree secret-flow pass needs every unit at once — use
    {!check_sources} for that. *)

val check_sources :
  ?policy:Policy.t -> (string * string) list -> Finding.t list
(** Full pipeline over an in-memory file set [(rel, content)]: per-unit
    token rules plus the whole-tree {!Taint} pass, suppressions
    applied, sorted.  The baseline is not applied. *)

val suppressed : Lexer.t -> Finding.t -> bool
(** Exposed for tests. *)

val load_baseline : string -> string list
(** Fingerprints from a baseline file; [[]] if the file is missing. *)

val apply_baseline : string list -> Finding.t list -> Finding.t list
(** Remove findings matched by baseline entries (each entry consumes at
    most one finding). *)

val source_files : root:string -> string list
(** Repo-relative [.ml]/[.mli] paths under [lib/], [bin/] and [test/],
    sorted. *)

val check_tree : ?policy:Policy.t -> root:string -> unit -> Finding.t list
(** {!check_sources} over every {!source_files} file under [root]:
    suppressions applied, baseline not. *)

val run :
  ?policy:Policy.t -> ?baseline:string -> root:string -> unit ->
  Finding.t list * int
(** [run ~root ()] lints the tree and applies the baseline at
    [baseline] (default [<root>/lint.baseline]).  Returns the surviving
    findings (sorted) and the number absorbed by the baseline. *)

val write_baseline : string -> Finding.t list -> unit
