(** XPath evaluation, parameterised over a {!Nav.S} navigation
    structure.

    The default instance works over plaintext {!Xmlcore.Doc} documents:
    it is used by the naive baseline, by tests as the reference
    semantics, and (through the composite instance in the secure
    library) by the client's post-processing. *)

val compare_values : string -> Ast.op -> string -> bool
(** [compare_values v op literal] — numeric comparison when both sides
    parse as numbers, lexicographic otherwise. *)

module Make (N : Nav.S) : sig
  val eval : N.doc -> Ast.path -> N.node list
  (** Nodes selected by the path, in document order, without
      duplicates.  Relative paths are evaluated from the root. *)

  val eval_from : N.doc -> N.node list -> Ast.path -> N.node list
  (** Evaluate with an explicit context node set (absolute paths ignore
      the context). *)

  val reaching :
    N.doc -> test:Ast.node_test -> N.node list -> Ast.path -> keep:(N.node -> bool) ->
    N.node list
  (** [reaching doc ~test context p ~keep]: the [context] nodes [x] (all
      passing [test]) for which [eval_from doc [x] p] has a node that
      [keep] holds for, in document order — decided for the whole set
      at once, the way predicates are, instead of one evaluation per
      node. *)

  val matches : N.doc -> Ast.path -> bool
  (** [matches doc p] iff [eval doc p] is non-empty — the paper's
      [D |= A] judgment. *)

  val eval_union : N.doc -> Ast.path list -> N.node list
  (** Union of the branch results, in document order without
      duplicates. *)
end

(** Evaluation over plaintext documents. *)

val eval : Xmlcore.Doc.t -> Ast.path -> Xmlcore.Doc.node list
val eval_from : Xmlcore.Doc.t -> Xmlcore.Doc.node list -> Ast.path -> Xmlcore.Doc.node list
val reaching :
  Xmlcore.Doc.t -> test:Ast.node_test -> Xmlcore.Doc.node list -> Ast.path ->
  keep:(Xmlcore.Doc.node -> bool) -> Xmlcore.Doc.node list
val matches : Xmlcore.Doc.t -> Ast.path -> bool
val eval_union : Xmlcore.Doc.t -> Ast.path list -> Xmlcore.Doc.node list
