(** Composite view of "skeleton + decrypted blocks" for client
    post-processing.

    After the server answers, the client holds the public skeleton
    (indexed once at setup) and the decrypted subtrees of the returned
    blocks.  This module exposes the combination as a single navigable
    document without materialising the merged tree.  A query runs
    set-at-a-time: each step joins node sets on the skeleton's
    {!Xmlcore.Forest} and its tag index, and a returned block enters at
    its placeholder's position.  Only origins inside a decrypted block
    navigate node by node, within that block.  So post-processing costs
    the query's node sets and the returned data, not a walk of the
    skeleton.

    Placeholders of blocks the server did not return are invisible:
    the server guarantees every block that could contribute to an
    answer or a predicate witness is returned, so pruning the rest
    preserves [Q(δ(Qs(η(D)))) = Q(D)]. *)

type node =
  | Skel of Xmlcore.Doc.node
  | In of Xmlcore.Doc.node * int * Xmlcore.Doc.node
      (** placeholder anchor in the skeleton, block id, node within the
          block's doc *)

type skeleton
(** The public skeleton with its placeholders, indexed once. *)

val prepare : Xmlcore.Doc.t -> anchors:(int * Xmlcore.Doc.node) list -> skeleton
(** [prepare skeleton ~anchors]: [anchors] maps block ids to their
    placeholder nodes in the skeleton. *)

val doc : skeleton -> Xmlcore.Doc.t
(** The skeleton document {!prepare} indexed. *)

type t

val create : skeleton -> blocks:(int * Xmlcore.Doc.t) list -> t
(** The view over the returned decrypted block documents, each entered
    at its placeholder. *)

val subtree : t -> node -> Xmlcore.Tree.t
(** Materialise the subtree rooted at a composite node (splicing any
    returned blocks below it; unreturned placeholders are dropped).
    The only trees post-processing builds are these answers. *)

module Navigation : sig
  include Xpath.Nav.S with type doc = t and type node = node

  val tag : t -> node -> string
end

module Eval : sig
  val eval : t -> Xpath.Ast.path -> node list
  val eval_union : t -> Xpath.Ast.path list -> node list
end
