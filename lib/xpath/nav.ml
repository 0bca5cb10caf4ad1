(** Navigation interface the evaluator is parameterised over.

    {!Xmlcore.Doc} is the canonical instance; the secure client adds a
    composite instance that stitches the public skeleton together with
    decrypted blocks without materialising a combined document. *)

module type S = sig
  type doc
  type node

  val root : doc -> node

  val step :
    doc -> node list option -> Xmlcore.Forest.axis -> Ast.node_test -> node list
  (** [step doc origins axis test]: the nodes in [axis] to some origin
      that pass [test], in document order, joined set-at-a-time.  Node
      lists are in document order without duplicates; [None] is the
      virtual document node (its child is the root, its descendants are
      all nodes). *)

  val value : doc -> node -> string option

  val compare_node : node -> node -> int
  (** Document order. *)
end

(** The {!Xmlcore.Forest} axis an XPath axis joins along: from a node,
    [//] reaches its proper descendants. *)
let forest_axis = function
  | Ast.Child -> Xmlcore.Forest.Child
  | Ast.Descendant_or_self -> Xmlcore.Forest.Descendant
  | Ast.Parent -> Xmlcore.Forest.Parent
  | Ast.Following_sibling -> Xmlcore.Forest.Following_sibling
  | Ast.Preceding_sibling -> Xmlcore.Forest.Preceding_sibling
  | Ast.Following -> Xmlcore.Forest.Following
  | Ast.Preceding -> Xmlcore.Forest.Preceding

(** The nodes of a document a test can select, as a forest node set. *)
let candidates doc = function
  | Ast.Tag tag -> Xmlcore.Doc.tagged doc tag
  | Ast.Wildcard -> Xmlcore.Doc.elements doc

module Doc_nav = struct
  type doc = Xmlcore.Doc.t
  type node = Xmlcore.Doc.node

  let root = Xmlcore.Doc.root
  let value = Xmlcore.Doc.value
  let compare_node = Int.compare

  let step doc origins axis test =
    let cands = candidates doc test in
    Array.to_list
      (match origins, axis with
       | None, Xmlcore.Forest.Child -> Xmlcore.Forest.inter [| root doc |] cands
       | None, Xmlcore.Forest.Descendant -> cands
       | None, _ -> [||]
       | Some origins, _ ->
         Xmlcore.Forest.join (Xmlcore.Doc.forest doc) axis (Array.of_list origins) cands)
end
