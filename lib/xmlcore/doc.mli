(** Indexed XML documents.

    A {!Doc.t} is a {!Tree.t} flattened into arrays indexed by preorder
    node id, giving O(1) parent/child/tag access and stable node
    identity — the substrate both the XPath evaluator and the DSI index
    builder work over.

    Node 0 is always the document root element.  Text leaves are {e not}
    separate nodes here: a leaf element's text is stored as its [value];
    this matches the paper's model where values live at leaves only. *)

type t

type node = int
(** Node id: preorder position in the document, root = 0. *)

val of_tree : Tree.t -> t
(** [of_tree tree] indexes the tree.
    @raise Invalid_argument if the root is a bare text node or some
    element mixes child elements with text. *)

(** Building a document node by node, in preorder: how {!of_tree} and
    {!Parser.parse_doc} fill the arrays without a {!Tree.t} between.
    The depths, subtree sizes, tag sets and element set are derived
    once, by {!Builder.finish}. *)
module Builder : sig
  type doc = t
  type t

  val create : ?capacity:int -> unit -> t
  (** An empty builder; [capacity] (default 16) sizes its arrays, which
      grow as needed. *)

  val open_node : t -> string -> unit
  (** Append a node with this tag as the last child of the innermost
      open node (the root when none is open), and open it.
      @raise Invalid_argument if the root was already closed. *)

  val close_node : t -> string option -> unit
  (** Close the innermost open node with its leaf value ([None] for an
      interior element).
      @raise Invalid_argument when no node is open. *)

  val has_children : t -> bool
  (** Whether the innermost open node has a child yet. *)

  val finish : t -> doc
  (** The document.
      @raise Invalid_argument if no node was added or one is still
      open. *)
end

val to_tree : t -> Tree.t
(** Reconstruct the pure tree (inverse of {!of_tree}). *)

val subtree : t -> node -> Tree.t
(** [subtree doc n] is the pure tree rooted at [n]. *)

val root : t -> node
val node_count : t -> int
val tag : t -> node -> string
val value : t -> node -> string option
(** Leaf text value, [None] for interior elements. *)

val parent : t -> node -> node option
(** [None] only for the root. *)

val children : t -> node -> node list
(** Child elements in document order (leaf elements have none). *)

val child_count : t -> node -> int

val is_leaf : t -> node -> bool
(** True if the node carries a text value (no element children). *)

val depth_of : t -> node -> int
(** Root has depth 0. *)

val height : t -> int
(** Max depth over all nodes. *)

val descendants : t -> node -> node list
(** Proper descendants (excluding [n]) in document order. *)

val descendant_or_self : t -> node -> node list

val is_ancestor : t -> node -> node -> bool
(** [is_ancestor doc a b] iff [a] is a proper ancestor of [b]. *)

val iter : t -> (node -> unit) -> unit
(** Visit every node in document (preorder) order. *)

val fold : t -> ('a -> node -> 'a) -> 'a -> 'a

val nodes_with_tag : t -> string -> node list
(** All nodes carrying the given tag, in document order. *)

val tagged : t -> string -> node array
(** {!nodes_with_tag} as a {!Forest} node set (shared, do not mutate). *)

val elements : t -> node array
(** Every node that is not an attribute (what the XPath [*] test
    selects), as a {!Forest} node set. *)

val forest : t -> Forest.t
(** The document's parent and subtree-size arrays as a join forest. *)

val set_values : t -> (node * string) list -> t
(** [set_values doc edits] is [doc] with each listed leaf's value
    replaced.  Only the value array is copied; every other array and
    index is shared with [doc], which is left as it was. *)

type splice = {
  doc : t;                  (** the edited document *)
  new_of_old : int array;   (** old id → new id; [-1] when deleted *)
  inserted : node list;     (** new ids of the inserted roots, in order *)
}

val splice :
  t -> delete:node list -> insert:(node * node * t * node) list -> splice
(** [splice doc ~delete ~insert] removes the subtree of every [delete]
    root (nested roots are absorbed) and plants, for each
    [(before, parent, src, root)], a copy of [src]'s subtree at [root]
    as a child of [parent], just before old node [before]
    ([node_count doc] for the end).  Ids are old ids; [insert] must list
    the plantings in the order they appear in the result.  The result
    equals {!of_tree} of the edited tree on every accessor, and is
    built from [doc]'s arrays without a tree round trip; [doc] is left
    as it was. *)

val subtree_node_count : t -> node -> int
(** Number of nodes in the subtree rooted at [n] (counting [n]). *)

val pp_node : t -> Format.formatter -> node -> unit
(** Debug rendering: tag, id and value if any. *)
