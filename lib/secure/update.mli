(** Document updates (the paper's future-work item 3).

    Edits address nodes through XPath and rebuild the plaintext tree;
    {!System.update} then re-hosts the edited document under the same
    master key and security constraints (the {e re-host} strategy —
    always secure, because the fresh setup re-derives the scheme and
    re-checks enforcement).

    The DSI layer's contribution to cheaper updates is exposed
    separately as {!Dsi.Assign.interval_in_gap}: the deliberate gaps
    between sibling intervals can absorb inserted subtrees without
    renumbering, which is what an incremental server protocol would
    build on. *)

type edit =
  | Insert_child of {
      parent : Xpath.Ast.path;   (** every binding receives the child *)
      position : int;            (** clamped into [0, child_count] *)
      subtree : Xmlcore.Tree.t;
    }
  | Delete_nodes of Xpath.Ast.path
      (** every binding's subtree is removed *)
  | Set_value of Xpath.Ast.path * string
      (** every binding must be a leaf; its text value is replaced *)

val apply : Xmlcore.Doc.t -> edit -> Xmlcore.Tree.t
(** Apply one edit, returning the new plaintext tree.
    @raise Invalid_argument when the edit is impossible: deleting the
    root, setting the value of a non-leaf, inserting under a leaf or
    inserting a subtree with a loose text node (see
    {!tree_node_count}), or a path that binds nothing. *)

val apply_all : Xmlcore.Doc.t -> edit list -> Xmlcore.Doc.t
(** Fold {!apply} over a batch (re-indexing between edits so later
    paths see earlier edits). *)

type plan = {
  edit : edit;
  edited : Xmlcore.Doc.t;
      (** the post-edit document, spliced from the old one's arrays *)
  new_of_old : int array;        (** old id → new id; [-1] when deleted *)
  old_of_new : int array;        (** new id → old id; [-1] when inserted *)
  inserted_roots : int list;     (** {e new} ids of inserted subtree roots *)
  deleted_roots : int list;      (** {e old} ids of removed subtree roots
                                     (nested bindings are folded into their
                                     outermost deleted ancestor) *)
  changed_values : int list;     (** {e old} ids of leaves whose text changed *)
  structural : bool;             (** whether node ids shifted at all *)
}
(** A planned edit: the edited document together with the exact node
    correspondence that {!apply}'s rebuild induces.  [edited] equals
    [Doc.of_tree (apply doc edit)] on every accessor; a value edit
    shares every array of the old document but its values.  Preorder ids shift
    under structural edits, so every incremental consumer (interval
    copying, DSI table surgery, block re-encryption) routes through
    [new_of_old]/[old_of_new] instead of assuming stable ids. *)

val delta : Xmlcore.Doc.t -> edit -> plan
(** Plan one edit.  Same validation failures as {!apply}
    ([Invalid_argument] on a path binding nothing, deleting the root,
    setting a non-leaf, inserting under a leaf, inserting a loose text
    node). *)

val tree_node_count : Xmlcore.Tree.t -> int
(** Number of document nodes the tree occupies after
    {!Xmlcore.Doc.of_tree} ([Element (tag, [Text v])] collapses to one
    leaf).
    @raise Invalid_argument on a loose text node. *)

val describe : edit -> string
(** One-line rendering of an edit's {e shape} for logs: the path and
    position only — replacement values and inserted subtrees are never
    included. *)
