(** Encryption schemes (Sections 4.1, 4.2 and the four experimental
    variants of Section 7.1).

    An encryption scheme identifies the elements to encrypt: a set of
    {e block roots}, each of which is encrypted together with its whole
    subtree (and a decoy when the root is a leaf).  The four kinds:

    - [Opt] — the optimal secure scheme: node-type SC bindings plus an
      exact minimum-weight vertex cover of the constraint graph.
    - [App] — same, but the cover comes from Clarkson's greedy
      2-approximation.
    - [Sub] — the parents of [Opt]'s block roots (coarser blocks).
    - [Top] — the whole document as a single block.

    All four are {e secure} in the sense of Definition 3.3 (they
    encrypt at least what the SCs demand); they differ in size and in
    query-processing cost, which is exactly what the experiments
    measure. *)

type kind = Opt | App | Sub | Top

val kind_to_string : kind -> string
val all_kinds : kind list

type t = {
  kind : kind;
  block_roots : Xmlcore.Doc.node list;
    (** in document order, no root nested inside another *)
  covered_tags : string list;
    (** the vertex-cover tags (empty for [Top]) *)
}

val build : Xmlcore.Doc.t -> Sc.t list -> kind -> t
(** Construct the scheme of the given kind for the document and SCs. *)

val size : Xmlcore.Doc.t -> t -> int
(** Scheme size per Definition 4.1: total node count over all blocks,
    decoys included. *)

val block_count : t -> int

val coverage : Xmlcore.Doc.t -> t -> bool array
(** Node id → is the node inside (or the root of) an encryption block?
    One pass over the block roots' preorder id runs: O(nodes). *)

val enforces : Xmlcore.Doc.t -> t -> Sc.t list -> (unit, string) result
(** Check that the scheme enforces every SC: node-type bindings are in
    blocks, and for every association witness pair at least one side is
    in a block.  [Error] explains the first violation. *)
