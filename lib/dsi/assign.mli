(** DSI interval assignment — the [calInterval] algorithm of Figure 3.

    The root receives [\[0, 1\]].  A node [p] with interval
    [\[min, max\]] and [N] children divides its width into [2N + 1]
    slots of size [d = (max - min) / (2N + 1)]; child [i] (1-based)
    receives
    {v
      min_i = min + (2i - 1)·d − w1_i·d
      max_i = min + 2i·d      + w2_i·d
    v}
    with per-child secret weights [w1_i, w2_i ∈ (0, 0.5)].  This leaves
    a strictly positive gap of [(1 − w2_i − w1_{i+1})·d] between
    adjacent children, a gap before the first child and one after the
    last — so the server can never tell whether two table intervals were
    adjacent siblings, nor how many nodes a grouped interval hides.

    Weights are derived from the client's DSI key via a PRF keyed by
    the child's preorder id, so the client can regenerate them without
    storing anything. *)

type t
(** Intervals for every node of one document. *)

val assign : key:string -> Xmlcore.Doc.t -> t
(** [assign ~key doc] runs calInterval over the whole document. *)

val interval : t -> Xmlcore.Doc.node -> Interval.t
(** The interval assigned to a node. *)

val doc : t -> Xmlcore.Doc.t

val of_intervals : Xmlcore.Doc.t -> Interval.t array -> t
(** [of_intervals doc intervals] wraps an externally supplied interval
    array (indexed by preorder node id) as an assignment.  This is how
    incrementally patched assignments are built: surviving nodes copy
    their old intervals through the edit's node correspondence, inserted
    nodes draw fresh ones from {!interval_in_gap}/{!subdivide}.  A
    patched assignment is {e not} recomputable from the key alone, so
    persistence must store the array.  The array is copied.
    @raise Invalid_argument when the length differs from the document's
    node count. *)

val intervals : t -> Interval.t array
(** The per-node interval array (a copy), for persistence. *)

val subdivide : key:string -> t -> Xmlcore.Doc.node -> unit
(** [subdivide ~key t node] reruns calInterval below [node], placing
    every descendant inside [node]'s current interval (which must
    already be set, e.g. by {!interval_in_gap}).  Used after an insert
    to lay out the new subtree's interior.
    @raise Invalid_argument when float precision would collapse, as in
    {!assign}. *)

val interval_in_gap :
  key:string -> label:int -> lo:float -> hi:float -> Interval.t
(** [interval_in_gap ~key ~label ~lo ~hi] draws a fresh interval
    strictly inside the open gap [(lo, hi)], keyed like the calInterval
    weights.  This is the incremental-update primitive: the gaps that
    calInterval reserves between siblings (and between a parent's
    bounds and its first/last child) can absorb inserted subtrees
    without moving any existing interval.
    @raise Invalid_argument if [label] is negative, or the gap is empty
    or too narrow for a well-formed interval. *)

val validate : t -> (unit, string) result
(** Checks the structural invariants: every child interval strictly
    inside its parent's, positive gaps between adjacent siblings,
    first/last child strictly inside the parent's bounds.  Fails also
    when float precision has degenerated (zero-width intervals), which
    bounds the document depth/fanout this index supports. *)
