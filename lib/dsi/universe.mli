(** The DSI table as a join forest.

    The server's structural joins (Section 6.2, step 1) run on
    {!Xmlcore.Forest}.  Its universe is every interval stored in the
    DSI index table, sorted by {!Interval.compare_by_lo}.  Because DSI
    intervals form a laminar family (two intervals are disjoint or
    strictly nested), that order is the preorder of their containment
    forest, and a node's forest parent is its innermost strict
    container.  That is the [z] of the paper's child-axis derivation
    [child(x,y) <-> desc(x,y) /\ ¬∃z: desc(x,z) /\ desc(z,y)], found
    once per table instead of once per join.  A grouped sibling hull is
    one node whose children are the grouped members' children. *)

type t

val index : Interval.t list array -> t * int array array
(** [index rows] is the universe of the rows' intervals (sorted, each
    interval once) with its containment forest, and each row as a node
    set of universe positions.  One sort and two linear passes. *)

val size : t -> int
val interval : t -> int -> Interval.t
val forest : t -> Xmlcore.Forest.t

val position : ?from:int -> t -> Interval.t -> int option
(** Where an interval sits in the universe.  The search gallops from
    position [from] (default [0]) when the interval lies beyond it, so
    looking up a sorted list costs little more than walking it. *)
