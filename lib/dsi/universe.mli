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

val members : t -> Interval.t list -> int array
(** The node set of the listed intervals that lie in the universe (the
    rest are dropped); a sorted list costs little more than its
    length. *)

val patch : t -> removed:Interval.t list -> added:Interval.t list -> t * int array
(** [patch u ~removed ~added] is the universe after one row change:
    [removed] are row members taken out, [added] row members put in
    (multisets: an interval leaves only once no row holds it), with the
    old → new position map ([-1] for an interval that left).  One merge
    of the sorted survivors with the sorted newcomers, no re-sort; the
    result equals {!index} of the changed rows.
    @raise Invalid_argument when a removed interval is not in [u]. *)

val size : t -> int
val interval : t -> int -> Interval.t
val forest : t -> Xmlcore.Forest.t

val position : ?from:int -> t -> Interval.t -> int option
(** Where an interval sits in the universe.  The search gallops from
    position [from] (default [0]) when the interval lies beyond it, so
    looking up a sorted list costs little more than walking it. *)
