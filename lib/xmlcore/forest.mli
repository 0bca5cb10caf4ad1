(** Structural joins over a forest stored in preorder.

    A forest of [n] nodes is two int arrays indexed by preorder
    position: [parent] ([-1] for a root) and [size] (nodes in the
    subtree, the node included), so the subtree of [v] is exactly the
    positions [\[v, v + size v)].  {!Doc} is such a forest, and so is a
    DSI interval universe sorted by (lo ascending, hi descending): its
    preorder is the containment order.

    A node set is an int array of positions, strictly increasing.
    {!join} keeps the candidates that stand in an axis to some origin.
    Every axis is one merge of the two sorted inputs.  Gaps with no
    origin are skipped by galloping, so a join from a few origins costs
    little more than what it returns, and a join of two large sets is
    linear in both (Al-Khalifa et al., ICDE 2002).  Nothing here is
    mutable once built, and no join allocates more than its inputs and
    output: one forest may serve many domains at once. *)

type t

val make : parent:int array -> size:int array -> t
(** Wraps the arrays (not copied); they must describe a preorder
    forest. *)

val of_nesting : int -> contains:(int -> int -> bool) -> t
(** [of_nesting n ~contains] is the forest of [n] items listed in
    preorder, where [contains i j] (for [i < j]) says that item [i]
    encloses item [j]: the parent of [j] is the nearest earlier item on
    the enclosing chain.  One stack pass. *)

val parent : t -> int -> int
(** [-1] for a root. *)

type axis =
  | Child
  | Parent
  | Descendant
  | Ancestor
  | Following_sibling
  | Preceding_sibling
  | Following   (** after the origin's subtree *)
  | Preceding   (** before the origin, its ancestors excluded *)

val inverse : axis -> axis
(** [join (inverse a) ~origins:y x] keeps the [x] that have an
    [a]-successor in [y]: the backward direction of a path step. *)

val join : ?self:bool -> t -> axis -> int array -> int array -> int array
(** [join f axis origins cands] keeps the candidates that stand in
    [axis] to at least one origin (siblings share a parent; roots are
    siblings of each other).  With [~self:true] a candidate equal to an
    origin is kept as well. *)

val inter : int array -> int array -> int array
val union : int array -> int array -> int array

val of_unsorted : int array -> int array
(** The node set of any array: sorts it in place and drops duplicates
    (returning the array itself when it had none).  Sorted input costs
    one pass. *)

val seek : int array -> int -> int -> int
(** [seek a i x]: the first index [k >= i] with [a.(k) >= x], or
    [Array.length a]; galloping from [i]. *)
