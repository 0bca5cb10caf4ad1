(** Immutable B-tree with [int64] keys and arbitrary payloads.

    This is the server-side value index of Section 5.2: data entries are
    [(evalue, Bid)] pairs mapping OPESS ciphertext values to encrypted
    block ids.  Because OPESS {e splits} plaintext values, equality
    predicates become range scans here, so the range query is the
    central operation.

    A tree is built once, by {!bulk_load}, and never changes: an edit
    builds a fresh tree, so a holder of the old one keeps reading what
    it was built from.  Nodes satisfy the CLRS invariants (every node
    except the root holds between [t-1] and [2t-1] keys, all leaves at
    one depth); duplicate keys keep the order of the input list. *)

type 'a t

val bulk_load : ?min_degree:int -> (int64 * 'a) list -> 'a t
(** Build a tree from entries in one pass: the entries are sorted
    (stably, so duplicate order is preserved) and packed bottom-up into
    nodes filled as evenly as the invariants allow.  [min_degree] is the
    CLRS parameter [t >= 2]; default 16 (nodes hold up to 31 keys).
    @raise Invalid_argument when [min_degree < 2]. *)

val of_array : ?min_degree:int -> ?pos:int -> ?len:int -> (int64 * 'a) array -> 'a t
(** {!bulk_load} of the slice [entries.(pos) .. entries.(pos + len - 1)]
    (by default the whole array).  A slice already in key order is
    packed where it lies, with no copy and no sort; the array is never
    modified.
    @raise Invalid_argument when [min_degree < 2] or the slice is out
    of bounds. *)

val length : 'a t -> int
(** Number of entries. *)

val height : 'a t -> int
(** Height in levels; the empty tree has height 1 (an empty leaf). *)

val node_count : 'a t -> int
(** Number of B-tree nodes (for index-size accounting). *)

val range : 'a t -> lo:int64 -> hi:int64 -> (int64 * 'a) list
(** [range t ~lo ~hi] returns the entries with [lo <= key <= hi] in key
    order (input order among equal keys). *)

val to_list : 'a t -> (int64 * 'a) list
(** All entries in key order. *)

val validate : 'a t -> (unit, string) result
(** Checks the B-tree invariants (key ordering, fill factors, uniform
    leaf depth).  Used by the property tests. *)
