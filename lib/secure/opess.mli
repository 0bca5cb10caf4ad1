(** OPESS — order-preserving encryption with splitting and scaling
    (Section 5.2).

    For one attribute (leaf tag) with plaintext histogram
    [{(v_1, n_1), ..., (v_k, n_k)}], [build]:

    + maps the domain to numbers (categorical values by rank; the
      client keeps the mapping, cf. Section 5.2.1 last paragraph);
    + picks the largest [m] such that every [n_i >= 2] decomposes as
      [k1·(m-1) + k2·m + k3·(m+1)] (singleton frequencies stay as one
      chunk and rely on scaling, see DESIGN.md);
    + splits each [n_i] into that many chunks, so every ciphertext
      value occurs [m-1], [m] or [m+1] times — a near-flat target
      distribution (Figure 6);
    + displaces chunk [j] of [v_i] to [v_i + (Σ_{t<=j} w_t)·δ_i] with
      secret weights [w_t ∈ (0, 1/(K+1))] and [δ_i] the gap to the next
      domain value, which guarantees the paper's no-straddling condition
      — ciphertexts of different plaintexts never interleave;
    + encrypts displaced values with the order-preserving function of
      {!Crypto.Ope};
    + draws a per-value scale factor [s_i ∈ \[1, 10\]]: every index
      entry for a chunk of [v_i] is replicated [s_i] times, so the
      observable index distribution is no longer flat and cannot be
      re-aggregated against known frequencies.

    The OPE ciphertexts are finally {e namespaced} with the attribute
    id in the top bits, so one global B-tree serves all attributes
    without cross-attribute range pollution. *)

type chunk = {
  cipher : int64;        (** namespaced B-tree key *)
  occurrences : int;     (** how many document occurrences map here *)
}

type value_entry = {
  value : string;
  numeric : float;       (** position on the mapped number line *)
  count : int;
  chunks : chunk list;   (** ciphertexts in increasing order *)
  scale : int;           (** replication factor s_i ∈ [1,10] *)
}

type t

val build : key:string -> attr_id:int -> tag:string -> Xmlcore.Stats.histogram -> t
(** [build ~key ~attr_id ~tag histogram] constructs the catalog for one
    attribute.  [key] must be the per-attribute OPESS key.
    @raise Invalid_argument if [attr_id] is outside [\[0, 126\]]. *)

val patch : key:string -> t -> Xmlcore.Stats.histogram -> t
(** [patch ~key t histogram] brings the catalog up to date with a new
    value histogram for the same attribute.  When the histogram is
    unchanged the catalog itself is returned (structural edits that
    only move nodes).  Otherwise the result equals
    [build ~key ~attr_id:(attr_id t) ~tag:(tag t) histogram] — entries,
    [m] and [K] — but OPE runs only for chunks whose domain point moved:
    every other chunk keeps its cipher and every surviving value its
    scale.  [key] must be the per-attribute OPESS key [t] was built
    under. *)

val of_parts :
  tag:string -> attr_id:int -> m:int -> num_keys:int -> value_entry list -> t
(** Reconstruct a catalog from persisted parts (everything query
    translation needs lives in the entries; the OPE instance is only
    used at build time). *)

val tag : t -> string
val attr_id : t -> int
val chunk_parameter : t -> int
(** The chosen [m]. *)

val key_count : t -> int
(** [K] — the maximum number of chunks any value needs (the paper's
    count of encryption keys; with scaling the client stores [2K]). *)

val entries : t -> value_entry list
(** Sorted by [numeric]. *)

val find_entry : t -> string -> value_entry option

val occurrence_cipher : t -> value:string -> occurrence:int -> int64
(** B-tree key for the [occurrence]-th document occurrence (0-based,
    document order) of [value]: occurrences fill chunks left to right.
    @raise Not_found if the value is outside the catalog or the
    occurrence index exceeds its count. *)

val translate : t -> Xpath.Ast.op -> string -> (int64 * int64) list
(** Translate a value predicate into inclusive B-tree key ranges
    (Figure 7(a), generalised): the qualifying domain values form runs;
    each run becomes the range from its first entry's first chunk to
    its last entry's last chunk.  Equality on an absent value yields
    []. *)

val full_range : t -> (int64 * int64) option
(** Inclusive B-tree key range spanning every chunk of every value of
    this attribute; [None] when the attribute has no values.  Used for
    MIN/MAX aggregate evaluation. *)

val ciphertext_histogram : t -> (int64 * int) list
(** What the server observes per ciphertext value {e before} scaling:
    chunk occurrence counts.  All counts lie in [{1} ∪ {m-1, m, m+1}]. *)

val scaled_histogram : t -> (int64 * int) list
(** Observable index distribution after scaling: chunk count × s_i. *)
