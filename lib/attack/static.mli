(** Attacks on the stored data, for the Section 3.3 threat model.

    These play the honest-but-curious server armed with exact knowledge
    of domain values and occurrence frequencies, working from what it
    stores: the value index, the DSI table, the encrypted database's
    size.  They measure how much it can actually recover — the
    empirical counterpart of Theorems 4.1, 5.1, 5.2 and 6.1.
    {!Passes} attacks the query trace instead.

    Known distributions are [(plaintext, count)] lists (a value
    histogram or a tag census); observed ones pair a server-side key —
    a B-tree cipher, a DSI table token — with its count. *)

type frequency_result = {
  domain_size : int;             (** distinct plaintext values *)
  cracked : (string * int) list; (** plaintext values uniquely re-identified,
                                     with the matched count *)
  crack_rate : float;            (** |cracked| / domain_size *)
}

val frequency_attack :
  known:(string * int) list -> observed:('a * int) list -> frequency_result
(** [frequency_attack ~known ~observed] matches counts: a plaintext
    value with count [c] is cracked iff [c] is unique among the known
    counts {e and} exactly one observed count equals [c].  Two uses:

    - value frequencies (Section 4.1): [known] is an attribute's exact
      plaintext histogram, [observed] the ciphertext-side frequency
      table (e.g. B-tree key frequencies).  Against a {e broken} scheme
      (deterministic per-leaf encryption, no decoy, no OPESS) this
      recovers most of the domain; against this system's value index
      the split-and-scaled distribution admits no matches.
    - the tag census (Section 8, future work 2 — the attacker the paper
      does {e not} defend against): [known] maps tags to node counts,
      [observed] maps each DSI table token to its interval count.
      Every tag whose count is unique is re-identified, unless grouping
      has collapsed counts. *)

val deterministic_leaf_histogram : (string * int) list -> (int64 * int) list
(** The ciphertext histogram a {e broken} scheme would expose:
    deterministic encryption maps each value to one ciphertext with an
    unchanged count.  Feed to {!frequency_attack} to reproduce the
    Section 4.1 break. *)

type coalescing_result = {
  valid_partitions : int;
      (** ways to cut the ordered ciphertext frequency sequence into
          runs whose sums reproduce the known ordered plaintext
          frequencies (capped at 1_000_000) *)
  unique : bool;  (** exactly one — the attacker fully recovers the mapping *)
}

val coalescing_attack :
  known:(string * int) list -> observed:(int64 * int) list -> coalescing_result
(** The Section 5.2.1 re-aggregation attack that motivates {e scaling}:
    splitting preserves totals and order, so an attacker who knows the
    ordered plaintext frequencies can try to coalesce adjacent
    ciphertext values until the counts match.  Against split-only
    output the valid partition is typically unique (full crack);
    scaling destroys the sums, leaving zero valid partitions.  [known]
    must be ordered the same way the index orders values (numerically
    when the domain is numeric — pass the OPESS entry order). *)

type size_result = {
  candidates : int;
  survivors : int;   (** candidates whose encrypted size matches *)
}

val size_attack : candidate_sizes:int list -> target_size:int -> size_result
(** Size-based attack: candidates are eliminated when their encrypted
    length differs from the hosted database's. *)

val belief_sequence : k:int -> n:int -> queries:int -> float list
(** Theorem 6.1's belief trajectory for an association [p:(b1,b2)]
    with [k] distinct plaintext and [n] ciphertext values of [b1]: the
    attacker's belief that a specific association holds starts at
    [1/k] and drops to [1/C(n-1,k-1)] at the first query, where it
    stays.  Element 0 is the prior; element [i] the belief after [i]
    queries. *)
