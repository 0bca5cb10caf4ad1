(** Paid-for mitigations: the opt-in layer between callers and the
    wire that spends bandwidth/latency to grow candidate sets.

    Three mitigations, composable and individually priced by bench
    E14:

    - {b pad} — every query goes over the {!Secure.Protocol.Padded}
      wire variant with the full block universe
      ({!Secure.System.block_ids}) as the envelope, so all query
      responses carry the same block set (size and frequency classes
      collapse into one); when that round gives up, a naive read —
      every block, no query — answers instead;
    - {b dummy} — after each query a {!Secure.Protocol.Fetch} round of
      PRNG-chosen cover blocks crosses the wire and is discarded
      undecrypted (flattens the fetch histogram);
    - {b shuffle} — batches are evaluated in a PRNG-permuted order and
      results are returned in the caller's order (breaks positional
      round-to-query correspondence).

    Answers are byte-identical to the unmitigated path in every
    configuration — shipments only widen, and client-side filtering is
    superset-tolerant (the differential suite pins this).  All
    randomness flows through {!Crypto.Prng} from an explicit seed; a
    mitigator replayed with the same seed over the same call sequence
    is bit-reproducible. *)

type config = {
  pad : bool;
  dummies : int;  (** cover blocks fetched after each query; 0 = off *)
  shuffle : bool;
}

val off : config
(** No mitigations: {!evaluate} is exactly [Secure.System.evaluate]. *)

val of_budget : ?dummies:int -> Budget.t -> config
(** Configuration buying exactly the budget's declared mitigations
    ([dummies], default 4, sizes the cover fetch when ["dummy"] is
    bought). *)

type t

val create : seed:int64 -> config -> t
(** The seed drives every PRNG draw (dummy-block choice, batch
    permutation); no ambient randomness is consulted. *)

val config : t -> config

val evaluate :
  t -> Secure.System.t -> Xpath.Ast.path ->
  Secure.Client.answer list * Secure.System.cost
(** One mitigated query round.  The returned cost folds the cover
    traffic's bytes and time into the query's — what the mitigation
    actually charges the caller.
    @raise Secure.System.Unavailable when the query's rounds all gave
    up, as {!Secure.System.evaluate} does. *)

val evaluate_batch :
  t -> Secure.System.t -> Xpath.Ast.path array ->
  (Secure.Client.answer list * Secure.System.cost) array
(** Mitigated batch: {!evaluate} of each query in wire order (shuffled
    when bought); result [i] always answers [queries.(i)], whatever
    order the wire saw. *)
