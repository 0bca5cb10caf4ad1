(** Plan-directed server evaluation.

    {!run} computes the same kind of response as
    {!Secure.Server.answer} — and an answer-equivalent one: every block
    a correct final answer needs is shipped — but follows the plan's
    order: the pivot's value-range predicates are hoisted, the
    tightened pivot back-propagates to shrink earlier seeds, and each
    step's predicates apply in the plan's order.  The plan is handed to
    {!Secure.Server.answer_planned}, the server's one forward pass, so
    the engine holds no join or step loop of its own. *)

type step_actual = {
  index : int;
  axis : Xpath.Ast.axis;
  estimated : float;   (** the plan's selected estimate for this step *)
  actual_raw : int;    (** seed candidates actually scanned (after any
                           pre-tightening) *)
  surviving : int;     (** after joins and predicates *)
}

type run = {
  response : Secure.Server.response;
  steps : step_actual list;
}

val application_order : int list -> int -> int list
(** Sanitised predicate order: plan order with invalid indices dropped
    and missing ones appended. *)

val run : Secure.Server.t -> Plan.t -> Secure.Squery.path -> run
