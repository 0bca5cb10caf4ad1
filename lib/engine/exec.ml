module Server = Secure.Server
module Squery = Secure.Squery

type step_actual = {
  index : int;
  axis : Xpath.Ast.axis;
  estimated : float;
  actual_raw : int;
  surviving : int;
}

type run = {
  response : Server.response;
  steps : step_actual list;
}

(* Predicate application order: the plan's order, with out-of-range or
   duplicate indices dropped (impossible for a plan compiled from this
   query, but a cached plan is data) and any index the order misses
   appended — no predicate is ever skipped. *)
let application_order plan_order n =
  let seen = Array.make (Int.max 1 n) false in
  let picked =
    List.filter
      (fun j ->
        if j >= 0 && j < n && not seen.(j) then begin
          seen.(j) <- true;
          true
        end
        else false)
      plan_order
  in
  let missed = ref [] in
  for j = n - 1 downto 0 do
    if not seen.(j) then missed := j :: !missed
  done;
  picked @ !missed

(* Run [squery] under [plan] through the server's own forward pass: the
   plan only changes the order work happens in, so the shipped block set
   stays a superset of what the client needs. *)
let run server plan (squery : Squery.path) =
  let steps = Array.of_list plan.Plan.steps in
  let step_plan i = if i >= 0 && i < Array.length steps then Some steps.(i) else None in
  let order i n =
    match step_plan i with
    | None -> Plan.identity_order n
    | Some sp -> application_order sp.Plan.pred_order n
  in
  let hoisted =
    match step_plan plan.Plan.pivot with
    | Some sp -> sp.Plan.pre_applied
    | None -> []
  in
  let response, reports =
    Server.answer_planned server { Server.pivot = plan.Plan.pivot; hoisted; order } squery
  in
  let steps =
    List.map
      (fun (r : Server.step_report) ->
        { index = r.Server.step_index;
          axis = r.Server.axis;
          estimated =
            (match step_plan r.Server.step_index with
             | Some sp -> sp.Plan.est_selected
             | None -> 0.0);
          actual_raw = r.Server.raw_candidates;
          surviving = r.Server.surviving_candidates })
      reports
  in
  { response; steps }
