module Limiter = Limiter
module Breaker = Breaker

type config = {
  shards : int;
  queue_depth : int;
  bucket_capacity : int;
  refill_per_round : int;
  max_inflight : int;
  breaker_threshold : int;
  breaker_cooldown : int;
}

let default_config =
  {
    shards = 4;
    queue_depth = 8;
    bucket_capacity = 4;
    refill_per_round = 2;
    max_inflight = 0;
    breaker_threshold = 3;
    breaker_cooldown = 2;
  }

type route = [ `Wire | `Engine ]

type reject =
  | Overloaded
  | Breaker_open
  | Unknown_tenant

let reject_to_string = function
  | Overloaded -> "overloaded"
  | Breaker_open -> "breaker open"
  | Unknown_tenant -> "unknown tenant"

type outcome =
  | Answered of {
      answers : Secure.Client.answer list;
      cost : Secure.System.cost;
      generation : int;
    }
  | Failed of Secure.Session.error
  | Shed of reject

type completion = {
  ticket : int;
  tenant : string;
  outcome : outcome;
}

type tenant = {
  id : string;
  shard : int;
  route : route;
  mutable sys : Secure.System.t;
  engine : Engine.t option;
  budget : Attack.Budget.t option;
  breaker : Breaker.t;
  bucket : Limiter.t;
  queue : (int * Xpath.Ast.path) Queue.t;
  m_submitted : Obs.Metric.counter;
  m_served : Obs.Metric.counter;
  m_failed : Obs.Metric.counter;
  m_shed : Obs.Metric.counter;
  m_rejected : Obs.Metric.counter;
}

type t = {
  cfg : config;
  pool : Parallel.Pool.t option;
  reg : Obs.Metric.registry;
  by_id : (string, tenant) Hashtbl.t;
  mutable order : tenant list;   (* (shard, id)-sorted admission order *)
  mutable round : int;
  mutable next_ticket : int;
  m_rounds : Obs.Metric.counter;
  m_admitted : Obs.Metric.counter;
  m_probes : Obs.Metric.counter;
}

(* FNV-1a, so the shard map is stable across runs and OCaml versions
   (Hashtbl.hash is neither). *)
let shard_hash s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

let create ?(config = default_config) ?pool () =
  if config.shards < 1 then invalid_arg "Serve.create: shards < 1";
  if config.queue_depth < 1 then invalid_arg "Serve.create: queue_depth < 1";
  if config.max_inflight < 0 then invalid_arg "Serve.create: max_inflight < 0";
  (* bucket and breaker fields are validated by Limiter/Breaker.create
     at registration time *)
  let reg = Obs.Metric.create ~enabled:true () in
  {
    cfg = config;
    pool;
    reg;
    by_id = Hashtbl.create 16;
    order = [];
    round = 0;
    next_ticket = 0;
    m_rounds = Obs.Metric.counter reg "serve.rounds" ~help:"serving rounds run";
    m_admitted =
      Obs.Metric.counter reg "serve.admitted"
        ~help:"queries admitted past the buckets and in-flight cap";
    m_probes =
      Obs.Metric.counter reg "serve.probes"
        ~help:"half-open probe queries admitted";
  }

let config t = t.cfg
let pool t = t.pool
let registry t = t.reg
let rounds t = t.round

let shard_of t id = shard_hash id mod t.cfg.shards

let find t id =
  match Hashtbl.find_opt t.by_id id with
  | Some tn -> tn
  | None -> raise Not_found

let register t ~id ?(route = `Wire) ?budget sys =
  if Hashtbl.mem t.by_id id then
    invalid_arg (Printf.sprintf "Serve.register: duplicate tenant %S" id);
  (* Tenant ids are caller-supplied: sanitize before they become metric
     names, so a hostile id cannot inject structure into the sinks. *)
  let label = Obs.Label.sanitize id in
  let c name help =
    Obs.Metric.counter t.reg ("serve." ^ label ^ "." ^ name) ~help
  in
  let tn =
    {
      id;
      shard = shard_of t id;
      route;
      sys;
      engine = (match route with `Engine -> Some (Engine.create sys) | `Wire -> None);
      budget;
      breaker =
        Breaker.create ~threshold:t.cfg.breaker_threshold
          ~cooldown:t.cfg.breaker_cooldown;
      bucket =
        Limiter.create ~capacity:t.cfg.bucket_capacity
          ~refill:t.cfg.refill_per_round;
      queue = Queue.create ();
      m_submitted = c "submitted" "queries accepted into the queue";
      m_served = c "served" "queries answered";
      m_failed = c "failed" "wire failures returned to the caller";
      m_shed = c "shed" "queued queries dropped by a breaker trip";
      m_rejected = c "rejected" "submissions refused with a typed reject";
    }
  in
  Hashtbl.add t.by_id id tn;
  t.order <-
    List.sort
      (fun a b ->
        match compare a.shard b.shard with 0 -> compare a.id b.id | c -> c)
      (tn :: t.order)

let tenants t = List.map (fun tn -> tn.id) t.order
let system t id = (find t id).sys
let generation t id = Secure.System.generation (find t id).sys
let breaker t id = (find t id).breaker
let queue_length t id = Queue.length (find t id).queue
let engine t id = (find t id).engine
let budget t id = (find t id).budget

(* Score every budgeted tenant's ledger against its declaration.  The
   ledger must be enabled for the hosting (otherwise the trace is empty
   and the budget fails closed) — auditing is an explicit opt-in, like
   the ledger itself. *)
let audit t =
  List.filter_map
    (fun tn ->
      match tn.budget with
      | None -> None
      | Some budget ->
        let rounds = Obs.Ledger.rounds (Secure.System.ledger tn.sys) in
        Some (tn.id, Attack.Budget.check budget rounds))
    t.order

let pool_contended t =
  match t.pool with Some p -> Parallel.Pool.busy p | None -> false

let submit t ~tenant q =
  match Hashtbl.find_opt t.by_id tenant with
  | None -> Error Unknown_tenant
  | Some tn ->
    if not (Breaker.admits tn.breaker) then begin
      Obs.Metric.incr tn.m_rejected;
      Error Breaker_open
    end
    else if Queue.length tn.queue >= t.cfg.queue_depth || pool_contended t
    then begin
      Obs.Metric.incr tn.m_rejected;
      Error Overloaded
    end
    else begin
      let ticket = t.next_ticket in
      t.next_ticket <- ticket + 1;
      Queue.add (ticket, q) tn.queue;
      Obs.Metric.incr tn.m_submitted;
      Ok ticket
    end

(* The engine path bypasses the session wire, so its report lacks the
   transport fields; synthesize a System.cost with a clean link. *)
let cost_of_report (r : Engine.report) : Secure.System.cost =
  {
    translate_ms = r.translate_ms;
    server_ms = r.server_ms;
    transmit_bytes = r.transmit_bytes;
    transmit_ms = float_of_int r.transmit_bytes /. Secure.System.link_bytes_per_ms;
    decrypt_ms = r.decrypt_ms;
    postprocess_ms = r.postprocess_ms;
    blocks_returned = r.blocks_returned;
    answer_count = r.answer_count;
    attempts = 1;
    retransmitted_bytes = 0;
    faults_absorbed = 0;
    replays = 0;
    degraded = false;
  }

let max_inflight t =
  if t.cfg.max_inflight > 0 then t.cfg.max_inflight
  else 4 * (match t.pool with Some p -> Parallel.Pool.size p | None -> 1)

(* Round-robin admission: walk tenants in (shard, id) order starting at
   a rotating offset, taking one query per eligible tenant per pass
   until the in-flight cap bites or a full pass admits nothing. *)
let admit t =
  let order = Array.of_list t.order in
  let n = Array.length order in
  if n = 0 then []
  else begin
    let cap = max_inflight t in
    let taken = Hashtbl.create n in (* id -> (ticket * query) list, reversed *)
    let counts = Array.make n 0 in
    let admitted = ref 0 in
    let progress = ref true in
    while !admitted < cap && !progress do
      progress := false;
      for i = 0 to n - 1 do
        let tn = order.((i + t.round) mod n) in
        let probe_slot_free = (not (Breaker.probing tn.breaker)) ||
                              counts.((i + t.round) mod n) = 0 in
        if
          !admitted < cap
          && (not (Queue.is_empty tn.queue))
          && Breaker.admits tn.breaker
          && probe_slot_free
          && Limiter.try_take tn.bucket
        then begin
          let job = Queue.pop tn.queue in
          let prev =
            match Hashtbl.find_opt taken tn.id with Some l -> l | None -> []
          in
          Hashtbl.replace taken tn.id (job :: prev);
          counts.((i + t.round) mod n) <- counts.((i + t.round) mod n) + 1;
          if Breaker.probing tn.breaker then begin
            Breaker.note_probe tn.breaker;
            Obs.Metric.incr t.m_probes
          end;
          incr admitted;
          progress := true
        end
      done
    done;
    (* groups in admission (rotated) order, jobs within a group FIFO *)
    let groups = ref [] in
    for i = n - 1 downto 0 do
      let tn = order.((i + t.round) mod n) in
      match Hashtbl.find_opt taken tn.id with
      | Some jobs -> groups := (tn, List.rev jobs) :: !groups
      | None -> ()
    done;
    !groups
  end

let evaluate_job tn q =
  match tn.route, tn.engine with
  | `Engine, Some eng ->
    let answers, report = Engine.evaluate_report eng q in
    Ok (answers, cost_of_report report, Secure.System.generation (Engine.system eng))
  | _ ->
    Result.map
      (fun r ->
        r.Secure.System.answers, r.Secure.System.cost, Secure.System.generation tn.sys)
      (Secure.System.read tn.sys (Secure.System.Query q))

let shed_queue tn out =
  let shed = ref [] in
  while not (Queue.is_empty tn.queue) do
    let ticket, _ = Queue.pop tn.queue in
    Obs.Metric.incr tn.m_shed;
    shed := { ticket; tenant = tn.id; outcome = Shed Breaker_open } :: !shed
  done;
  out := List.rev_append !shed !out

let run_round t =
  List.iter
    (fun tn ->
      Breaker.on_round tn.breaker;
      Limiter.refill tn.bucket)
    t.order;
  let groups = admit t in
  (* One group per tenant: a worker owns all of a tenant's per-round
     state (session lane, ledger, tracer), so groups never race. *)
  let eval_group (tn, jobs) =
    List.map (fun (ticket, q) -> (ticket, evaluate_job tn q)) jobs
  in
  let results =
    match t.pool with
    | Some p -> Parallel.Pool.map_list p eval_group groups
    | None -> List.map eval_group groups
  in
  (* Post-merge, on the calling domain: breaker transitions, queue
     shedding and every metric bump. *)
  let out = ref [] in
  List.iter2
    (fun (tn, _) ticketed ->
      List.iter
        (fun (ticket, res) ->
          Obs.Metric.incr t.m_admitted;
          match res with
          | Ok (answers, cost, generation) ->
            Breaker.on_success tn.breaker;
            Obs.Metric.incr tn.m_served;
            out :=
              { ticket; tenant = tn.id;
                outcome = Answered { answers; cost; generation } }
              :: !out
          | Error e ->
            Obs.Metric.incr tn.m_failed;
            out := { ticket; tenant = tn.id; outcome = Failed e } :: !out;
            if Breaker.on_failure tn.breaker then shed_queue tn out)
        ticketed)
    groups results;
  t.round <- t.round + 1;
  Obs.Metric.incr t.m_rounds;
  List.rev !out

let drain t ?(max_rounds = 64) () =
  let out = ref [] in
  let n = ref 0 in
  let pending () = List.exists (fun tn -> not (Queue.is_empty tn.queue)) t.order in
  while pending () && !n < max_rounds do
    out := List.rev_append (run_round t) !out;
    incr n
  done;
  List.rev !out

let relink t ~tenant ?max_attempts ?faults () =
  let tn = find t tenant in
  tn.sys <- Secure.System.reset_link ?max_attempts ?faults tn.sys

let rehost t ~tenant ~new_master =
  let tn = find t tenant in
  (* An [`Engine] tenant's engine follows the rotation itself: its
     caches flush and it re-binds to the new hosting. *)
  let sys', cost = Secure.System.rotate tn.sys ~new_master in
  tn.sys <- sys';
  Limiter.reset tn.bucket;
  Breaker.reset tn.breaker;
  cost
