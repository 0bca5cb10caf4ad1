(* Serving-tier tests: the Limiter/Breaker state machines, admission
   control and typed backpressure, and the chaos isolation gate — N
   tenants under seeded faults targeting one of them, with the healthy
   tenants byte-identical to their single-tenant references, zero
   cross-tenant ledger/cache entries, a breaker that trips and recovers
   through its probe, and Overloaded rejections under offered overload. *)

module System = Secure.System
module Session = Secure.Session
module Transport = Secure.Transport
module Pool = Parallel.Pool
module Limiter = Serve.Limiter
module Breaker = Serve.Breaker

let counter_value srv name =
  Obs.Metric.value (Obs.Metric.counter (Serve.registry srv) name)

(* --- Limiter -------------------------------------------------------- *)

let limiter_bucket_shape () =
  let l = Limiter.create ~capacity:3 ~refill:2 in
  Alcotest.(check int) "starts full" 3 (Limiter.tokens l);
  Alcotest.(check bool) "take 1" true (Limiter.try_take l);
  Alcotest.(check bool) "take 2" true (Limiter.try_take l);
  Alcotest.(check bool) "take 3" true (Limiter.try_take l);
  Alcotest.(check bool) "empty refuses" false (Limiter.try_take l);
  Limiter.refill l;
  Alcotest.(check int) "refill adds the per-round quota" 2 (Limiter.tokens l);
  Limiter.refill l;
  Limiter.refill l;
  Alcotest.(check int) "refill clamps to capacity" 3 (Limiter.tokens l);
  ignore (Limiter.try_take l);
  Limiter.reset l;
  Alcotest.(check int) "reset restores a full bucket" 3 (Limiter.tokens l);
  (match Limiter.create ~capacity:1 ~refill:0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "refill 0 must be rejected");
  match Limiter.create ~capacity:1 ~refill:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity < refill must be rejected"

(* --- Breaker -------------------------------------------------------- *)

let breaker_lifecycle () =
  let b = Breaker.create ~threshold:3 ~cooldown:2 in
  Alcotest.(check bool) "closed admits" true (Breaker.admits b);
  Alcotest.(check bool) "failure 1 no trip" false (Breaker.on_failure b);
  Alcotest.(check bool) "failure 2 no trip" false (Breaker.on_failure b);
  (* a success resets the consecutive count *)
  Breaker.on_success b;
  Alcotest.(check bool) "still no trip after reset" false (Breaker.on_failure b);
  Alcotest.(check bool) "..." false (Breaker.on_failure b);
  Alcotest.(check bool) "third consecutive failure trips" true
    (Breaker.on_failure b);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Alcotest.(check bool) "open rejects" false (Breaker.admits b);
  Breaker.on_round b;
  Alcotest.(check bool) "still cooling" false (Breaker.admits b);
  Breaker.on_round b;
  Alcotest.(check bool) "half-open admits" true (Breaker.admits b);
  Alcotest.(check bool) "half-open is the probe state" true (Breaker.probing b);
  (* failed probe re-opens immediately *)
  Alcotest.(check bool) "failed probe trips" true (Breaker.on_failure b);
  Alcotest.(check int) "second trip" 2 (Breaker.trips b);
  Breaker.on_round b;
  Breaker.on_round b;
  Alcotest.(check bool) "half-open again" true (Breaker.probing b);
  Breaker.on_success b;
  Alcotest.(check bool) "successful probe closes" true
    (Breaker.state b = Breaker.Closed 0);
  Breaker.reset b;
  Alcotest.(check int) "reset keeps the trip history" 2 (Breaker.trips b)

(* --- Fixtures ------------------------------------------------------- *)

let build ~master ~patients =
  let doc = Workload.Health.generate ~patients () in
  let scs = Workload.Health.constraints () in
  fst (System.setup ~master doc scs Secure.Scheme.Opt)

let queries =
  List.map Xpath.Parser.parse
    [ "//patient/pname"; "//patient[age>=50]/pname";
      "//treat/doctor"; "//patient[.//disease='diarrhea']/pname" ]

let reference_answers sys =
  List.map (fun q -> Helpers.norm_trees (fst (System.evaluate sys q))) queries

let submit_all srv ~tenant =
  List.map
    (fun q ->
      match Serve.submit srv ~tenant q with
      | Ok ticket -> ticket
      | Error r -> Alcotest.failf "submit rejected: %s" (Serve.reject_to_string r))
    queries

let answers_cost_gen c =
  match c.Serve.outcome with
  | Serve.Answered { answers; cost; generation } ->
    Some (answers, cost, generation)
  | _ -> None

(* --- Admission and backpressure ------------------------------------- *)

let overload_is_a_typed_rejection () =
  let config =
    { Serve.default_config with
      Serve.queue_depth = 3; bucket_capacity = 1; refill_per_round = 1;
      max_inflight = 1 }
  in
  let srv = Serve.create ~config () in
  Serve.register srv ~id:"solo" (build ~master:"solo-m" ~patients:4);
  let q = List.hd queries in
  let accepted = ref 0 and rejected = ref 0 in
  for _ = 1 to 5 do
    match Serve.submit srv ~tenant:"solo" q with
    | Ok _ -> incr accepted
    | Error Serve.Overloaded -> incr rejected
    | Error r -> Alcotest.failf "wrong reject: %s" (Serve.reject_to_string r)
  done;
  Alcotest.(check int) "queue bound accepted" 3 !accepted;
  Alcotest.(check int) "overflow rejected, never dropped" 2 !rejected;
  Alcotest.(check int) "rejections counted" 2 (counter_value srv "serve.solo.rejected");
  (match Serve.submit srv ~tenant:"ghost" q with
   | Error Serve.Unknown_tenant -> ()
   | _ -> Alcotest.fail "unknown tenant must be a typed rejection");
  (* the inflight cap of 1 trickles the queue out one query per round *)
  let served_per_round = ref [] in
  while Serve.queue_length srv "solo" > 0 do
    let done_ = Serve.run_round srv in
    served_per_round := List.length done_ :: !served_per_round
  done;
  Alcotest.(check (list int)) "one per round" [ 1; 1; 1 ]
    (List.rev !served_per_round)

let rate_limit_and_fairness () =
  let config =
    { Serve.default_config with
      Serve.queue_depth = 8; bucket_capacity = 2; refill_per_round = 1;
      max_inflight = 8 }
  in
  let srv = Serve.create ~config () in
  Serve.register srv ~id:"a" (build ~master:"a-m" ~patients:4);
  Serve.register srv ~id:"b" (build ~master:"b-m" ~patients:5);
  let q = List.hd queries in
  for _ = 1 to 6 do
    (match Serve.submit srv ~tenant:"a" q with Ok _ -> () | Error _ -> ());
    match Serve.submit srv ~tenant:"b" q with Ok _ -> () | Error _ -> ()
  done;
  (* burst of 2 each in round 1, then the sustained rate of 1/round;
     both tenants are served every round (round-robin, no starvation) *)
  let per_round = ref [] in
  for _ = 1 to 5 do
    let done_ = Serve.run_round srv in
    let count tenant =
      List.length (List.filter (fun c -> c.Serve.tenant = tenant) done_)
    in
    per_round := (count "a", count "b") :: !per_round
  done;
  Alcotest.(check (list (pair int int))) "bucket shape per tenant"
    [ (2, 2); (1, 1); (1, 1); (1, 1); (1, 1) ]
    (List.rev !per_round);
  Alcotest.(check int) "all drained" 0
    (Serve.queue_length srv "a" + Serve.queue_length srv "b")

(* --- The chaos isolation gate --------------------------------------- *)

let chaos_isolation_gate () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let config =
    { Serve.default_config with
      Serve.queue_depth = 16; bucket_capacity = 2; refill_per_round = 2;
      breaker_threshold = 2; breaker_cooldown = 2 }
  in
  let srv = Serve.create ~config ~pool () in
  (* Five tenants, each a fully independent hosting: own master secret,
     own document, own link, tracer and ledger. *)
  let healthy = [ "t-a", 4; "t-b", 5; "t-c", 6; "t-d", 7 ] in
  List.iter
    (fun (id, patients) ->
      let sys = build ~master:("master-" ^ id) ~patients in
      Obs.Ledger.set_enabled (System.ledger sys) true;
      Serve.register srv ~id sys)
    healthy;
  let sick_clean = build ~master:"master-sick" ~patients:5 in
  let sick_faulty =
    System.with_faults ~max_attempts:2
      ~profile:(Transport.chaos ~drop:1.0 ()) ~seed:3L sick_clean
  in
  Obs.Ledger.set_enabled (System.ledger sick_faulty) true;
  Serve.register srv ~id:"t-sick" sick_faulty;
  Alcotest.(check int) "five tenants registered" 5
    (List.length (Serve.tenants srv));
  (* Single-tenant references, built outside the tier. *)
  let refs =
    List.map
      (fun (id, patients) ->
        id, reference_answers (build ~master:("master-" ^ id) ~patients))
      healthy
  in
  let sick_ref = reference_answers (build ~master:"master-sick" ~patients:5) in
  (* Phase 1: faults target t-sick only. *)
  List.iter (fun (id, _) -> ignore (submit_all srv ~tenant:id)) healthy;
  ignore (submit_all srv ~tenant:"t-sick");
  let completions = Serve.drain srv () in
  (* Healthy tenants: every query answered, byte-identical to the
     single-tenant reference, over a clean link. *)
  List.iter
    (fun (id, _) ->
      let mine = List.filter (fun c -> c.Serve.tenant = id) completions in
      Alcotest.(check int) (id ^ " all served") (List.length queries)
        (List.length mine);
      let expected = List.assoc id refs in
      List.iter2
        (fun c exp ->
          match answers_cost_gen c with
          | Some (answers, cost, _) ->
            Alcotest.(check bool) (id ^ " byte-identical to reference") true
              (Helpers.norm_trees answers = exp);
            Alcotest.(check int) (id ^ " clean attempts") 1
              cost.System.attempts
          | None -> Alcotest.failf "%s lost a query to the sick tenant" id)
        mine expected)
    healthy;
  (* The sick tenant: the first [threshold] queries fail with Gave_up,
     the trip sheds the rest of its queue as typed completions. *)
  let sick = List.filter (fun c -> c.Serve.tenant = "t-sick") completions in
  Alcotest.(check int) "sick completions all accounted" (List.length queries)
    (List.length sick);
  let failed, shed =
    List.partition (fun c -> match c.Serve.outcome with
        | Serve.Failed _ -> true | _ -> false) sick
  in
  Alcotest.(check int) "threshold failures" 2 (List.length failed);
  List.iter
    (fun c ->
      match c.Serve.outcome with
      | Serve.Failed (Session.Gave_up _) -> ()
      | _ -> Alcotest.fail "sick failures must be Gave_up")
    failed;
  Alcotest.(check int) "queue shed on trip" 2 (List.length shed);
  List.iter
    (fun c ->
      Alcotest.(check bool) "shed is typed Breaker_open" true
        (c.Serve.outcome = Serve.Shed Serve.Breaker_open))
    shed;
  Alcotest.(check int) "breaker tripped once" 1
    (Breaker.trips (Serve.breaker srv "t-sick"));
  (* While open, submissions are rejected outright. *)
  (match Serve.submit srv ~tenant:"t-sick" (List.hd queries) with
   | Error Serve.Breaker_open -> ()
   | _ -> Alcotest.fail "open breaker must reject submissions");
  (* Zero cross-tenant ledger bleed: each tenant's ledger holds exactly
     its own served rounds; the sick tenant (which served nothing)
     holds none of the 16 healthy rounds. *)
  List.iter
    (fun (id, _) ->
      Alcotest.(check int) (id ^ " ledger = own rounds") (List.length queries)
        (Obs.Ledger.count (System.ledger (Serve.system srv id))))
    healthy;
  Alcotest.(check int) "sick ledger saw no foreign rounds" 0
    (Obs.Ledger.count (System.ledger (Serve.system srv "t-sick")));
  (* Phase 2: repair the link, let the breaker cool, recover via the
     probe — while healthy tenants keep serving. *)
  Serve.relink srv ~tenant:"t-sick" ();
  Alcotest.(check bool) "relink does not close the breaker" false
    (Breaker.admits (Serve.breaker srv "t-sick"));
  ignore (Serve.run_round srv);
  ignore (Serve.run_round srv);
  Alcotest.(check bool) "cooled to half-open" true
    (Breaker.probing (Serve.breaker srv "t-sick"));
  let probe_tickets = submit_all srv ~tenant:"t-sick" in
  List.iter (fun (id, _) -> ignore (submit_all srv ~tenant:id)) healthy;
  let recovery = Serve.drain srv () in
  (* Exactly one probe went out first; its success closed the breaker
     and the rest of the queue followed. *)
  Alcotest.(check int) "one probe admitted" 1
    (Breaker.probes (Serve.breaker srv "t-sick"));
  Alcotest.(check bool) "breaker closed by the probe" true
    (Breaker.state (Serve.breaker srv "t-sick") = Breaker.Closed 0);
  let sick_rec =
    List.filter (fun c -> c.Serve.tenant = "t-sick") recovery
  in
  Alcotest.(check int) "every sick query answered after recovery"
    (List.length probe_tickets) (List.length sick_rec);
  List.iter2
    (fun c exp ->
      match answers_cost_gen c with
      | Some (answers, _, _) ->
        Alcotest.(check bool) "recovered answers byte-identical" true
          (Helpers.norm_trees answers = exp)
      | None -> Alcotest.fail "recovered tenant must answer")
    sick_rec sick_ref;
  List.iter
    (fun (id, _) ->
      let mine = List.filter (fun c -> c.Serve.tenant = id) recovery in
      Alcotest.(check int) (id ^ " kept serving through recovery")
        (List.length queries) (List.length mine))
    healthy;
  (* Per-tenant metrics carve cleanly out of the shared registry. *)
  Alcotest.(check int) "sick served counter" (List.length probe_tickets)
    (counter_value srv "serve.t-sick.served");
  Alcotest.(check int) "sick failed counter" 2
    (counter_value srv "serve.t-sick.failed");
  Alcotest.(check int) "sick shed counter" 2
    (counter_value srv "serve.t-sick.shed");
  Alcotest.(check int) "t-a is unpolluted: no failures" 0
    (counter_value srv "serve.t-a.failed");
  Alcotest.(check bool) "tenant view has its own counters only" true
    (List.for_all
       (fun (name, _) ->
         String.length name > 10 && String.sub name 0 10 = "serve.t-a.")
       (Obs.Metric.snapshot_prefix (Serve.registry srv) "serve.t-a."))

(* --- Determinism ---------------------------------------------------- *)

let trajectory_is_deterministic () =
  (* Same seeds, same submission order: the whole trip/shed/answer
     trajectory replays exactly, with or without a pool. *)
  let run pool =
    let config =
      { Serve.default_config with
        Serve.max_inflight = 4; breaker_threshold = 2; breaker_cooldown = 1 }
    in
    let srv = Serve.create ~config ?pool () in
    Serve.register srv ~id:"h" (build ~master:"h-m" ~patients:4);
    let sick =
      System.with_faults ~max_attempts:2
        ~profile:(Transport.chaos ~drop:1.0 ()) ~seed:9L
        (build ~master:"s-m" ~patients:5)
    in
    Serve.register srv ~id:"s" sick;
    ignore (submit_all srv ~tenant:"h");
    ignore (submit_all srv ~tenant:"s");
    List.map
      (fun c ->
        ( c.Serve.ticket, c.Serve.tenant,
          match answers_cost_gen c with
          | Some (answers, _, _) ->
            "ok:" ^ String.concat "," (Helpers.norm_trees answers)
          | None -> (
            match c.Serve.outcome with
            | Serve.Failed e -> "fail:" ^ Session.error_to_string e
            | Serve.Shed r -> "shed:" ^ Serve.reject_to_string r
            | Serve.Answered _ -> assert false) ))
      (Serve.drain srv ())
  in
  let sequential = run None in
  let pool = Pool.create ~domains:4 () in
  let pooled =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
        run (Some pool))
  in
  Alcotest.(check bool) "pooled trajectory = sequential trajectory" true
    (sequential = pooled);
  Alcotest.(check bool) "trajectory replays" true (sequential = run None)

(* --- Online rehost under the generation fence ------------------------ *)

let rehost_swaps_generation_online () =
  let srv = Serve.create () in
  Serve.register srv ~id:"alpha" ~route:`Engine
    (build ~master:"alpha-m" ~patients:4);
  Serve.register srv ~id:"beta" (build ~master:"beta-m" ~patients:5);
  let q = List.hd queries in
  let ask tenant =
    match Serve.submit srv ~tenant q with
    | Error r -> Alcotest.failf "submit: %s" (Serve.reject_to_string r)
    | Ok _ -> (
      match
        List.filter (fun c -> c.Serve.tenant = tenant) (Serve.drain srv ())
      with
      | [ c ] -> (
        match answers_cost_gen c with
        | Some (answers, _, generation) -> answers, generation
        | None -> Alcotest.fail "expected an answer")
      | _ -> Alcotest.fail "expected exactly one completion")
  in
  let a1, g1 = ask "alpha" in
  let _, g2 = ask "alpha" in   (* warms the engine caches *)
  Alcotest.(check int) "stable generation before rehost" g1 g2;
  let beta_gen = Serve.generation srv "beta" in
  let engine_stats () =
    match Serve.engine srv "alpha" with
    | Some e -> Engine.stats e
    | None -> Alcotest.fail "alpha is on the engine route"
  in
  Alcotest.(check bool) "second ask hit the result cache" true
    ((engine_stats ()).Engine.Stats.result_hits > 0);
  let _cost = Serve.rehost srv ~tenant:"alpha" ~new_master:"alpha-m2" in
  Alcotest.(check bool) "generation fence advanced" true
    (Serve.generation srv "alpha" > g1);
  Alcotest.(check bool) "rehost flushed the caches" true
    ((engine_stats ()).Engine.Stats.invalidations >= 1);
  let a3, g3 = ask "alpha" in
  Alcotest.(check int) "answers carry the new generation"
    (Serve.generation srv "alpha") g3;
  Alcotest.(check bool) "re-encrypted hosting answers identically" true
    (Helpers.norm_trees a3 = Helpers.norm_trees a1);
  (* the other tenant never noticed *)
  Alcotest.(check int) "beta untouched" beta_gen (Serve.generation srv "beta");
  let _, bg = ask "beta" in
  Alcotest.(check int) "beta still serving on its generation" beta_gen bg

let () =
  Alcotest.run "serve"
    [ ( "machines",
        [ Alcotest.test_case "limiter bucket shape" `Quick limiter_bucket_shape;
          Alcotest.test_case "breaker lifecycle" `Quick breaker_lifecycle ] );
      ( "admission",
        [ Alcotest.test_case "overload typed rejection" `Quick
            overload_is_a_typed_rejection;
          Alcotest.test_case "rate limit and fairness" `Quick
            rate_limit_and_fairness ] );
      ( "chaos",
        [ Alcotest.test_case "isolation gate" `Quick chaos_isolation_gate;
          Alcotest.test_case "deterministic trajectory" `Quick
            trajectory_is_deterministic ] );
      ( "rehost",
        [ Alcotest.test_case "online generation fence" `Quick
            rehost_swaps_generation_online ] ) ]
