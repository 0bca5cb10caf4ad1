(* Chaos suite: the full protocol under injected transport faults.

   Acceptance property: for every fault profile in the sweep, every
   query either completes with byte-exact answers (same as the
   fault-free run) or fails with a typed [Gave_up] — never a crash,
   never a wrong answer.  [System.evaluate] additionally never fails:
   it degrades to the naive fallback and stays exact. *)

module System = Secure.System
module Session = Secure.Session
module Transport = Secure.Transport

let rates = [ 0.0; 0.05; 0.20 ]

let build () =
  let doc = Workload.Health.generate ~patients:20 () in
  let scs = Workload.Health.constraints () in
  fst (System.setup ~master:"chaos-master" doc scs Secure.Scheme.Opt)

(* >= 50 distinct seeded queries across the four Section 7.1 families. *)
let query_set sys =
  let doc = System.doc sys in
  let all =
    List.concat_map
      (fun family ->
        Workload.Querygen.generate ~seed:4242L doc family ~count:40)
      Workload.Querygen.all_families
  in
  let seen = Hashtbl.create 64 in
  let queries =
    List.filter
      (fun q ->
        let key = Xpath.Ast.to_string q in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      all
  in
  Alcotest.(check bool)
    (Printf.sprintf "workload offers >= 50 queries (got %d)" (List.length queries))
    true
    (List.length queries >= 50);
  queries

let profile ~drop ~corrupt ~duplicate =
  Transport.chaos ~drop ~flip:corrupt ~truncate:corrupt ~duplicate ()

let seed_of i j k = Int64.of_int (((i * 3) + j) * 3 + k + 1)

let sweep_exact_or_gave_up () =
  let sys = build () in
  let queries = query_set sys in
  let baseline =
    List.map (fun q -> Helpers.norm_trees (fst (System.evaluate sys q))) queries
  in
  let gave_up = ref 0 and succeeded = ref 0 in
  List.iteri
    (fun i drop ->
      List.iteri
        (fun j corrupt ->
          List.iteri
            (fun k duplicate ->
              let faulty =
                System.with_faults
                  ~profile:(profile ~drop ~corrupt ~duplicate)
                  ~seed:(seed_of i j k) sys
              in
              List.iter2
                (fun q expected ->
                  match System.try_evaluate faulty q with
                  | Ok (answers, cost) ->
                    incr succeeded;
                    Alcotest.(check bool)
                      (Printf.sprintf "exact under drop=%.2f corrupt=%.2f dup=%.2f: %s"
                         drop corrupt duplicate (Xpath.Ast.to_string q))
                      true
                      (Helpers.norm_trees answers = expected);
                    Alcotest.(check bool) "attempts >= 1" true
                      (cost.System.attempts >= 1);
                    Alcotest.(check bool) "strict path never degrades" false
                      cost.System.degraded
                  | Error (Session.Gave_up _) -> incr gave_up
                  | Error e ->
                    Alcotest.failf "non-terminal error escaped: %s"
                      (Session.error_to_string e))
                queries baseline)
            rates)
        rates)
    rates;
  (* The calm corner of the sweep alone guarantees successes; at these
     rates with 4 attempts the vast majority must go through. *)
  Alcotest.(check bool) "most calls succeed" true (!succeeded > 10 * !gave_up)

let clean_profile_has_no_overhead () =
  let sys = build () in
  let faulty =
    System.with_faults ~profile:(profile ~drop:0.0 ~corrupt:0.0 ~duplicate:0.0)
      ~seed:7L sys
  in
  let q = Xpath.Parser.parse "//patient[age>=50]/pname" in
  match System.try_evaluate faulty q with
  | Error e -> Alcotest.failf "calm link failed: %s" (Session.error_to_string e)
  | Ok (_, cost) ->
    Alcotest.(check int) "one attempt" 1 cost.System.attempts;
    Alcotest.(check int) "no retransmits" 0 cost.System.retransmitted_bytes;
    Alcotest.(check int) "no faults" 0 cost.System.faults_absorbed

let evaluate_is_total_and_exact () =
  (* A near-dead link with a tight retry budget: [evaluate] must still
     answer every query exactly, flagging degradation in the cost. *)
  let sys = build () in
  let queries = query_set sys in
  let session = { Session.default_config with Session.max_attempts = 2 } in
  let faulty =
    System.with_faults ~session
      ~profile:(Transport.chaos ~drop:0.9 ~flip:0.4 ())
      ~seed:13L sys
  in
  let degraded = ref 0 in
  List.iter
    (fun q ->
      let expected = Helpers.norm_trees (fst (System.evaluate sys q)) in
      let answers, cost = System.evaluate faulty q in
      if cost.System.degraded then incr degraded;
      Alcotest.(check bool)
        ("total evaluation stays exact: " ^ Xpath.Ast.to_string q)
        true
        (Helpers.norm_trees answers = expected))
    queries;
  Alcotest.(check bool) "degradation exercised" true (!degraded > 0)

let union_and_session_stats () =
  let sys = build () in
  let faulty =
    System.with_faults ~profile:(profile ~drop:0.20 ~corrupt:0.05 ~duplicate:0.20)
      ~seed:21L sys
  in
  let union =
    Xpath.Parser.parse_union "//patient/pname | //treat/doctor"
  in
  let expected = Helpers.norm_trees (fst (System.evaluate_union sys union)) in
  (* Strict union either matches or gives up... *)
  (match System.try_evaluate_union faulty union with
   | Ok (answers, _) ->
     Alcotest.(check bool) "strict union exact" true
       (Helpers.norm_trees answers = expected)
   | Error (Session.Gave_up _) -> ()
   | Error e ->
     Alcotest.failf "unexpected union error %s" (Session.error_to_string e));
  (* ...total union always matches. *)
  let answers, _ = System.evaluate_union faulty union in
  Alcotest.(check bool) "total union exact" true
    (Helpers.norm_trees answers = expected);
  (* Retries showed up in the layered statistics. *)
  let s = System.session_stats faulty in
  Alcotest.(check bool) "session saw the calls" true (s.Session.calls > 0);
  let t = System.transport_stats faulty in
  Alcotest.(check bool) "transport counted exchanges" true
    (t.Transport.exchanges >= s.Session.attempts);
  let e = System.endpoint_stats faulty in
  Alcotest.(check bool) "endpoint served or replayed" true
    (e.Session.served + e.Session.replayed > 0)

let replay_linkability_audited () =
  (* Duplicates reach the endpoint as replay-cache hits; the leakage
     ledger records them on the rounds they belong to, which is what
     quantifies the retransmit-linkability channel. *)
  let sys = build () in
  let faulty =
    System.with_faults ~profile:(profile ~drop:0.3 ~corrupt:0.0 ~duplicate:0.5)
      ~seed:3L sys
  in
  let ledger = System.ledger faulty in
  Obs.Ledger.set_enabled ledger true;
  let before = (System.endpoint_stats faulty).Session.replayed in
  let q = Xpath.Parser.parse "//patient/pname" in
  for _ = 1 to 20 do
    ignore (System.evaluate faulty q)
  done;
  let replayed = (System.endpoint_stats faulty).Session.replayed - before in
  let ledger_replays =
    List.fold_left (fun acc r -> acc + r.Obs.Ledger.replays) 0 (Obs.Ledger.rounds ledger)
  in
  Alcotest.(check int) "ledger rounds carry every replay" replayed ledger_replays;
  Alcotest.(check bool) "schedule produced replays" true (replayed > 0)

let () =
  Alcotest.run "chaos"
    [ ( "sweep",
        [ Alcotest.test_case "exact or Gave_up" `Quick sweep_exact_or_gave_up;
          Alcotest.test_case "calm corner clean" `Quick clean_profile_has_no_overhead ] );
      ( "degradation",
        [ Alcotest.test_case "evaluate total and exact" `Quick evaluate_is_total_and_exact;
          Alcotest.test_case "union + stats" `Quick union_and_session_stats;
          Alcotest.test_case "replay audit" `Quick replay_linkability_audited ] ) ]
