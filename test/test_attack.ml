(* Adversary-simulator tests: the leakage ledger's rounds as the
   adversary's trace, the inference passes' candidate-set semantics (a
   known-plaintext fixture where frequency analysis pins a unique
   candidate and the budget gate fires; a padded rerun where it must
   not), the pinned rendering of every finding, the fail-closed budget
   parser/scorer, mitigation determinism, the differential pin that
   mitigated answers are byte-identical to the unmitigated path across
   schemes, and the paper's attacks on the stored data. *)

module System = Secure.System
module Scheme = Secure.Scheme
module Static = Attack.Static
module Passes = Attack.Passes
module Budget = Attack.Budget
module Mitigate = Attack.Mitigate

let health ?(patients = 5) () =
  ( Workload.Health.generate ~seed:1L ~patients (),
    Workload.Health.constraints () )

let workload =
  [ "//patient/pname"; "//patient[age>=50]/pname"; "//treat/doctor"; "//SSN" ]
  |> List.map Xpath.Parser.parse
  |> Array.of_list

let hosted ?patients scheme =
  let doc, scs = health ?patients () in
  let sys, _ = System.setup ~master:"test-attack" doc scs scheme in
  Obs.Ledger.set_enabled (System.ledger sys) true;
  sys

(* The same declaration as the checked-in attack.budget (tests run in
   the dune sandbox, away from the repo root; `make attack-gate`
   exercises the actual file end to end). *)
let gate_budget () =
  match
    Budget.parse
      "frequency 2\nsize 2\ncooccurrence 2\nlinkability 1\nmitigations pad\n"
  with
  | Ok b -> b
  | Error msg -> Alcotest.fail ("gate budget must parse: " ^ msg)

(* --- The ledger's rounds as the adversary's trace ------------------ *)

(* The timing-rank hop of a size finding's witness. *)
let timing_rank (f : Passes.finding) =
  List.find_map
    (fun hop -> Scanf.sscanf_opt hop "timing rank %d/%d" (fun r n -> r, n))
    f.Passes.witness

let trace_from_ledger () =
  let sys = hosted Scheme.Opt in
  Array.iter (fun q -> ignore (System.evaluate sys q)) workload;
  let rounds = Obs.Ledger.rounds (System.ledger sys) in
  Alcotest.(check int) "one round per query" (Array.length workload)
    (List.length rounds);
  Alcotest.(check bool) "blocks observed" true
    (List.exists (fun (r : Obs.Ledger.round) -> r.Obs.Ledger.block_ids <> []) rounds);
  (* Timing ranks are a permutation of 1..n ordered by bytes_down. *)
  let ranked =
    List.map2
      (fun (r : Obs.Ledger.round) f ->
        match timing_rank f with
        | Some (rank, total) ->
          Alcotest.(check int) "ranked among every round" (List.length rounds) total;
          r, rank
        | None -> Alcotest.fail "size witness lacks a timing rank")
      rounds (Passes.size rounds)
  in
  Alcotest.(check (list int)) "ranks are a permutation of 1..n"
    (List.init (List.length rounds) (fun i -> i + 1))
    (List.sort compare (List.map snd ranked));
  List.iter
    (fun ((a : Obs.Ledger.round), ra) ->
      List.iter
        (fun ((b : Obs.Ledger.round), rb) ->
          if ra < rb then
            Alcotest.(check bool) "rank order follows bytes_down" true
              (a.Obs.Ledger.bytes_down >= b.Obs.Ledger.bytes_down))
        ranked)
    ranked

(* --- Known-plaintext fixture: frequency analysis pins a block ------- *)

(* Hand-built rounds: block 7 is shipped by two rounds, blocks 1 and 2
   by one round each (and always together, so co-occurrence cannot
   split them).  Block 7's fetch count is unique — the frequency class
   collapses to 1 and the budget gate must fire. *)
let pinned_rounds () =
  [ Obs.Ledger.round ~bytes_up:40 ~bytes_down:300 ~blocks_returned:3
      ~block_ids:[ 7; 1; 2 ] "evaluate";
    Obs.Ledger.round ~bytes_up:40 ~bytes_down:100 ~blocks_returned:1
      ~block_ids:[ 7 ] "evaluate" ]

let frequency_pins_unique_candidate () =
  let rounds = pinned_rounds () in
  let pinned =
    List.filter
      (fun (f : Passes.finding) ->
        f.Passes.pass = "frequency" && f.Passes.candidates = 1)
      (Passes.frequency rounds)
  in
  (match pinned with
   | [ f ] ->
     Alcotest.(check string) "block 7 is the pinned subject" "block 7"
       f.Passes.subject;
     Alcotest.(check bool) "witness cites the sightings" true
       (List.exists
          (fun hop ->
            (* cited hop-by-hop, lint-finding style *)
            String.length hop >= 7 && String.sub hop 0 7 = "block 7")
          f.Passes.witness);
     Alcotest.(check bool) "witness shows the class collapse" true
       (List.exists
          (fun hop ->
            List.exists
              (fun needle ->
                let nl = String.length needle and hl = String.length hop in
                let rec scan i =
                  i + nl <= hl
                  && (String.sub hop i nl = needle || scan (i + 1))
                in
                scan 0)
              [ "candidate set 1" ])
          f.Passes.witness)
   | fs ->
     Alcotest.fail
       (Printf.sprintf "expected exactly one pinned block, got %d"
          (List.length fs)));
  (* ... and the budget gate fires on it, with the witness attached. *)
  match Budget.check (gate_budget ()) rounds with
  | Error msg -> Alcotest.fail ("scoring must succeed: " ^ msg)
  | Ok sc ->
    Alcotest.(check bool) "under-budget trace is caught" true
      (sc.Budget.violations <> []);
    List.iter
      (fun (v : Budget.violation) ->
        Alcotest.(check bool) "violation carries evidence" true
          (v.Budget.finding.Passes.witness <> []);
        Alcotest.(check bool) "violation is below its declared minimum" true
          (v.Budget.required = -1
           || v.Budget.finding.Passes.candidates < v.Budget.required))
      sc.Budget.violations

let census_names_the_tag () =
  let rounds = pinned_rounds () in
  (* Known plaintext: the tag universe and expected occurrence counts.
     Only "SSN" occurs twice, so block 7 resolves to it by name. *)
  let census = [ "SSN", 2; "pname", 1; "doctor", 1 ] in
  let pinned =
    List.filter
      (fun (f : Passes.finding) -> f.Passes.subject = "block 7")
      (Passes.frequency ~census rounds)
  in
  match pinned with
  | [ f ] ->
    Alcotest.(check int) "census pins to one tag" 1 f.Passes.candidates;
    Alcotest.(check bool) "witness names the tag" true
      (List.exists
         (fun hop ->
           let nl = 3 and hl = String.length hop in
           let rec scan i =
             i + nl <= hl && (String.sub hop i nl = "SSN" || scan (i + 1))
           in
           scan 0)
         f.Passes.witness)
  | fs ->
    Alcotest.fail
      (Printf.sprintf "expected one finding for block 7, got %d"
         (List.length fs))

(* --- Pinned adversary output ------------------------------------- *)

(* Every finding of [Passes.run_all] and every violation of
   [Budget.check] under the gate budget, rendered one per line: the
   text the adversary prints, which the hashes below pin byte for
   byte. *)
let rendered rounds =
  let findings = List.map Passes.render (Passes.run_all rounds) in
  let violations =
    match Budget.check (gate_budget ()) rounds with
    | Ok sc -> List.map Budget.render_violation sc.Budget.violations
    | Error msg -> [ "error: " ^ msg ]
  in
  String.concat "\n" (findings @ violations)

let health_rounds config =
  let sys = hosted Scheme.Opt in
  let mit = Mitigate.create ~seed:7L config in
  for _ = 1 to 2 do
    ignore (Mitigate.evaluate_batch mit sys workload)
  done;
  Obs.Ledger.rounds (System.ledger sys)

let adversary_output_pinned () =
  (* A cover fetch larger than any query round: the passes skip it, but
     it still takes timing rank 1 of 3. *)
  let with_fetch =
    pinned_rounds ()
    @ [ Obs.Ledger.round ~bytes_up:24 ~bytes_down:500 ~blocks_returned:2
          ~block_ids:[ 3; 7 ] "fetch" ]
  in
  List.iter
    (fun (name, rounds, expected) ->
      Alcotest.(check string) name expected (Crypto.Sha256.hex (rendered rounds)))
    [ "pinned rounds plus a fetch", with_fetch,
      "0035db16cab0892e5e6dd339d844b183c5e4c7256939f53e681dfc060cd942e9";
      "health, unmitigated", health_rounds Mitigate.off,
      "12edded206383cb66db9ec18b3f5212ad5b78ba0a15f1e8965e62e30a939a930";
      "health, gate mitigations",
      health_rounds (Mitigate.of_budget (gate_budget ())),
      "691c2d81cba134a100c350e6a507d3f97c9793d5e31b9c50f7587d3e81a45c2e" ]

(* --- Mitigations: the padded rerun must pass the gate --------------- *)

let padded_rerun_meets_budget () =
  let budget = gate_budget () in
  (* Unmitigated: the live workload pins blocks (the gate catches it). *)
  let sys = hosted Scheme.Opt in
  let off = Mitigate.create ~seed:7L Mitigate.off in
  ignore (Mitigate.evaluate_batch off sys workload);
  ignore (Mitigate.evaluate_batch off sys workload);
  (match Budget.check budget (Obs.Ledger.rounds (System.ledger sys)) with
   | Error msg -> Alcotest.fail ("unmitigated scoring must succeed: " ^ msg)
   | Ok sc ->
     Alcotest.(check bool) "unmitigated run violates the budget" true
       (sc.Budget.violations <> []));
  (* Padded rerun of the same workload: every class must clear it. *)
  let sys = hosted Scheme.Opt in
  let pad =
    Mitigate.create ~seed:7L { Mitigate.pad = true; dummies = 0; shuffle = false }
  in
  ignore (Mitigate.evaluate_batch pad sys workload);
  ignore (Mitigate.evaluate_batch pad sys workload);
  match Budget.check budget (Obs.Ledger.rounds (System.ledger sys)) with
  | Error msg -> Alcotest.fail ("padded scoring must succeed: " ^ msg)
  | Ok sc ->
    Alcotest.(check (list string)) "padded rerun has no violations" []
      (List.map
         (fun (v : Budget.violation) -> Budget.render_violation v)
         sc.Budget.violations)

(* --- Differential: mitigated answers are byte-identical ------------- *)

let render answers = List.map Xmlcore.Printer.tree_to_string answers

let mitigations_preserve_answers () =
  List.iter
    (fun scheme ->
      let baseline =
        let sys = hosted ~patients:4 scheme in
        Array.map (fun q -> render (fst (System.evaluate sys q))) workload
      in
      List.iter
        (fun config ->
          let sys = hosted ~patients:4 scheme in
          let mit = Mitigate.create ~seed:5L config in
          let got =
            Array.map (fun (ans, _) -> render ans)
              (Mitigate.evaluate_batch mit sys workload)
          in
          Array.iteri
            (fun i expected ->
              Alcotest.(check (list string)) "mitigated answer is byte-identical"
                expected got.(i))
            baseline)
        [ Mitigate.off;
          { Mitigate.pad = true; dummies = 0; shuffle = false };
          { Mitigate.pad = false; dummies = 3; shuffle = false };
          { Mitigate.pad = false; dummies = 0; shuffle = true };
          { Mitigate.pad = true; dummies = 3; shuffle = true } ])
    [ Scheme.Opt; Scheme.App; Scheme.Sub; Scheme.Top ]

(* --- Mitigation determinism ----------------------------------------- *)

let equal_seeds_equal_traces () =
  let run () =
    let sys = hosted Scheme.Opt in
    let mit =
      Mitigate.create ~seed:11L
        { Mitigate.pad = true; dummies = 4; shuffle = true }
    in
    ignore (Mitigate.evaluate_batch mit sys workload);
    ignore (Mitigate.evaluate_batch mit sys workload);
    Obs.Ledger.to_json (System.ledger sys)
  in
  Alcotest.(check bool) "same seed, bit-identical wire trace" true
    (Obs.Json.equal (run ()) (run ()))

(* --- Budget declaration parsing (fail closed) ----------------------- *)

let budget_parse_accepts_the_format () =
  match
    Budget.parse
      "# comment\nfrequency 2\nsize 3\n\ncooccurrence 2\nlinkability 1\n\
       mitigations pad shuffle\n"
  with
  | Error msg -> Alcotest.fail msg
  | Ok b ->
    Alcotest.(check (list string)) "minimums in canonical class order"
      Budget.classes (List.map fst b.Budget.minimums);
    Alcotest.(check int) "size minimum" 3
      (List.assoc "size" b.Budget.minimums);
    Alcotest.(check (list string)) "mitigations" [ "pad"; "shuffle" ]
      b.Budget.mitigations

let budget_parse_fails_closed () =
  let rejects label s =
    match Budget.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": must be rejected")
  in
  rejects "missing class" "frequency 2\nsize 2\ncooccurrence 2\n";
  rejects "duplicate class"
    "frequency 2\nfrequency 3\nsize 2\ncooccurrence 2\nlinkability 1\n";
  rejects "zero minimum"
    "frequency 0\nsize 2\ncooccurrence 2\nlinkability 1\n";
  rejects "non-integer minimum"
    "frequency two\nsize 2\ncooccurrence 2\nlinkability 1\n";
  rejects "unknown class"
    "frequency 2\nsize 2\ncooccurrence 2\nlinkability 1\nentropy 4\n";
  rejects "unknown mitigation"
    "frequency 2\nsize 2\ncooccurrence 2\nlinkability 1\nmitigations onions\n";
  rejects "duplicate mitigations line"
    "frequency 2\nsize 2\ncooccurrence 2\nlinkability 1\n\
     mitigations pad\nmitigations shuffle\n";
  rejects "empty declaration" ""

let budget_fails_closed_on_scoring () =
  let budget = gate_budget () in
  (* An empty trace certifies nothing. *)
  (match Budget.check budget [] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty trace must fail closed");
  (* A finding of an undeclared class is a violation by definition. *)
  let sc =
    Budget.score budget
      [ { Passes.pass = "entropy"; subject = "block 1"; candidates = 99;
          witness = [ "synthetic" ] } ]
  in
  match sc.Budget.violations with
  | [ v ] ->
    Alcotest.(check int) "undeclared class is marked required = -1" (-1)
      v.Budget.required
  | vs ->
    Alcotest.fail
      (Printf.sprintf "expected one violation, got %d" (List.length vs))

(* --- Serving-tier audit --------------------------------------------- *)

let serve_audit_fails_closed () =
  let srv = Serve.create () in
  (* t1: budgeted, ledger on, unmitigated traffic — must be caught.
     t2: no budget — skipped.  t3: budgeted but its ledger was never
     enabled — the audit fails closed on the empty trace. *)
  Serve.register srv ~id:"t1" ~budget:(gate_budget ()) (hosted Scheme.Opt);
  Serve.register srv ~id:"t2" (hosted Scheme.Opt);
  let doc, scs = health () in
  let quiet, _ = System.setup ~master:"t3" doc scs Scheme.Opt in
  Serve.register srv ~id:"t3" ~budget:(gate_budget ()) quiet;
  Array.iter
    (fun q ->
      match Serve.submit srv ~tenant:"t1" q with
      | Ok _ -> ()
      | Error r -> Alcotest.fail (Serve.reject_to_string r))
    workload;
  ignore (Serve.drain srv ());
  let audits = Serve.audit srv in
  Alcotest.(check (list string)) "only budgeted tenants are scored"
    [ "t1"; "t3" ]
    (List.sort compare (List.map fst audits));
  (match List.assoc "t1" audits with
   | Ok sc ->
     Alcotest.(check bool) "unmitigated tenant violates its budget" true
       (sc.Budget.violations <> [])
   | Error msg -> Alcotest.fail ("t1 must score: " ^ msg));
  match List.assoc "t3" audits with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty ledger must fail the audit closed"

(* --- Ledger JSON round trip (the offline replay contract) ----------- *)

let ledger_json_round_trips () =
  let sys = hosted Scheme.Opt in
  Array.iter (fun q -> ignore (System.evaluate sys q)) workload;
  let j = Obs.Ledger.to_json (System.ledger sys) in
  (match Obs.Ledger.of_json j with
   | Error msg -> Alcotest.fail ("of_json must accept to_json output: " ^ msg)
   | Ok ledger ->
     Alcotest.(check bool) "to_json (of_json j) = j" true
       (Obs.Json.equal (Obs.Ledger.to_json ledger) j);
     (* The replayed trace yields exactly the recorded findings. *)
     let findings l = List.map Passes.render (Passes.run_all (Obs.Ledger.rounds l)) in
     Alcotest.(check (list string)) "same findings"
       (findings (System.ledger sys)) (findings ledger));
  match Obs.Ledger.of_json (Obs.Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_json must reject non-ledger JSON"

(* --- Attacks on the stored data --------------------------------- *)

let frequency_attack_breaks_naive () =
  let known = [ "flu", 5; "cold", 9; "rare", 1; "odd", 3 ] in
  let observed = Static.deterministic_leaf_histogram known in
  let result = Static.frequency_attack ~known ~observed in
  (* All four frequencies are unique: full crack. *)
  Alcotest.(check int) "all cracked" 4 (List.length result.Static.cracked);
  Alcotest.(check (float 1e-9)) "rate" 1.0 result.Static.crack_rate

let frequency_attack_fails_on_opess () =
  let known = [ "flu", 15; "cold", 9; "rare", 21; "odd", 3 ] in
  let cat = Secure.Opess.build ~key:"fa" ~attr_id:1 ~tag:"t" known in
  let observed = Secure.Opess.scaled_histogram cat in
  let result = Static.frequency_attack ~known ~observed in
  Alcotest.(check int) "nothing cracked" 0 (List.length result.Static.cracked)

let coalescing_attack_cases () =
  (* Hand-checkable: plaintext frequencies (5, 7) in order; split-only
     ciphertext counts (2,3, 3,4) admit exactly the one partition
     [2+3 | 3+4]. *)
  let known = [ "a", 5; "b", 7 ] in
  let split_only = [ 1L, 2; 2L, 3; 3L, 3; 4L, 4 ] in
  let r = Static.coalescing_attack ~known ~observed:split_only in
  Alcotest.(check bool) "unique partition cracks" true r.Static.unique;
  (* With positive counts and fixed order, matching sums force a unique
     partition — the dangerous case.  After scaling the sums no longer
     match any partition. *)
  let scaled = [ 1L, 4; 2L, 6; 3L, 9; 4L, 12 ] in
  let r = Static.coalescing_attack ~known ~observed:scaled in
  Alcotest.(check int) "scaling kills all partitions" 0 r.Static.valid_partitions;
  (* End-to-end via OPESS. *)
  let hist = [ "10", 14; "20", 9; "30", 23; "40", 11 ] in
  let cat = Secure.Opess.build ~key:"coal" ~attr_id:0 ~tag:"t" hist in
  let known_ordered =
    List.map (fun e -> e.Secure.Opess.value, e.Secure.Opess.count)
      (Secure.Opess.entries cat)
  in
  let split = Static.coalescing_attack ~known:known_ordered
      ~observed:(Secure.Opess.ciphertext_histogram cat) in
  Alcotest.(check bool) "split-only crackable" true split.Static.unique;
  let full = Static.coalescing_attack ~known:known_ordered
      ~observed:(Secure.Opess.scaled_histogram cat) in
  Alcotest.(check bool) "split+scale safe" false full.Static.unique

(* The key range spanning an attribute's chunks, which a MIN/MAX
   aggregate scans: the server sees the domain's ciphertext envelope,
   never its plaintext bounds. *)
let opess_full_range () =
  let hist = [ "10", 14; "20", 9; "30", 23 ] in
  let cat = Secure.Opess.build ~key:"fr" ~attr_id:5 ~tag:"t" hist in
  (match Secure.Opess.full_range cat with
   | None -> Alcotest.fail "expected a range"
   | Some (lo, hi) ->
     Alcotest.(check bool) "ordered" true (lo < hi);
     (* Every chunk cipher falls inside. *)
     List.iter
       (fun (c, _) -> Alcotest.(check bool) "covered" true (c >= lo && c <= hi))
       (Secure.Opess.ciphertext_histogram cat));
  let empty = Secure.Opess.build ~key:"fr" ~attr_id:5 ~tag:"t" [] in
  Alcotest.(check bool) "empty catalog" true (Secure.Opess.full_range empty = None)

let tag_distribution_attack_cases () =
  (* The paper's acknowledged limitation (Section 8): an attacker with
     tag-census knowledge can match unique per-tag counts against table
     token counts. *)
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let keys = Crypto.Keys.create ~master:"tagatk" () in
  let db = Secure.Encrypt.encrypt ~keys doc (Secure.Scheme.build doc scs Secure.Scheme.Opt) in
  let meta = Secure.Metadata.build ~keys db in
  let known_census = Xmlcore.Stats.tag_census doc in
  let observed =
    List.map (fun (token, ivs) -> token, List.length ivs) meta.Secure.Metadata.dsi_table
  in
  let r = Static.frequency_attack ~known:known_census ~observed in
  (* Some tags are re-identifiable — the attack "works" as the paper
     warns — though grouping erodes it (grouped tokens have fewer
     intervals than nodes). *)
  Alcotest.(check bool) "attack is a real threat" true
    (r.Static.crack_rate > 0.0);
  (* Sanity on the arithmetic: a census with all-unique counts against
     an identical observation identifies everything. *)
  let census = [ "a", 3; "b", 5; "c", 9 ] in
  let full =
    Static.frequency_attack ~known:census ~observed:census
  in
  Alcotest.(check (float 1e-9)) "full identification" 1.0
    full.Static.crack_rate;
  (* Duplicate counts block identification. *)
  let census = [ "a", 3; "b", 3 ] in
  let none =
    Static.frequency_attack ~known:census ~observed:census
  in
  Alcotest.(check int) "ambiguous counts identify nothing" 0
    (List.length none.Static.cracked)

let size_attack_cases () =
  let r = Static.size_attack ~candidate_sizes:[ 100; 100; 90; 100 ] ~target_size:100 in
  Alcotest.(check int) "survivors" 3 r.Static.survivors;
  Alcotest.(check int) "candidates" 4 r.Static.candidates

let belief_sequence_monotone () =
  let beliefs = Static.belief_sequence ~k:5 ~n:15 ~queries:10 in
  (match beliefs with
   | prior :: after_first :: rest ->
     Alcotest.(check (float 1e-9)) "prior 1/k" 0.2 prior;
     Alcotest.(check (float 1e-6)) "posterior 1/C(14,4)" (1.0 /. 1001.0) after_first;
     (* Theorem 6.1: never increases. *)
     List.iter (fun b -> Alcotest.(check (float 1e-12)) "stable" after_first b) rest
   | _ -> Alcotest.fail "sequence too short")

let () =
  Alcotest.run "attack"
    [ ( "trace",
        [ Alcotest.test_case "built from the ledger" `Quick trace_from_ledger;
          Alcotest.test_case "ledger JSON round-trips" `Quick
            ledger_json_round_trips ] );
      ( "passes",
        [ Alcotest.test_case "frequency pins a unique candidate" `Quick
            frequency_pins_unique_candidate;
          Alcotest.test_case "census names the tag" `Quick
            census_names_the_tag;
          Alcotest.test_case "adversary output pinned" `Quick
            adversary_output_pinned ] );
      ( "budget",
        [ Alcotest.test_case "parses the declaration format" `Quick
            budget_parse_accepts_the_format;
          Alcotest.test_case "parser fails closed" `Quick
            budget_parse_fails_closed;
          Alcotest.test_case "scorer fails closed" `Quick
            budget_fails_closed_on_scoring ] );
      ( "mitigate",
        [ Alcotest.test_case "padded rerun meets the budget" `Quick
            padded_rerun_meets_budget;
          Alcotest.test_case "answers byte-identical across schemes" `Quick
            mitigations_preserve_answers;
          Alcotest.test_case "equal seeds, equal traces" `Quick
            equal_seeds_equal_traces ] );
      ( "serve",
        [ Alcotest.test_case "audit scores budgeted tenants, fails closed"
            `Quick serve_audit_fails_closed ] );
      ( "attacks",
        [ Alcotest.test_case "breaks naive scheme" `Quick frequency_attack_breaks_naive;
          Alcotest.test_case "fails on OPESS" `Quick frequency_attack_fails_on_opess;
          Alcotest.test_case "coalescing attack" `Quick coalescing_attack_cases;
          Alcotest.test_case "tag-distribution attack" `Quick tag_distribution_attack_cases;
          Alcotest.test_case "opess full range" `Quick opess_full_range;
          Alcotest.test_case "size attack" `Quick size_attack_cases;
          Alcotest.test_case "belief sequence" `Quick belief_sequence_monotone ] ) ]
