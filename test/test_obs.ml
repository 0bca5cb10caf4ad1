(* Observability suite.

   Property tests for the obs library itself (histogram bucketing vs a
   reference fold, span-tree well-formedness under random
   instrumentation sequences, registry idempotence, JSON round-trips)
   plus the cross-layer agreements it pins:

   - the leakage ledger's per-round replay counts sum exactly to the
     session endpoint's replay-cache hits under seeded transport faults;
   - a pooled {!Secure.System.evaluate_batch} records, per query, the
     same ledger round as a sequential evaluation, but for its
     ["batch"] label;
   - a rehost ({!Secure.System.update} / {!Secure.System.rotate} of the
     engine's hosting, which the engine follows) resets every engine
     counter except [invalidations], so stats always describe the
     current hosting generation. *)

module Json = Obs.Json
module Metric = Obs.Metric
module Trace = Obs.Trace
module Ledger = Obs.Ledger
module System = Secure.System
module Session = Secure.Session
module Transport = Secure.Transport

(* --- Histograms vs a reference fold --------------------------------- *)

(* Strictly increasing bounds from a sorted, deduplicated float list. *)
let bounds_gen =
  QCheck.Gen.(
    map
      (fun xs ->
        let sorted = List.sort_uniq compare (List.map float_of_int xs) in
        match sorted with [] -> [ 0.0 ] | _ -> sorted)
      (list_size (int_range 1 8) (int_range (-50) 50)))

let observations_gen =
  QCheck.Gen.(list_size (int_range 0 200) (float_range (-100.0) 100.0))

let reference_counts bounds obs =
  let n = List.length bounds in
  let counts = Array.make (n + 1) 0 in
  let index v =
    let rec go i = function
      | [] -> n
      | b :: rest -> if v <= b then i else go (i + 1) rest
    in
    go 0 bounds
  in
  List.iter (fun v -> counts.(index v) <- counts.(index v) + 1) obs;
  counts

let histogram_matches_reference =
  QCheck.Test.make ~name:"histogram counts = reference fold" ~count:200
    QCheck.(
      make
        ~print:(fun (b, o) ->
          Printf.sprintf "bounds=[%s] obs=[%s]"
            (String.concat ";" (List.map string_of_float b))
            (String.concat ";" (List.map string_of_float o)))
        (Gen.pair bounds_gen observations_gen))
    (fun (bounds, obs) ->
      let reg = Metric.create ~enabled:true () in
      let h = Metric.histogram reg ~buckets:bounds "h" in
      List.iter (Metric.observe h) obs;
      Metric.bucket_counts h = reference_counts bounds obs
      && Metric.observed_count h = List.length obs
      && Float.abs (Metric.observed_sum h -. List.fold_left ( +. ) 0.0 obs)
         <= 1e-6 *. (1.0 +. Float.abs (Metric.observed_sum h))
      && Metric.bucket_bounds h = Array.of_list bounds)

(* --- Registry idempotence and kind safety --------------------------- *)

let registration_is_idempotent () =
  let reg = Metric.create ~enabled:true () in
  let a = Metric.counter reg "requests" in
  let b = Metric.counter reg "requests" in
  Metric.incr a;
  Metric.add b 2;
  Alcotest.(check int) "same instrument behind the name" 3 (Metric.value a);
  Alcotest.(check int) "one registration" 1 (List.length (Metric.snapshot reg));
  let h1 = Metric.histogram reg ~buckets:[ 1.0; 2.0 ] "lat" in
  let h2 = Metric.histogram reg ~buckets:[ 1.0; 2.0 ] "lat" in
  Metric.observe h1 0.5;
  Alcotest.(check int) "same histogram behind the name" 1
    (Metric.observed_count h2)

let registration_rejects_kind_mismatch () =
  let reg = Metric.create ~enabled:true () in
  ignore (Metric.counter reg "n");
  Alcotest.check_raises "counter name reused as gauge"
    (Invalid_argument "Obs.Metric.gauge: \"n\" is registered as another kind")
    (fun () -> ignore (Metric.gauge reg "n"));
  ignore (Metric.histogram reg ~buckets:[ 1.0; 2.0 ] "lat");
  (try
     ignore (Metric.histogram reg ~buckets:[ 1.0; 3.0 ] "lat");
     Alcotest.fail "bounds mismatch accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Metric.histogram reg ~buckets:[] "empty");
     Alcotest.fail "empty bucket list accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Metric.histogram reg ~buckets:[ 2.0; 1.0 ] "unsorted");
    Alcotest.fail "unsorted bucket list accepted"
  with Invalid_argument _ -> ()

let counters_are_monotone () =
  let reg = Metric.create ~enabled:true () in
  let c = Metric.counter reg "n" in
  try
    Metric.add c (-1);
    Alcotest.fail "negative add accepted"
  with Invalid_argument _ -> ()

let disabled_registry_is_inert () =
  let reg = Metric.create () in
  let c = Metric.counter reg "n" in
  Metric.incr c;
  Metric.add c 10;
  Alcotest.(check int) "no updates while disabled" 0 (Metric.value c);
  Alcotest.(check int) "no ops while disabled" 0 (Metric.ops reg);
  Metric.set_enabled reg true;
  Metric.incr c;
  Alcotest.(check int) "updates once enabled" 1 (Metric.value c);
  Alcotest.(check int) "ops once enabled" 1 (Metric.ops reg)

let reset_preserves_registration () =
  let reg = Metric.create ~enabled:true () in
  let c = Metric.counter reg "n" in
  let h = Metric.histogram reg ~buckets:[ 1.0 ] "lat" in
  Metric.incr c;
  Metric.observe h 0.5;
  Metric.reset reg;
  Alcotest.(check int) "counter zeroed" 0 (Metric.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metric.observed_count h);
  Alcotest.(check int) "ops zeroed" 0 (Metric.ops reg);
  Alcotest.(check bool) "still enabled" true (Metric.enabled reg);
  Alcotest.(check int) "registrations survive" 2
    (List.length (Metric.snapshot reg))

(* --- Span trees under random instrumentation sequences --------------- *)

type prog =
  | Event
  | Span of prog list
  | Raising of prog list  (** a span whose body raises after its children *)

exception Boom

let prog_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then return Event
           else
             frequency
               [ 2, return Event;
                 3,
                 map (fun ps -> Span ps)
                   (list_size (int_range 0 3) (self (n / 2)));
                 1,
                 map (fun ps -> Raising ps)
                   (list_size (int_range 0 2) (self (n / 2))) ]))

let rec run_prog t = function
  | Event -> Trace.event t "e"
  | Span ps -> Obs.span t "s" (fun () -> List.iter (run_prog t) ps)
  | Raising ps -> (
    try Obs.span t "r" (fun () -> List.iter (run_prog t) ps; raise Boom)
    with Boom -> ())

(* Well-formedness: every node's tick range sits strictly inside its
   parent's, siblings are disjoint and in open order, and the whole
   forest is oldest-first. *)
let rec node_ok ~lo ~hi (n : Trace.node) =
  lo < n.Trace.start_tick
  && n.Trace.start_tick <= n.Trace.end_tick
  && n.Trace.end_tick < hi
  && children_ok ~cursor:n.Trace.start_tick ~hi:n.Trace.end_tick
       n.Trace.children

and children_ok ~cursor ~hi = function
  | [] -> true
  | c :: rest ->
    node_ok ~lo:cursor ~hi c && children_ok ~cursor:c.Trace.end_tick ~hi rest

let forest_ok roots =
  let rec go cursor = function
    | [] -> true
    | (r : Trace.node) :: rest ->
      node_ok ~lo:cursor ~hi:max_int r && go r.Trace.end_tick rest
  in
  go (-1) roots

let top_level_spans = function
  | Event -> 1
  | Span _ | Raising _ -> 1

let span_tree_well_formed =
  QCheck.Test.make ~name:"span trees are well-formed" ~count:200
    QCheck.(make (Gen.list_size (Gen.int_range 0 6) prog_gen))
    (fun progs ->
      let t = Trace.create ~enabled:true () in
      List.iter (run_prog t) progs;
      let roots = Trace.roots t in
      (* Every top-level op yields exactly one root (raising spans are
         recorded too), in execution order; all tick ranges nest. *)
      List.length roots = List.fold_left (fun n p -> n + top_level_spans p) 0 progs
      && forest_ok roots
      &&
      (* Determinism: replaying the program reproduces the forest
         bit-for-bit (the clock is a tick counter, not wall time). *)
      let t2 = Trace.create ~enabled:true () in
      List.iter (run_prog t2) progs;
      Trace.roots t2 = roots)

let span_reraises_and_records () =
  let t = Trace.create ~enabled:true () in
  (try Obs.span t "outer" (fun () ->
       Obs.span t "inner" (fun () -> raise Boom))
   with Boom -> ());
  match Trace.roots t with
  | [ { Trace.name = "outer"; children = [ { Trace.name = "inner"; _ } ]; _ } ]
    -> ()
  | _ -> Alcotest.fail "raising spans must still be recorded"

let disabled_tracer_is_inert () =
  let t = Trace.create () in
  Obs.span t "s" (fun () -> Trace.event t "e");
  Alcotest.(check int) "no spans while disabled" 0
    (List.length (Trace.roots t))

(* --- JSON round-trips ------------------------------------------------ *)

let json_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let scalar =
             frequency
               [ 1, return Json.Null;
                 2, map (fun b -> Json.Bool b) bool;
                 4, map (fun i -> Json.Int i) int;
                 2, map (fun f -> Json.Float f) (float_range (-1e9) 1e9);
                 4, map (fun s -> Json.Str s) (string_size (int_range 0 12)) ]
           in
           if n <= 0 then scalar
           else
             frequency
               [ 3, scalar;
                 2, map (fun l -> Json.List l)
                      (list_size (int_range 0 4) (self (n / 2)));
                 2,
                 map (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4)
                      (pair (string_size (int_range 0 6)) (self (n / 2)))) ]))

let json_round_trip =
  QCheck.Test.make ~name:"of_string (to_string v) = v" ~count:300
    QCheck.(make ~print:(fun v -> Json.to_string v) json_gen)
    (fun v ->
      let compact = Json.of_string (Json.to_string v) in
      let pretty = Json.of_string (Json.to_string ~indent:true v) in
      match compact, pretty with
      | Ok c, Ok p -> Json.equal c v && Json.equal p v
      | _ -> false)

let sink_json_round_trips () =
  let check_sink name json =
    match Json.of_string (Json.to_string json) with
    | Ok parsed ->
      Alcotest.(check bool) (name ^ " round-trips") true (Json.equal parsed json)
    | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
  in
  let reg = Metric.create ~enabled:true () in
  Metric.add (Metric.counter reg "a.count") 7;
  Metric.set (Metric.gauge reg "a.level") 0.25;
  Metric.observe (Metric.histogram reg ~buckets:[ 1.0; 10.0 ] "a.lat") 3.0;
  check_sink "metric registry" (Metric.to_json reg);
  let t = Trace.create ~enabled:true () in
  Obs.span t "outer" ~attrs:[ "k", "v\"with\nescapes" ] (fun () ->
      Trace.event t "e");
  check_sink "trace" (Trace.to_json t);
  let l = Ledger.create ~enabled:true () in
  Ledger.record l (Ledger.round "evaluate" ~bytes_up:12 ~bytes_down:3456);
  Ledger.record l (Ledger.round "naive" ~degraded:true);
  check_sink "ledger" (Ledger.to_json l)

(* The same JSON surface `sxq trace --json` prints, consumed here: host
   a system, trace one evaluation, parse the emitted JSON and navigate
   it structurally. *)
let system_trace_json_consumable () =
  let doc = Workload.Health.generate ~patients:10 () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup ~master:"obs-json" doc scs Secure.Scheme.Opt in
  Trace.set_enabled (System.tracer sys) true;
  Ledger.set_enabled (System.ledger sys) true;
  let q = Xpath.Parser.parse "//patient//pname" in
  ignore (System.evaluate sys q);
  let payload =
    Json.Obj
      [ "trace", Trace.to_json (System.tracer sys);
        "ledger", Ledger.to_json (System.ledger sys) ]
  in
  match Json.of_string (Json.to_string ~indent:true payload) with
  | Error msg -> Alcotest.fail msg
  | Ok parsed ->
    let root_names =
      match Json.member "trace" parsed with
      | Some (Json.List nodes) ->
        List.filter_map
          (fun n -> Option.bind (Json.member "name" n) Json.to_str)
          nodes
      | _ -> []
    in
    Alcotest.(check (list string)) "top-level span" [ "system.evaluate" ]
      root_names;
    let total_down =
      Option.bind (Json.member "ledger" parsed) (fun l ->
          Option.bind (Json.member "totals" l) (fun t ->
              Option.bind (Json.member "bytes_down" t) Json.to_int))
    in
    (match total_down with
    | Some n -> Alcotest.(check bool) "ledger saw response bytes" true (n > 0)
    | None -> Alcotest.fail "ledger totals missing bytes_down")

(* --- Ledger bookkeeping ---------------------------------------------- *)

let ledger_capacity_and_totals () =
  let l = Ledger.create ~enabled:true ~capacity:3 () in
  for i = 1 to 5 do
    Ledger.record l
      (Ledger.round "r" ~bytes_up:i ~attempts:2 ~degraded:(i = 2))
  done;
  let held = Ledger.rounds l in
  Alcotest.(check (list int)) "oldest rounds dropped at capacity"
    [ 3; 4; 5 ]
    (List.map (fun r -> r.Ledger.seq) held);
  Alcotest.(check int) "count includes dropped rounds" 5 (Ledger.count l);
  let totals = Ledger.totals l in
  Alcotest.(check int) "totals sum over dropped rounds too" 15
    totals.Ledger.bytes_up;
  Alcotest.(check int) "attempts sum" 10 totals.Ledger.attempts;
  Alcotest.(check bool) "degraded is ORed" true totals.Ledger.degraded;
  Ledger.clear l;
  Alcotest.(check int) "clear empties" 0 (Ledger.count l)

let ledger_disabled_is_inert () =
  let l = Ledger.create () in
  Ledger.record l (Ledger.round "r" ~bytes_up:1);
  Alcotest.(check int) "no rounds while disabled" 0 (Ledger.count l)

(* --- Ledger vs endpoint: replay accounting agrees -------------------- *)

let replay_accounting_agrees () =
  (* Under a duplicate-heavy (loss-free) profile every evaluation
     succeeds, and each duplicated frame the server answers from its
     replay cache must show up in the endpoint's [replayed] count and
     as a per-round [replays] delta in the ledger — the two agree
     exactly. *)
  let doc = Workload.Health.generate ~patients:15 () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup ~master:"obs-audit" doc scs Secure.Scheme.Opt in
  let faulty =
    System.with_faults
      ~profile:(Transport.chaos ~duplicate:0.6 ())
      ~seed:7L sys
  in
  let ledger = System.ledger faulty in
  Ledger.set_enabled ledger true;
  Ledger.clear ledger;
  let before = (System.endpoint_stats faulty).Session.replayed in
  let queries =
    Workload.Querygen.generate ~seed:31L doc Workload.Querygen.Qs ~count:25
  in
  List.iter (fun q -> ignore (System.evaluate faulty q)) queries;
  let after = (System.endpoint_stats faulty).Session.replayed in
  let ledger_replays =
    List.fold_left
      (fun acc r -> acc + r.Ledger.replays)
      0 (Ledger.rounds ledger)
  in
  Alcotest.(check bool)
    (Printf.sprintf "profile produced replays (got %d)" (after - before))
    true
    (after - before > 0);
  Alcotest.(check int) "ledger rounds sum to the endpoint's replay count"
    (after - before) ledger_replays

(* --- Pooled batch rows = sequential rows ------------------------------ *)

(* A pooled [evaluate_batch] lane is the same read as a sequential
   [evaluate], so its ledger round must carry the same server-visible
   facts — a row with zero bytes_up, intervals_touched or btree_hits
   under-reports what the server learned; only the label differs. *)
let pooled_batch_rows_match_sequential () =
  let doc = Workload.Health.generate ~patients:30 () in
  let scs = Workload.Health.constraints () in
  let pool = Parallel.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let sys, _ = System.setup ~master:"obs-batch" ~pool doc scs Secure.Scheme.Opt in
      let ledger = System.ledger sys in
      Ledger.set_enabled ledger true;
      let queries =
        Array.of_list
          (Xpath.Parser.parse "//patient[age>=40]/pname"
          :: Workload.Querygen.generate ~seed:5L doc Workload.Querygen.Qm ~count:4)
      in
      let rows f =
        Ledger.clear ledger;
        f ();
        List.map (fun r -> { r with Ledger.label = "" }) (Ledger.rounds ledger)
      in
      let sequential =
        rows (fun () -> Array.iter (fun q -> ignore (System.evaluate sys q)) queries)
      in
      let labels = ref [] in
      let pooled =
        rows (fun () ->
            ignore (System.evaluate_batch sys queries);
            labels := List.map (fun r -> r.Ledger.label) (Ledger.rounds ledger))
      in
      Alcotest.(check (list string)) "pooled rows keep the batch label"
        (List.map (fun _ -> "batch") sequential) !labels;
      Alcotest.(check int) "one row per query" (Array.length queries)
        (List.length pooled);
      List.iter2
        (fun s p ->
          Alcotest.(check string) "pooled row = sequential row"
            (Json.to_string (Ledger.round_to_json s))
            (Json.to_string (Ledger.round_to_json p)))
        sequential pooled)

(* --- Engine counters reset on rehost --------------------------------- *)

let engine_counters_reset_on_rehost () =
  let doc = Workload.Health.generate ~patients:15 () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup ~master:"obs-engine" doc scs Secure.Scheme.Opt in
  let eng = Engine.create sys in
  let q = Xpath.Parser.parse "//patient[age>=60]/pname" in
  ignore (Engine.evaluate eng q);
  ignore (Engine.evaluate eng q);
  let warm = Engine.stats eng in
  Alcotest.(check int) "two queries counted" 2 warm.Engine.Stats.queries;
  Alcotest.(check bool) "warm run hit a cache" true
    (warm.Engine.Stats.result_hits >= 1);
  ignore
    (System.update sys
       (Secure.Update.Set_value (Xpath.Parser.parse "//patient/age", "61")));
  let fresh = Engine.stats eng in
  (* The pinned fix: before this PR these counters accumulated across
     hosting generations, silently mixing dead ciphertext artifacts'
     hit rates into live ones. *)
  Alcotest.(check int) "queries restart from zero" 0 fresh.Engine.Stats.queries;
  Alcotest.(check int) "compilations restart" 0
    fresh.Engine.Stats.plans_compiled;
  Alcotest.(check int) "plan cache counters restart" 0
    (fresh.Engine.Stats.plan_hits + fresh.Engine.Stats.plan_misses);
  Alcotest.(check int) "result cache counters restart" 0
    (fresh.Engine.Stats.result_hits + fresh.Engine.Stats.result_misses);
  Alcotest.(check int) "block cache counters restart" 0
    (fresh.Engine.Stats.block_hits + fresh.Engine.Stats.block_misses);
  Alcotest.(check bool) "invalidations survive (monotone)" true
    (fresh.Engine.Stats.invalidations >= 1);
  let _, report = Engine.evaluate_report eng q in
  Alcotest.(check bool) "caches are cold after the rehost" true
    (report.Engine.result_outcome = Engine.Miss);
  Alcotest.(check int) "counting resumes in the new generation" 1
    (Engine.stats eng).Engine.Stats.queries;
  ignore (System.rotate (Engine.system eng) ~new_master:"obs-engine-2");
  let rotated = Engine.stats eng in
  Alcotest.(check int) "rotate also resets" 0 rotated.Engine.Stats.queries;
  Alcotest.(check bool) "rotate adds an invalidation" true
    (rotated.Engine.Stats.invalidations >= 2)

let snapshot_prefix_carves_tenant_views () =
  let module Metric = Obs.Metric in
  let r = Metric.create ~enabled:true () in
  let a1 = Metric.counter r "serve.tenant-a.served" in
  let _ = Metric.counter r "serve.tenant-b.served" in
  let b2 = Metric.counter r "serve.tenant-b.shed" in
  Metric.incr a1;
  Metric.incr b2;
  Metric.incr b2;
  let names prefix = List.map fst (Metric.snapshot_prefix r prefix) in
  Alcotest.(check (list string)) "tenant-a view"
    [ "serve.tenant-a.served" ] (names "serve.tenant-a.");
  Alcotest.(check (list string)) "tenant-b view"
    [ "serve.tenant-b.served"; "serve.tenant-b.shed" ] (names "serve.tenant-b.");
  Alcotest.(check (list string)) "no such prefix" [] (names "serve.tenant-c.");
  Alcotest.(check int) "whole registry" 3 (List.length (names ""));
  (match Metric.snapshot_prefix r "serve.tenant-b.shed" with
   | [ (_, Metric.Counter_v n) ] -> Alcotest.(check int) "values survive" 2 n
   | _ -> Alcotest.fail "exact-name prefix should match one counter")

let degraded_fallbacks_are_counted () =
  (* A near-dead link forces [System.evaluate] onto the naive fallback;
     the default registry's [system.degraded] counter must agree with
     the per-query cost flags. *)
  let module System = Secure.System in
  let module Transport = Secure.Transport in
  let module Session = Secure.Session in
  let doc = Workload.Health.generate ~patients:5 () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup ~master:"obs-degraded" doc scs Secure.Scheme.Opt in
  let faulty =
    System.with_faults
      ~session:{ Session.default_config with Session.max_attempts = 2 }
      ~profile:(Transport.chaos ~drop:1.0 ()) ~seed:11L sys
  in
  let reg = Obs.Metric.default in
  let counter = Obs.Metric.counter reg "system.degraded" in
  let was_enabled = Obs.Metric.enabled reg in
  Obs.Metric.set_enabled reg true;
  let before = Obs.Metric.value counter in
  let q = Xpath.Parser.parse "//patient/pname" in
  let degraded = ref 0 in
  for _ = 1 to 5 do
    let _, cost = System.evaluate faulty q in
    if cost.System.degraded then incr degraded
  done;
  let seen = Obs.Metric.value counter - before in
  Obs.Metric.set_enabled reg was_enabled;
  Alcotest.(check bool) "dead link degrades every query" true (!degraded = 5);
  Alcotest.(check int) "counter agrees with cost flags" !degraded seen

(* --- Labels --------------------------------------------------------- *)

let label_sanitize () =
  Alcotest.(check string) "clean labels pass through" "tenant-a.v2_x"
    (Obs.Label.sanitize "tenant-a.v2_x");
  Alcotest.(check string) "structure is destroyed" "a_b_c__d"
    (Obs.Label.sanitize "a b\nc{\"d");
  let long = String.make 200 'x' in
  Alcotest.(check int) "truncated to 64 bytes" 64
    (String.length (Obs.Label.sanitize long));
  let once = Obs.Label.sanitize "sp\xffooky id" in
  Alcotest.(check string) "idempotent" once (Obs.Label.sanitize once)

let label_used_for_tenant_metrics () =
  (* Serve.register must not mint metric names straight from the raw
     tenant id; a hostile id shows up sanitized in the snapshot. *)
  Alcotest.(check string) "hostile id becomes a flat label"
    "serve.evil_tenant_1.admitted"
    ("serve." ^ Obs.Label.sanitize "evil tenant\n1" ^ ".admitted")

(* One journaled edit under the tick clock: the digest and the append,
   then the delta's steps in order, each on the hosting's tracer. *)
let journaled_edit_spans () =
  let sys, _ =
    Secure.System.setup ~master:"obs-journal" (Workload.Health.doc ())
      (Workload.Health.constraints ()) Secure.Scheme.Opt
  in
  let path = Filename.temp_file "sxq-obs" ".host" in
  let log = Secure.Persist.log_path path in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; log ])
    (fun () ->
      Secure.Persist.save sys path;
      let j = Secure.Persist.journal_open ~master:"obs-journal" path in
      let tracer = Secure.System.tracer (Secure.Persist.journal_system j) in
      Trace.set_enabled tracer true;
      let cost =
        Secure.Persist.journal_update j
          (Secure.Update.Set_value
             (Xpath.Parser.parse "//patient[pname='Betty']/age", "36"))
      in
      Alcotest.(check bool) "incremental" false cost.Secure.System.fell_back;
      Alcotest.(check string) "span tree"
        (String.concat "\n"
           [ "persist.digest [1..2]";
             "persist.append [3..4]";
             "delta.apply [5..16]";
             "  delta.enforce [6..7]";
             "  delta.reencrypt [8..9]";
             "  delta.patch [10..11]";
             "  delta.server [12..13]";
             "  delta.client [14..15]";
             "" ])
        (Trace.render tracer))

let () =
  Alcotest.run "obs"
    [ Helpers.qsuite "properties"
        [ histogram_matches_reference; span_tree_well_formed; json_round_trip ];
      ( "metric",
        [ Alcotest.test_case "registration idempotent" `Quick
            registration_is_idempotent;
          Alcotest.test_case "kind mismatch rejected" `Quick
            registration_rejects_kind_mismatch;
          Alcotest.test_case "counters monotone" `Quick counters_are_monotone;
          Alcotest.test_case "disabled registry inert" `Quick
            disabled_registry_is_inert;
          Alcotest.test_case "reset preserves registration" `Quick
            reset_preserves_registration;
          Alcotest.test_case "snapshot_prefix tenant views" `Quick
            snapshot_prefix_carves_tenant_views;
          Alcotest.test_case "degraded fallbacks counted" `Quick
            degraded_fallbacks_are_counted ] );
      ( "trace",
        [ Alcotest.test_case "raising spans recorded" `Quick
            span_reraises_and_records;
          Alcotest.test_case "disabled tracer inert" `Quick
            disabled_tracer_is_inert;
          Alcotest.test_case "journaled edit spans" `Quick journaled_edit_spans ] );
      ( "json",
        [ Alcotest.test_case "sink round-trips" `Quick sink_json_round_trips;
          Alcotest.test_case "system trace consumable" `Quick
            system_trace_json_consumable ] );
      ( "ledger",
        [ Alcotest.test_case "capacity and totals" `Quick
            ledger_capacity_and_totals;
          Alcotest.test_case "disabled ledger inert" `Quick
            ledger_disabled_is_inert;
          Alcotest.test_case "replay accounting agrees" `Quick
            replay_accounting_agrees;
          Alcotest.test_case "pooled batch rows = sequential rows" `Quick
            pooled_batch_rows_match_sequential ] );
      ( "label",
        [ Alcotest.test_case "sanitize" `Quick label_sanitize;
          Alcotest.test_case "tenant metric names" `Quick
            label_used_for_tenant_metrics ] );
      ( "engine",
        [ Alcotest.test_case "counters reset on rehost" `Quick
            engine_counters_reset_on_rehost ] ) ]
