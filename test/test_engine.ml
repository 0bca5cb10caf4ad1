(* Engine tests: LRU mechanics, answer equality across schemes and
   cache configurations (including immediately after an update),
   ledger rounds equal to the protocol's with the caches off, eviction
   behaviour at tiny capacities, the engine following its hosting
   through every kind of succession, the server-side sortedness
   invariant behind the lookup fast path, and cache-key hygiene (the
   key is exactly the wire request; plaintext never reaches it). *)

module System = Secure.System
module Scheme = Secure.Scheme
module Qg = Workload.Querygen

let doc = Workload.Health.generate ~patients:60 ()
let scs = Workload.Health.constraints ()

let systems = Hashtbl.create 4

let system kind =
  match Hashtbl.find_opt systems kind with
  | Some sys -> sys
  | None ->
    let sys, _ = System.setup ~master:"test-engine" doc scs kind in
    Hashtbl.replace systems kind sys;
    sys

let parse = Xpath.Parser.parse

let workload () =
  List.sort_uniq compare
    (List.concat_map
       (fun fam -> Qg.generate ~seed:42L doc fam ~count:3)
       [ Qg.Qs; Qg.Qm; Qg.Ql; Qg.Qv ])

(* --- LRU ------------------------------------------------------------ *)

let lru_basics () =
  let c = Engine.Lru.create 2 in
  Engine.Lru.put c 1 "a";
  Engine.Lru.put c 2 "b";
  Alcotest.(check (option string)) "find refreshes" (Some "a")
    (Engine.Lru.find c 1);
  Engine.Lru.put c 3 "c";
  (* 2 was least recently used (1 was refreshed by the find). *)
  Alcotest.(check (option string)) "evicted" None (Engine.Lru.find c 2);
  Alcotest.(check (option string)) "survivor" (Some "a") (Engine.Lru.find c 1);
  Alcotest.(check (option string)) "newcomer" (Some "c") (Engine.Lru.find c 3);
  Alcotest.(check int) "one eviction" 1 (Engine.Lru.evictions c);
  Alcotest.(check int) "length capped" 2 (Engine.Lru.length c)

let lru_update_in_place () =
  let c = Engine.Lru.create 4 in
  Engine.Lru.put c 7 "old";
  Engine.Lru.put c 7 "new";
  Alcotest.(check int) "no duplicate entry" 1 (Engine.Lru.length c);
  Alcotest.(check (option string)) "value replaced" (Some "new")
    (Engine.Lru.find c 7);
  Alcotest.(check int) "no eviction" 0 (Engine.Lru.evictions c)

let lru_zero_capacity () =
  (* Capacity 0 is the disabled mode: every find is a counted miss. *)
  let c = Engine.Lru.create 0 in
  Engine.Lru.put c 1 "a";
  Alcotest.(check (option string)) "nothing stored" None (Engine.Lru.find c 1);
  Alcotest.(check int) "length stays 0" 0 (Engine.Lru.length c);
  Alcotest.(check int) "misses counted" 1 (Engine.Lru.misses c);
  Alcotest.(check int) "no hits" 0 (Engine.Lru.hits c)

let lru_clear_keeps_counters () =
  let c = Engine.Lru.create 8 in
  Engine.Lru.put c 1 "a";
  ignore (Engine.Lru.find c 1);
  ignore (Engine.Lru.find c 2);
  Engine.Lru.clear c;
  Alcotest.(check int) "empty" 0 (Engine.Lru.length c);
  Alcotest.(check (option string)) "entries gone" None (Engine.Lru.find c 1);
  Alcotest.(check int) "hits survive clear" 1 (Engine.Lru.hits c);
  Alcotest.(check bool) "misses survive clear" true (Engine.Lru.misses c >= 2)

let squery_of kind q =
  Secure.Client.translate (System.client (system kind)) (parse q)

(* --- Answer equality ------------------------------------------------ *)

let off_config = { Engine.result_capacity = 0; block_capacity = 0 }

let equality_across_schemes () =
  (* Cold, warm and capacity-0 engine runs must all agree with the
     uncached System.evaluate, for every scheme. *)
  let queries = workload () in
  List.iter
    (fun kind ->
      let sys = system kind in
      let eng = Engine.create sys in
      let off = Engine.create ~config:off_config sys in
      List.iter
        (fun q ->
          let reference = fst (System.evaluate sys q) in
          let label what =
            Printf.sprintf "%s %s" (Scheme.kind_to_string kind) what
          in
          Alcotest.(check bool) (label "cold") true
            (Engine.evaluate eng q = reference);
          Alcotest.(check bool) (label "warm") true
            (Engine.evaluate eng q = reference);
          Alcotest.(check bool) (label "caches off") true
            (Engine.evaluate off q = reference))
        queries)
    Scheme.all_kinds

(* With both capacities 0 the engine keeps nothing, so each of its
   reads is the protocol's round: its ledger row must carry exactly the
   wire facts of System.evaluate's row for the same query. *)
let rounds_are_protocol_rounds () =
  let queries = workload () in
  let wire (r : Obs.Ledger.round) =
    Printf.sprintf "up=%d down=%d intervals=%d btree=%d blocks=[%s]" r.Obs.Ledger.bytes_up
      r.Obs.Ledger.bytes_down r.Obs.Ledger.intervals_touched r.Obs.Ledger.btree_hits
      (String.concat ";" (List.map string_of_int r.Obs.Ledger.block_ids))
  in
  List.iter
    (fun kind ->
      let sys, _ = System.setup ~master:"test-engine-rounds" doc scs kind in
      let ledger = System.ledger sys in
      Obs.Ledger.set_enabled ledger true;
      let off = Engine.create ~config:off_config sys in
      List.iter
        (fun q ->
          ignore (System.evaluate sys q);
          ignore (Engine.evaluate off q))
        queries;
      let rows label =
        List.filter_map
          (fun r -> if r.Obs.Ledger.label = label then Some (wire r) else None)
          (Obs.Ledger.rounds ledger)
      in
      Alcotest.(check int)
        (Scheme.kind_to_string kind ^ ": one engine round per query")
        (List.length queries) (List.length (rows "engine"));
      Alcotest.(check (list string))
        (Scheme.kind_to_string kind ^ ": engine rounds = protocol rounds")
        (rows "evaluate") (rows "engine"))
    Scheme.all_kinds

let update_invalidates () =
  let sys, _ = System.setup ~master:"test-engine-upd" doc scs Scheme.Opt in
  let eng = Engine.create sys in
  let q = parse "//patient[age>=60]/pname" in
  ignore (Engine.evaluate eng q);
  let _, warm = Engine.evaluate_report eng q in
  Alcotest.(check bool) "warm run hits the result memo" true
    (warm.Engine.result_outcome = Engine.Hit);
  let _next, _cost =
    System.update sys (Secure.Update.Set_value (parse "//patient/age", "61"))
  in
  let answers, post = Engine.evaluate_report eng q in
  Alcotest.(check bool) "post-update run misses" true
    (post.Engine.result_outcome = Engine.Miss);
  Alcotest.(check bool) "post-update answers exact" true
    (answers = fst (System.evaluate (Engine.system eng) q));
  Alcotest.(check bool) "invalidation counted" true
    ((Engine.stats eng).Engine.Stats.invalidations >= 1)

(* The incremental-update contract: a delta applied to the engine's
   hosting flushes the result memo but keeps every untouched block's
   decrypted-subtree entry — only the touched blocks' (id, generation)
   keys are evicted, and no counters reset.  This is the cache-survival
   pin: before this path existed, ANY update flushed every cache
   wholesale. *)
let delta_preserves_untouched_block_cache () =
  let sys, _ = System.setup ~master:"test-engine-delta" doc scs Scheme.Opt in
  let eng = Engine.create sys in
  let pnames =
    List.filter_map
      (Xmlcore.Doc.value doc)
      (Xmlcore.Doc.nodes_with_tag doc "pname")
  in
  let a = List.nth pnames 0 and b = List.nth pnames 1 in
  let q_warm = parse (Printf.sprintf "//patient[pname='%s']//policy#" a) in
  let q_touched = parse (Printf.sprintf "//patient[pname='%s']//policy#" b) in
  (* Warm both queries' blocks (and result memos). *)
  ignore (Engine.evaluate eng q_warm);
  ignore (Engine.evaluate eng q_touched);
  let _, warm = Engine.evaluate_report eng q_warm in
  Alcotest.(check bool) "warm run serves blocks from cache" true
    (warm.Engine.block_misses = 0 && warm.Engine.block_hits > 0);
  let hits_before = (Engine.stats eng).Engine.Stats.block_hits in
  (* Edit patient b's insurance block through the incremental path. *)
  let _next, cost =
    System.apply_delta sys
      (Secure.Update.Set_value
         (parse (Printf.sprintf "//patient[pname='%s']//policy#" b), "91234"))
  in
  Alcotest.(check bool) "edit stayed incremental" false cost.System.fell_back;
  Alcotest.(check bool) "edit touched a block" true (cost.System.blocks_touched >= 1);
  (* Untouched region: every block entry survived (zero misses) and the
     counters kept climbing — only the result memo was flushed. *)
  let answers, post = Engine.evaluate_report eng q_warm in
  Alcotest.(check bool) "untouched blocks still cached" true
    (post.Engine.block_misses = 0 && post.Engine.block_hits > 0);
  Alcotest.(check bool) "result memo flushed" true
    (post.Engine.result_outcome = Engine.Miss);
  Alcotest.(check bool) "block-hit counter not reset" true
    ((Engine.stats eng).Engine.Stats.block_hits > hits_before);
  Alcotest.(check bool) "untouched answers exact" true
    (answers = fst (System.evaluate (Engine.system eng) q_warm));
  (* Touched region: the superseded (id, generation) entry is gone, so
     the block re-ships — and the fresh ciphertext's value is served. *)
  let answers, touched = Engine.evaluate_report eng q_touched in
  Alcotest.(check bool) "touched block re-shipped" true
    (touched.Engine.block_misses >= 1);
  Alcotest.(check bool) "touched answers exact" true
    (answers = fst (System.evaluate (Engine.system eng) q_touched));
  Alcotest.(check bool) "new value visible" true
    (List.exists
       (fun t ->
         match t with
         | Xmlcore.Tree.Element (_, [ Xmlcore.Tree.Text v ]) -> v = "91234"
         | _ -> false)
       answers)

(* The engine follows its hosting, whoever supersedes it.  Probe: on
   the paper's fixture a warmed engine, then an edit setting Betty's
   age to 99 applied to the engine's hosting directly.  The successor's
   plaintext answers //patient[age>=40]/pname with 2 nodes, while an
   engine left bound to the superseded hosting answers with 0.  [bind]
   picks the hosting the engine is created on and how it is
   superseded. *)
let follow_case name ~expected bind () =
  let sys, _ =
    System.setup ~master:"test-engine-follow" (Workload.Health.doc ())
      (Workload.Health.constraints ()) Scheme.Opt
  in
  let path = Filename.temp_file "sxq-engine" ".host" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Secure.Persist.log_path path ])
    (fun () ->
      let hosting, supersede = bind sys path in
      let eng = Engine.create hosting in
      let q = parse "//patient[age>=40]/pname" in
      ignore (Engine.evaluate eng q);
      ignore (Engine.evaluate eng q);
      let next =
        supersede
          (Secure.Update.Set_value (parse "//patient[pname='Betty']/age", "99"))
      in
      Alcotest.(check bool) (name ^ ": engine bound to the successor") true
        (Engine.system eng == next);
      let reference = System.reference next q in
      Alcotest.(check int) (name ^ ": successor's reference") expected
        (List.length reference);
      Helpers.check_trees_equal (name ^ ": engine answers") reference
        (Engine.evaluate eng q))

let follows_apply_delta =
  follow_case "apply_delta" ~expected:2 (fun sys _ ->
      sys, fun edit -> fst (System.apply_delta sys edit))

let follows_update =
  follow_case "update" ~expected:2 (fun sys _ ->
      sys, fun edit -> fst (System.update sys edit))

(* Rotation re-hosts the same document: Matt (40) is the only match. *)
let follows_rotate =
  follow_case "rotate" ~expected:1 (fun sys _ ->
      sys, fun _ -> fst (System.rotate sys ~new_master:"test-engine-follow-2"))

let follows_journal_update =
  follow_case "journal_update" ~expected:2 (fun sys path ->
      Secure.Persist.save sys path;
      let j = Secure.Persist.journal_open ~master:"test-engine-follow" path in
      ( Secure.Persist.journal_system j,
        fun edit ->
          ignore (Secure.Persist.journal_update j edit);
          Secure.Persist.journal_system j ))

let tiny_capacity_eviction () =
  (* Capacities of 1/2 force constant eviction; answers must not
     change, only hit rates. *)
  let sys = system Scheme.Opt in
  let eng =
    Engine.create ~config:{ Engine.result_capacity = 1; block_capacity = 2 } sys
  in
  let queries = workload () in
  List.iter
    (fun q ->
      Alcotest.(check bool) "answers exact under eviction pressure" true
        (Engine.evaluate eng q = fst (System.evaluate sys q)))
    (queries @ queries);
  let stats = Engine.stats eng in
  Alcotest.(check bool) "evictions happened" true
    (stats.Engine.Stats.result_evictions > 0)

(* --- Server sortedness invariant (lookup fast path) ----------------- *)

let lookup_fast_path_sorted () =
  (* Server.create normalises every table entry, so the single-token
     fast path may return the stored list as-is.  Pin the invariant and
     the fast path's equality with the merging path. *)
  let sys = system Scheme.Opt in
  let server = System.server sys in
  let squery = squery_of Scheme.Opt "//patient//pname" in
  List.iter
    (fun (step : Secure.Squery.step) ->
      let ivs = Secure.Server.lookup server step.Secure.Squery.test in
      Alcotest.(check bool) "sorted and duplicate-free" true
        (ivs = List.sort_uniq Dsi.Interval.compare_by_lo ivs);
      match step.Secure.Squery.test with
      | Secure.Squery.Tokens [ token ] ->
        (* A duplicated token exercises the general merging path; the
           result must match the fast path exactly. *)
        let merged =
          Secure.Server.lookup server (Secure.Squery.Tokens [ token; token ])
        in
        Alcotest.(check bool) "fast path = merge path" true (merged = ivs)
      | _ -> ())
    squery.Secure.Squery.steps

(* --- Cache-key hygiene ---------------------------------------------- *)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let wire_request_is_the_protocol_encoding () =
  let sys = system Scheme.Opt in
  let eng = Engine.create sys in
  let q = parse "//patient[age>=60]/pname" in
  Alcotest.(check string) "key = encode_request of the translation"
    (Secure.Protocol.encode_request
       (Secure.Client.translate (System.client sys) q))
    (Engine.wire_request eng q)

let key_hides_encrypted_tags_and_values () =
  (* Under the sub scheme whole patient records are encrypted, so inner
     tags reach the wire only as Vernam tokens and compared values only
     as OPESS ranges: neither plaintext may appear in the cache key. *)
  let sys = system Scheme.Sub in
  let eng = Engine.create sys in
  let req = Engine.wire_request eng (parse "//patient[disease='Flu']/pname") in
  Alcotest.(check bool) "encrypted tag absent" false
    (contains_substring req "disease");
  (* The value literal is translated to OPESS int64 ranges (or Unknown),
     so its plaintext must not survive either.  A letter-bearing literal
     keeps the check from tripping on range digits. *)
  Alcotest.(check bool) "compared value absent" false
    (contains_substring req "Flu")

let () =
  Alcotest.run "engine"
    [ ( "lru",
        [ Alcotest.test_case "basics" `Quick lru_basics;
          Alcotest.test_case "update in place" `Quick lru_update_in_place;
          Alcotest.test_case "zero capacity" `Quick lru_zero_capacity;
          Alcotest.test_case "clear keeps counters" `Quick
            lru_clear_keeps_counters ] );
      ( "equality",
        [ Alcotest.test_case "all schemes, warm/cold/off" `Slow
            equality_across_schemes;
          Alcotest.test_case "engine rounds are protocol rounds" `Quick
            rounds_are_protocol_rounds;
          Alcotest.test_case "update invalidates" `Quick update_invalidates;
          Alcotest.test_case "delta keeps untouched blocks warm" `Quick
            delta_preserves_untouched_block_cache;
          Alcotest.test_case "tiny capacities" `Quick tiny_capacity_eviction ]
      );
      ( "follow",
        [ Alcotest.test_case "apply_delta" `Quick follows_apply_delta;
          Alcotest.test_case "update" `Quick follows_update;
          Alcotest.test_case "rotate" `Quick follows_rotate;
          Alcotest.test_case "journal_update" `Quick follows_journal_update ] );
      ( "server-invariants",
        [ Alcotest.test_case "lookup fast path sorted" `Quick
            lookup_fast_path_sorted ] );
      ( "hygiene",
        [ Alcotest.test_case "key is the wire request" `Quick
            wire_request_is_the_protocol_encoding;
          Alcotest.test_case "key hides plaintext" `Quick
            key_hides_encrypted_tags_and_values ] ) ]
