(* Differential sweep: every evaluation path the library offers must
   return byte-identical answers on the same (document, query, scheme)
   triple.

   Paths compared, warm and cold:

   - [System.reference]       plaintext oracle (tree navigation)
   - [System.naive_evaluate]  ship-everything baseline
   - [System.evaluate]        the paper's protocol, 1-domain pool
   - [System.evaluate]        4-domain pool (parallel block decryption)
   - [System.evaluate_batch]  pooled lanes
   - [Engine.evaluate]        planner + caches, first (cold) and second
                              (warm) run

   The main sweep is fully deterministic — fixed document seeds, fixed
   query-generator seeds — and covers >= 200 (doc, scheme, query)
   cases; a qcheck property re-runs the core comparison on arbitrary
   documents on top.

   The update sweep applies each edit chain once, through
   [System.apply_deltas]; a warm engine created on the first hosting
   follows the chain of successors by itself.  A pin renders what the
   server sees on every read path of one fixed hosting (ledger rows,
   integer cost fields, answer digests) into one dump whose digest is a
   constant. *)

module System = Secure.System
module Scheme = Secure.Scheme
module Sc = Secure.Sc

(* SCs over the tag alphabet Helpers.random_doc draws from, same shape
   as the secure-vs-reference property in test_system.ml. *)
let scs = [ Sc.parse "//item:(/name, /price)"; Sc.parse "//c" ]

(* Queries with guaranteed matches (Querygen) plus fixed shapes that
   exercise empty results, wildcards and value predicates. *)
let queries_for doc =
  let generated =
    List.concat_map
      (fun family ->
        Workload.Querygen.generate ~seed:71L doc family ~count:3)
      Workload.Querygen.all_families
  in
  let fixed =
    List.map Xpath.Parser.parse
      [ "//item/name"; "//b//c"; "//item[price>=20]/name";
        "//item[name='hello']"; "//nosuchtag"; "//*[name]" ]
  in
  let seen = Hashtbl.create 32 in
  List.filter
    (fun q ->
      let key = Xpath.Ast.to_string q in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    (generated @ fixed)

let cases = ref 0

let check_one ~label ~expected answers =
  incr cases;
  Alcotest.(check (list string)) label expected (Helpers.norm_trees answers)

let sweep_doc pool1 pool4 doc =
  let queries = queries_for doc in
  List.iter
    (fun kind ->
      let sys1, _ = System.setup ~master:"diff-master" ~pool:pool1 doc scs kind in
      let sys4, _ = System.setup ~master:"diff-master" ~pool:pool4 doc scs kind in
      let eng = Engine.create sys1 in
      let batch4 =
        System.evaluate_batch sys4 (Array.of_list queries)
      in
      List.iteri
        (fun i q ->
          let name path =
            Printf.sprintf "%s %s: %s" (Scheme.kind_to_string kind) path
              (Xpath.Ast.to_string q)
          in
          let expected = Helpers.norm_trees (System.reference sys1 q) in
          check_one ~label:(name "naive") ~expected
            (fst (System.naive_evaluate sys1 q));
          check_one ~label:(name "evaluate/pool1") ~expected
            (fst (System.evaluate sys1 q));
          check_one ~label:(name "evaluate/pool4") ~expected
            (fst (System.evaluate sys4 q));
          check_one ~label:(name "batch/pool4") ~expected (fst batch4.(i));
          check_one ~label:(name "engine/cold") ~expected (Engine.evaluate eng q);
          check_one ~label:(name "engine/warm") ~expected (Engine.evaluate eng q))
        queries)
    Scheme.all_kinds

let doc_seeds = [ 101L; 2002L; 30003L; 400004L ]

let deterministic_sweep () =
  let pool1 = Parallel.Pool.create ~domains:1 () in
  let pool4 = Parallel.Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () ->
      Parallel.Pool.shutdown pool1;
      Parallel.Pool.shutdown pool4)
    (fun () ->
      List.iter
        (fun seed -> sweep_doc pool1 pool4 (Helpers.random_doc ~seed ()))
        doc_seeds);
  (* Each case is one (doc, scheme, query, path, cache-state)
     comparison; the floor below is on (doc, scheme, query) triples. *)
  Alcotest.(check bool)
    (Printf.sprintf "sweep covered >= 200 triples (got %d)" (!cases / 6))
    true
    (!cases / 6 >= 200)

(* ------------------------------------------------------------------ *)
(* Update equivalence: applying a sequence of deltas to a hosted
   system must be indistinguishable — answer for answer — from tearing
   everything down and re-hosting the mutated document from scratch.
   Every evaluation path is compared against the fresh-setup oracle,
   and the engine keeps its caches warm across the update (that is the
   point of the delta pipeline; test_engine pins the hit counters, here
   we pin the answers). *)

module Update = Secure.Update
module Tree = Xmlcore.Tree

(* Tag census of the current document: which tags can safely receive
   each edit kind.  [Set_value] needs every binding to be a leaf,
   [Insert_child] needs every binding to be an element, [Delete_nodes]
   works on anything but the root. *)
let census doc =
  let tbl = Hashtbl.create 16 in
  let bump tag leaf =
    let l, e = Option.value (Hashtbl.find_opt tbl tag) ~default:(0, 0) in
    Hashtbl.replace tbl tag (if leaf then (l + 1, e) else (l, e + 1))
  in
  Tree.fold
    (fun () t ->
      match t with
      | Tree.Element (tag, [ Tree.Text _ ]) -> bump tag true
      | Tree.Element (tag, _) -> bump tag false
      | Tree.Text _ -> ())
    ()
    (Xmlcore.Doc.to_tree doc);
  let pick pred =
    Hashtbl.fold
      (fun tag counts acc -> if pred tag counts then tag :: acc else acc)
      tbl []
    |> List.sort compare
  in
  let leaf_tags = pick (fun _ (l, e) -> l > 0 && e = 0) in
  let elem_tags = pick (fun t (l, e) -> e > 0 && l = 0 && t <> "root") in
  let any_tags = pick (fun t _ -> t <> "root") in
  leaf_tags, elem_tags, any_tags

(* Deterministic edit sequence: each step re-reads the evolved document
   so the chosen path is guaranteed to bind (Update raises
   Invalid_argument on dangling paths, and a raise here would be a test
   bug, not a library one). *)
let gen_edits ~seed doc n =
  let rng = Crypto.Prng.create seed in
  let choose xs = List.nth xs (Crypto.Prng.int rng (List.length xs)) in
  let rec go cur k acc =
    if k = 0 then List.rev acc
    else
      let leaf_tags, elem_tags, any_tags = census cur in
      let candidates =
        List.concat
          [ List.map
              (fun t ->
                Update.Set_value
                  ( Xpath.Parser.parse ("//" ^ t),
                    string_of_int (100 + Crypto.Prng.int rng 900) ))
              leaf_tags;
            List.map
              (fun t ->
                Update.Insert_child
                  {
                    parent = Xpath.Parser.parse ("//" ^ t);
                    position = Crypto.Prng.int rng 4;
                    subtree =
                      Tree.leaf "note" ("n" ^ string_of_int (n - k));
                  })
              elem_tags;
            (* Deletes last so value/structure edits dominate; still
               exercised whenever the rng lands on them. *)
            List.filteri (fun i _ -> i < 2)
              (List.map
                 (fun t -> Update.Delete_nodes (Xpath.Parser.parse ("//" ^ t)))
                 any_tags);
          ]
      in
      if candidates = [] then List.rev acc
      else
        let edit = choose candidates in
        go (Update.apply_all cur [ edit ]) (k - 1) (edit :: acc)
  in
  go doc n []

let update_queries =
  List.map Xpath.Parser.parse
    [ "//item/name"; "//c"; "//price"; "//item[price>=20]/name"; "//note";
      "//*[name]" ]

let update_cases = ref 0

(* One (doc, edit-sequence, scheme) cell: host, warm an engine, apply
   the deltas, then compare every path against a fresh re-host of the
   mutated plaintext. *)
let update_equiv_cell ~seed doc edits kind =
  let sys0, _ = System.setup ~master:"diff-update" doc scs kind in
  let eng = Engine.create sys0 in
  (* Warm the engine's plan/result/block caches on the pre-update
     document so the post-update runs cross a warm cache. *)
  List.iter (fun q -> ignore (Engine.evaluate eng q)) update_queries;
  (* The engine follows the chain of successors by itself. *)
  let sysn, _costs = System.apply_deltas sys0 edits in
  Alcotest.(check bool)
    (Printf.sprintf "update %Ld %s: engine follows" seed (Scheme.kind_to_string kind))
    true
    (Engine.system eng == sysn);
  let fresh, _ =
    System.setup ~master:(System.master sysn) (System.doc sysn)
      (System.constraints sysn) kind
  in
  let batch = System.evaluate_batch sysn (Array.of_list update_queries) in
  List.iteri
    (fun i q ->
      let name path =
        Printf.sprintf "update %Ld %s %s: %s" seed
          (Scheme.kind_to_string kind) path (Xpath.Ast.to_string q)
      in
      let expected = Helpers.norm_trees (System.reference fresh q) in
      incr update_cases;
      check_one ~label:(name "fresh/evaluate") ~expected
        (fst (System.evaluate fresh q));
      check_one ~label:(name "delta/naive") ~expected
        (fst (System.naive_evaluate sysn q));
      check_one ~label:(name "delta/evaluate") ~expected
        (fst (System.evaluate sysn q));
      check_one ~label:(name "delta/batch") ~expected (fst batch.(i));
      check_one ~label:(name "delta/engine-warm") ~expected
        (Engine.evaluate eng q))
    update_queries

let update_seeds = [ 7L; 77L; 777L ]

let update_equivalence_sweep () =
  List.iter
    (fun seed ->
      let doc = Helpers.random_doc ~seed () in
      List.iter
        (fun (eseed, len) ->
          let edits = gen_edits ~seed:eseed doc len in
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld produced edits" seed)
            true (edits <> []);
          List.iter
            (fun kind -> update_equiv_cell ~seed doc edits kind)
            Scheme.all_kinds)
        [ Int64.add seed 1L, 3; Int64.add seed 2L, 5 ])
    update_seeds;
  Alcotest.(check bool)
    (Printf.sprintf "update sweep covered >= 100 cases (got %d)" !update_cases)
    true
    (!update_cases >= 100)

(* ------------------------------------------------------------------ *)
(* What the server sees, pinned.  One fixed hosting per scheme, no
   pool, every read path run once, in a fixed order: the ledger rows,
   the integer cost fields and an answer digest per call are rendered
   into one dump whose digest is a constant.  Timing fields are left
   out.  A change to what any read path puts on the wire, ships or
   records shows up here as a digest mismatch, and the dump is printed
   so the difference can be read. *)

module Ledger = Obs.Ledger

let pin_doc = Workload.Health.generate ~patients:30 ()
let pin_scs = Workload.Health.constraints ()

let answer_digest trees =
  Digest.to_hex (Digest.string (String.concat "\n" (Helpers.norm_trees trees)))

let cost_line (c : System.cost) =
  Printf.sprintf
    "bytes=%d blocks=%d answers=%d attempts=%d retransmitted=%d faults=%d \
     replays=%d degraded=%b"
    c.System.transmit_bytes c.System.blocks_returned c.System.answer_count
    c.System.attempts c.System.retransmitted_bytes c.System.faults_absorbed
    c.System.replays c.System.degraded

let report_line (r : Engine.report) =
  Printf.sprintf
    "plan=%s result=%s request=%d hits=%d misses=%d bytes=%d blocks=%d \
     decrypted=%d answers=%d"
    (Engine.outcome_to_string r.Engine.plan_outcome)
    (Engine.outcome_to_string r.Engine.result_outcome)
    r.Engine.request_bytes r.Engine.block_hits r.Engine.block_misses
    r.Engine.transmit_bytes r.Engine.blocks_returned r.Engine.blocks_decrypted
    r.Engine.answer_count

let pin_kind buf kind =
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let sys, _ = System.setup ~master:"pin-master" pin_doc pin_scs kind in
  let ledger = System.ledger sys in
  Ledger.set_enabled ledger true;
  let q = Xpath.Parser.parse "//patient[age>=40]/pname" in
  let q2 = Xpath.Parser.parse "//treat/disease" in
  let answered name (answers, cost) =
    line "%s %s %s" name (answer_digest answers) (cost_line cost)
  in
  let strict name = function
    | Ok result -> answered name result
    | Error e -> line "%s error %s" name (Secure.Session.error_to_string e)
  in
  line "scheme %s" (Scheme.kind_to_string kind);
  answered "evaluate" (System.evaluate sys q);
  strict "try_evaluate" (System.try_evaluate sys q);
  strict "try_evaluate_padded"
    (System.try_evaluate_padded sys ~extra:[ 0; 2; 5; 9 ] q);
  (match System.fetch_blocks sys [ 1; 3; 4 ] with
   | Ok cost -> line "fetch_blocks %s" (cost_line cost)
   | Error e -> line "fetch_blocks error %s" (Secure.Session.error_to_string e));
  answered "naive_evaluate" (System.naive_evaluate sys q);
  (let n, cost = System.count sys q2 in
   line "count %d %s" n (cost_line cost));
  answered "evaluate_union" (System.evaluate_union sys [ q; q2 ]);
  strict "try_evaluate_union" (System.try_evaluate_union sys [ q; q2 ]);
  Array.iter (answered "evaluate_batch") (System.evaluate_batch sys [| q; q2 |]);
  List.iter
    (fun (name, dir, query) ->
      let v, cost = System.aggregate sys dir (Xpath.Parser.parse query) in
      line "%s %s %s" name (Option.value v ~default:"-") (cost_line cost))
    [ "aggregate/fast", `Max, "//patient/age";
      "aggregate/fallback", `Min, "//patient[age>=40]/age" ];
  let faulty =
    System.with_faults ~profile:(Secure.Transport.chaos ~drop:0.9 ()) ~seed:5L sys
  in
  answered "faulty/evaluate" (System.evaluate faulty q);
  answered "faulty/evaluate_union" (System.evaluate_union faulty [ q; q2 ]);
  let eng = Engine.create sys in
  List.iter
    (fun name ->
      let answers, report = Engine.evaluate_report eng q in
      line "%s %s %s" name (answer_digest answers) (report_line report))
    [ "engine/cold"; "engine/warm" ];
  line "ledger %s" (Obs.Json.to_string (Ledger.to_json ledger))

(* Captured on the tree before the read pipeline was shared; must not
   change with it. *)
let pinned_view = "37e8055ae8590f7fd11b906da9fc9da6"

let server_view_pinned () =
  let buf = Buffer.create 4096 in
  List.iter (pin_kind buf) [ Scheme.Opt; Scheme.Top ];
  let dump = Buffer.contents buf in
  let got = Digest.to_hex (Digest.string dump) in
  if got <> pinned_view then
    Alcotest.failf "server view changed (digest %s, pinned %s):\n%s" got
      pinned_view dump

(* Arbitrary documents on top of the fixed seeds: the same all-paths
   agreement, qcheck-generated.  Kept smaller per run (two schemes, the
   generated queries only) so the whole suite stays fast. *)
let arbitrary_doc_agreement =
  QCheck.Test.make ~name:"arbitrary docs: all paths agree" ~count:10
    Helpers.arbitrary_doc
    (fun doc ->
      List.for_all
        (fun kind ->
          let sys, _ = System.setup ~master:"diff-arb" doc scs kind in
          let eng = Engine.create sys in
          List.for_all
            (fun q ->
              let expected = Helpers.norm_trees (System.reference sys q) in
              Helpers.norm_trees (fst (System.naive_evaluate sys q)) = expected
              && Helpers.norm_trees (fst (System.evaluate sys q)) = expected
              && Helpers.norm_trees (Engine.evaluate eng q) = expected
              && Helpers.norm_trees (Engine.evaluate eng q) = expected)
            (Workload.Querygen.generate ~seed:17L doc Workload.Querygen.Qs
               ~count:4))
        [ Scheme.Opt; Scheme.Top ])

let () =
  Alcotest.run "differential"
    [ ( "sweep",
        [ Alcotest.test_case "deterministic all-paths sweep" `Slow
            deterministic_sweep ] );
      ( "updates",
        [ Alcotest.test_case "delta-vs-fresh-host equivalence sweep" `Slow
            update_equivalence_sweep ] );
      ( "pin",
        [ Alcotest.test_case "server view of every read path" `Quick
            server_view_pinned ] );
      Helpers.qsuite "property" [ arbitrary_doc_agreement ] ]
