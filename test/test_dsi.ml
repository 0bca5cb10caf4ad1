(* DSI index tests: interval algebra, calInterval assignment, joins. *)

module Interval = Dsi.Interval
module Doc = Xmlcore.Doc

let iv lo hi = Interval.make lo hi

(* --- Interval ---------------------------------------------------- *)

let interval_basics () =
  Alcotest.(check bool) "contains" true (Interval.contains (iv 0.0 1.0) (iv 0.2 0.8));
  Alcotest.(check bool) "strict" false (Interval.contains (iv 0.0 1.0) (iv 0.0 0.8));
  Alcotest.(check bool) "disjoint" true (Interval.disjoint (iv 0.0 0.4) (iv 0.5 0.9));
  Alcotest.(check bool) "overlap not disjoint" false
    (Interval.disjoint (iv 0.0 0.6) (iv 0.5 0.9));
  Alcotest.(check bool) "hull" true
    (Interval.equal (Interval.hull (iv 0.1 0.3) (iv 0.5 0.7)) (iv 0.1 0.7));
  Alcotest.check_raises "degenerate" (Invalid_argument "Interval.make: lo must be < hi")
    (fun () -> ignore (Interval.make 0.5 0.5))

(* --- Assignment --------------------------------------------------- *)

let assignment_valid_prop =
  QCheck.Test.make ~name:"calInterval invariants on random docs" ~count:100
    Helpers.arbitrary_doc
    (fun doc ->
      let a = Dsi.Assign.assign ~key:"test-key" doc in
      Dsi.Assign.validate a = Ok ())

let assignment_containment_matches_ancestry =
  QCheck.Test.make ~name:"interval containment = tree ancestry" ~count:50
    Helpers.arbitrary_doc
    (fun doc ->
      let a = Dsi.Assign.assign ~key:"k" doc in
      let n = Doc.node_count doc in
      let ok = ref true in
      for x = 0 to min (n - 1) 40 do
        for y = 0 to min (n - 1) 40 do
          if x <> y then begin
            let c =
              Interval.contains (Dsi.Assign.interval a x) (Dsi.Assign.interval a y)
            in
            if c <> Doc.is_ancestor doc x y then ok := false
          end
        done
      done;
      !ok)

let assignment_key_dependent () =
  let doc = Workload.Health.doc () in
  let a1 = Dsi.Assign.assign ~key:"k1" doc in
  let a2 = Dsi.Assign.assign ~key:"k2" doc in
  let differs = ref false in
  Doc.iter doc (fun n ->
      if not (Interval.equal (Dsi.Assign.interval a1 n) (Dsi.Assign.interval a2 n))
      then differs := true);
  Alcotest.(check bool) "weights are keyed" true !differs;
  (* The root is always [0,1] though. *)
  Alcotest.(check bool) "root fixed" true
    (Interval.equal (Dsi.Assign.interval a1 0) (iv 0.0 1.0))

let assignment_figure3_bounds () =
  (* Spot-check the calInterval slot arithmetic: child i of a node with
     N children lies within slot [(2i-1)d - 0.5d, 2id + 0.5d]. *)
  let doc = Workload.Health.doc () in
  let a = Dsi.Assign.assign ~key:"k" doc in
  Doc.iter doc (fun p ->
      let children = Doc.children doc p in
      let count = List.length children in
      if count > 0 then begin
        let pi = Dsi.Assign.interval a p in
        let d = Interval.width pi /. float_of_int ((2 * count) + 1) in
        List.iteri
          (fun idx c ->
            let i = float_of_int (idx + 1) in
            let ci = Dsi.Assign.interval a c in
            let lo_min = pi.Interval.lo +. ((2.0 *. i -. 1.0) *. d) -. (0.5 *. d) in
            let hi_max = pi.Interval.lo +. (2.0 *. i *. d) +. (0.5 *. d) in
            if not (ci.Interval.lo > lo_min && ci.Interval.hi < hi_max) then
              Alcotest.failf "child %d of %d outside its slot" c p)
          children
      end)

(* --- Joins -------------------------------------------------------- *)

(* The server's joins run on the containment forest of a DSI universe:
   a node set is the universe positions of its intervals. *)
module Forest = Xmlcore.Forest

let universe_of intervals =
  let universe, _ = Dsi.Universe.index [| intervals |] in
  let forest = Dsi.Universe.forest universe in
  let set ivs =
    Forest.of_unsorted
      (Array.of_list (List.filter_map (Dsi.Universe.position universe) ivs))
  in
  forest, set

let doc_join_setup () =
  let doc = Workload.Health.doc () in
  let a = Dsi.Assign.assign ~key:"jk" doc in
  let of_nodes ns = List.map (Dsi.Assign.interval a) ns in
  let forest, set = universe_of (of_nodes (List.init (Doc.node_count doc) (fun i -> i))) in
  doc, a, (fun ns -> set (of_nodes ns)), forest

let count forest axis origins cands = Array.length (Forest.join forest axis origins cands)

let join_descendants () =
  let doc, _, set, forest = doc_join_setup () in
  let patients = set (Doc.nodes_with_tag doc "patient") in
  let diseases = set (Doc.nodes_with_tag doc "disease") in
  Alcotest.(check int) "diseases under patients" 4
    (count forest Forest.Descendant patients diseases);
  Alcotest.(check int) "patients with diseases" 2
    (count forest Forest.Ancestor diseases patients);
  Alcotest.(check int) "nothing above the root" 0
    (count forest Forest.Descendant diseases (set [ 0 ]))

let join_children () =
  let doc, _, set, forest = doc_join_setup () in
  let patients = set (Doc.nodes_with_tag doc "patient") in
  let diseases = set (Doc.nodes_with_tag doc "disease") in
  let treats = set (Doc.nodes_with_tag doc "treat") in
  Alcotest.(check int) "disease is child of treat" 4
    (count forest Forest.Child treats diseases);
  Alcotest.(check int) "disease is not child of patient" 0
    (count forest Forest.Child patients diseases);
  Alcotest.(check int) "treats with disease children" 4
    (count forest Forest.Parent diseases treats)

let join_matches_tree_prop =
  QCheck.Test.make ~name:"structural joins = tree navigation" ~count:50
    Helpers.arbitrary_doc
    (fun doc ->
      let a = Dsi.Assign.assign ~key:"prop" doc in
      let interval_of n = Dsi.Assign.interval a n in
      let forest, set = universe_of (List.init (Doc.node_count doc) interval_of) in
      let nodes tag = Xmlcore.Doc.nodes_with_tag doc tag in
      List.for_all
        (fun (anc_tag, desc_tag) ->
          let ancs = nodes anc_tag and descs = nodes desc_tag in
          let expected_desc =
            List.filter
              (fun d -> List.exists (fun p -> Doc.is_ancestor doc p d) ancs)
              descs
          in
          let expected_child =
            List.filter
              (fun d -> List.exists (fun p -> Doc.parent doc d = Some p) ancs)
              descs
          in
          let ancs = set (List.map interval_of ancs) and descs = set (List.map interval_of descs) in
          count forest Forest.Descendant ancs descs = List.length expected_desc
          && count forest Forest.Child ancs descs = List.length expected_child)
        [ "a", "b"; "b", "a"; "a", "item"; "item", "name"; "c", "d" ])

let join_grouped_hulls () =
  (* Grouped sibling hulls must still join correctly: the hull of two
     adjacent policy# leaves is a child of their insurance parent. *)
  let doc, a, _, _ = doc_join_setup () in
  let of_nodes ns = List.map (Dsi.Assign.interval a) ns in
  let insurances = of_nodes (Doc.nodes_with_tag doc "insurance") in
  (* Betty's insurance node has two policy# children. *)
  let betty_insurance =
    List.find
      (fun n -> List.length (Doc.children doc n) = 3 (* @coverage + 2 policy# *))
      (Doc.nodes_with_tag doc "insurance")
  in
  let policies =
    List.filter
      (fun n -> Doc.tag doc n = "policy#")
      (Doc.children doc betty_insurance)
  in
  let hull =
    match of_nodes policies with
    | [ p1; p2 ] -> Interval.hull p1 p2
    | _ -> Alcotest.fail "expected two policies"
  in
  (* The hull is not a node interval, but it must behave as a child of
     insurance in the grouped-universe world. *)
  let all_intervals = of_nodes (List.init (Doc.node_count doc) (fun i -> i)) in
  let forest, set =
    universe_of
      (hull
       :: List.filter
            (fun u -> not (List.exists (Interval.equal u) (of_nodes policies)))
            all_intervals)
  in
  Alcotest.(check int) "hull is child of insurance" 1
    (count forest Forest.Child (set insurances) (set [ hull ]))

(* The kernel against an O(n²) reference that reads each axis off the
   intervals themselves, over random laminar families: calInterval
   layouts of random documents, with runs of adjacent siblings grouped
   into their hull and, half the time, the root dropped so that several
   top-level intervals share the virtual parent. *)
let forest_axes =
  Forest.[ Child; Parent; Descendant; Ancestor; Following_sibling; Preceding_sibling;
           Following; Preceding ]

let random_subset rng n = Array.of_seq (Seq.filter (fun _ -> Crypto.Prng.bool rng) (Seq.init n Fun.id))

let kernel_agrees ~n ~related forest rng =
  List.for_all
    (fun self ->
      List.for_all
        (fun axis ->
          List.for_all
            (fun _ ->
              let origins = random_subset rng n and cands = random_subset rng n in
              let expected =
                Array.of_seq
                  (Seq.filter
                     (fun c ->
                       Array.exists (fun o -> (self && o = c) || related axis o c) origins)
                     (Array.to_seq cands))
              in
              Forest.join ~self forest axis origins cands = expected)
            [ 1; 2; 3 ])
        forest_axes)
    [ false; true ]

let laminar_family doc rng =
  let a = Dsi.Assign.assign ~key:"lam" doc in
  let iv = Dsi.Assign.interval a in
  let grouped = ref [] and hidden = ref [] in
  Doc.iter doc (fun p ->
      let rec runs = function
        | x :: y :: rest when Crypto.Prng.int rng 3 = 0 ->
          grouped := Interval.hull (iv x) (iv y) :: !grouped;
          hidden := x :: y :: !hidden;
          runs rest
        | _ :: rest -> runs rest
        | [] -> ()
      in
      runs (Doc.children doc p));
  let drop_root = Crypto.Prng.bool rng in
  !grouped
  @ List.filter_map
      (fun n -> if List.mem n !hidden || (drop_root && n = 0) then None else Some (iv n))
      (List.init (Doc.node_count doc) Fun.id)

let kernel_on_laminar_families =
  QCheck.Test.make ~name:"kernel = brute force on laminar families" ~count:300
    QCheck.(pair Helpers.arbitrary_doc small_nat)
    (fun (doc, seed) ->
      let rng = Crypto.Prng.create (Int64.of_int seed) in
      let index, _ = Dsi.Universe.index [| laminar_family doc rng |] in
      let forest = Dsi.Universe.forest index in
      let n = Dsi.Universe.size index in
      let universe = Array.init n (Dsi.Universe.interval index) in
      let container c =
        Array.fold_left
          (fun acc z ->
            if Interval.contains z universe.(c)
               && (match acc with None -> true | Some y -> Interval.contains y z)
            then Some z
            else acc)
          None universe
      in
      let same_container o c = Option.equal Interval.equal (container o) (container c) in
      let related axis o c =
        let uo = universe.(o) and uc = universe.(c) in
        match axis with
        | Forest.Descendant -> Interval.contains uo uc
        | Forest.Ancestor -> Interval.contains uc uo
        | Forest.Child -> Option.equal Interval.equal (container c) (Some uo)
        | Forest.Parent -> Option.equal Interval.equal (container o) (Some uc)
        | Forest.Following_sibling -> same_container o c && uo.Interval.hi < uc.Interval.lo
        | Forest.Preceding_sibling -> same_container o c && uc.Interval.hi < uo.Interval.lo
        | Forest.Following -> uo.Interval.hi < uc.Interval.lo
        | Forest.Preceding -> uc.Interval.hi < uo.Interval.lo
      in
      kernel_agrees ~n ~related forest rng)

let node_sets_sort =
  QCheck.Test.make ~name:"node sets: of_unsorted = sort_uniq" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      Array.to_list (Forest.of_unsorted (Array.of_list xs)) = List.sort_uniq Int.compare xs)

let kernel_on_docs =
  QCheck.Test.make ~name:"kernel = brute force on documents" ~count:300
    QCheck.(pair Helpers.arbitrary_doc small_nat)
    (fun (doc, seed) ->
      let rng = Crypto.Prng.create (Int64.of_int seed) in
      let siblings o c = Doc.parent doc o = Doc.parent doc c in
      let related axis o c =
        match axis with
        | Forest.Descendant -> Doc.is_ancestor doc o c
        | Forest.Ancestor -> Doc.is_ancestor doc c o
        | Forest.Child -> Doc.parent doc c = Some o
        | Forest.Parent -> Doc.parent doc o = Some c
        | Forest.Following_sibling -> siblings o c && o < c
        | Forest.Preceding_sibling -> siblings o c && c < o
        | Forest.Following -> c > o && not (Doc.is_ancestor doc o c)
        | Forest.Preceding -> c < o && not (Doc.is_ancestor doc c o)
      in
      kernel_agrees ~n:(Doc.node_count doc) ~related (Doc.forest doc) rng)

(* --- Continuous baseline (the index DSI replaces) ----------------- *)

let continuous_tiles_exactly () =
  let doc = Workload.Health.doc () in
  let c = Dsi.Continuous.assign doc in
  Doc.iter doc (fun p ->
      match Doc.children doc p with
      | [] -> ()
      | children ->
        let pi = Dsi.Continuous.interval c p in
        let widths =
          List.map (fun ch -> Interval.width (Dsi.Continuous.interval c ch)) children
        in
        (* Equal slots covering the parent exactly. *)
        let total = List.fold_left ( +. ) 0.0 widths in
        Alcotest.(check (float 1e-9)) "tiles parent" (Interval.width pi) total;
        List.iter
          (fun w ->
            Alcotest.(check (float 1e-9)) "equal slots"
              (Interval.width pi /. float_of_int (List.length children))
              w)
          widths)

let continuous_grouping_leaks () =
  let doc = Workload.Health.doc () in
  let c = Dsi.Continuous.assign doc in
  (* Group Betty's two policy# children under their insurance parent:
     with the continuous index the hull is detectably wider. *)
  let insurance =
    List.find
      (fun n -> List.length (Doc.children doc n) = 3)
      (Doc.nodes_with_tag doc "insurance")
  in
  let children = Doc.children doc insurance in
  let policies = List.filter (fun n -> Doc.tag doc n = "policy#") children in
  let others = List.filter (fun n -> Doc.tag doc n <> "policy#") children in
  let hull =
    List.fold_left
      (fun acc n -> Interval.hull acc (Dsi.Continuous.interval c n))
      (Dsi.Continuous.interval c (List.hd policies))
      policies
  in
  let visible = hull :: List.map (Dsi.Continuous.interval c) others in
  let parent = Dsi.Continuous.interval c insurance in
  Alcotest.(check bool) "continuous index leaks the grouping" true
    (Dsi.Continuous.grouping_leak ~parent ~child_intervals:visible);
  (* And the attacker counts the hidden members exactly. *)
  let narrowest = Dsi.Continuous.interval c (List.hd others) in
  Alcotest.(check int) "member count recovered" 2
    (Dsi.Continuous.hull_member_estimate ~narrowest ~hull);
  (* The DSI index shows no such signal: gaps make the tiling test fail
     before any width comparison can bite. *)
  let a = Dsi.Assign.assign ~key:"leak" doc in
  let dsi_hull =
    List.fold_left
      (fun acc n -> Interval.hull acc (Dsi.Assign.interval a n))
      (Dsi.Assign.interval a (List.hd policies))
      policies
  in
  let dsi_visible = dsi_hull :: List.map (Dsi.Assign.interval a) others in
  Alcotest.(check bool) "DSI does not leak" false
    (Dsi.Continuous.grouping_leak ~parent:(Dsi.Assign.interval a insurance)
       ~child_intervals:dsi_visible)

let () =
  Alcotest.run "dsi"
    [ ("interval", [ Alcotest.test_case "algebra" `Quick interval_basics ]);
      ( "assignment",
        [ Alcotest.test_case "key dependent" `Quick assignment_key_dependent;
          Alcotest.test_case "figure 3 slots" `Quick assignment_figure3_bounds ]
        @ List.map QCheck_alcotest.to_alcotest
            [ assignment_valid_prop; assignment_containment_matches_ancestry ] );
      ( "joins",
        [ Alcotest.test_case "descendant semi-joins" `Quick join_descendants;
          Alcotest.test_case "child semi-joins" `Quick join_children;
          Alcotest.test_case "grouped hulls" `Quick join_grouped_hulls ]
        @ List.map QCheck_alcotest.to_alcotest
            [ join_matches_tree_prop; kernel_on_laminar_families; kernel_on_docs;
              node_sets_sort ] );
      ( "continuous baseline",
        [ Alcotest.test_case "exact tiling" `Quick continuous_tiles_exactly;
          Alcotest.test_case "grouping leaks (paper 5.1.1)" `Quick
            continuous_grouping_leaks ] ) ]
