(* B-tree tests: invariants, range scans, duplicates. *)

let keys_of pairs = List.map fst pairs

(* The model every tree is checked against: the entries stably sorted
   by key, so equal keys keep their input order. *)
let sorted_model pairs = List.stable_sort (fun (a, _) (b, _) -> compare a b) pairs

let reference_range pairs ~lo ~hi =
  List.filter (fun (k, _) -> k >= lo && k <= hi) (sorted_model pairs)

let arbitrary_pairs =
  QCheck.(
    make
      ~print:(fun l ->
        String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%Ld:%d" k v) l))
      (Gen.list_size (Gen.int_range 0 400)
         (Gen.pair (Gen.map Int64.of_int (Gen.int_range 0 100)) Gen.nat)))

let validates_prop =
  QCheck.Test.make ~name:"invariants hold for random entries" ~count:200
    arbitrary_pairs
    (fun pairs -> Btree.validate (Btree.bulk_load ~min_degree:3 pairs) = Ok ())

let sorted_iteration_prop =
  QCheck.Test.make ~name:"iteration yields sorted keys" ~count:200 arbitrary_pairs
    (fun pairs ->
      let t = Btree.bulk_load ~min_degree:3 pairs in
      keys_of (Btree.to_list t) = List.sort compare (keys_of pairs))

let range_matches_reference_prop =
  QCheck.Test.make ~name:"range = filtered sorted list" ~count:200
    QCheck.(pair arbitrary_pairs (pair (int_bound 100) (int_bound 100)))
    (fun (pairs, (a, b)) ->
      let lo = Int64.of_int (min a b) and hi = Int64.of_int (max a b) in
      let t = Btree.bulk_load ~min_degree:3 pairs in
      Btree.range t ~lo ~hi = reference_range pairs ~lo ~hi)

let insertion_order_irrelevant_prop =
  QCheck.Test.make ~name:"insertion order does not change key sequence" ~count:100
    arbitrary_pairs
    (fun pairs ->
      let t1 = Btree.bulk_load ~min_degree:4 pairs in
      let t2 = Btree.bulk_load ~min_degree:4 (List.rev pairs) in
      keys_of (Btree.to_list t1) = keys_of (Btree.to_list t2))

let duplicates () =
  let t =
    Btree.bulk_load ~min_degree:2
      (List.map (fun v -> 7L, v) [ 1; 2; 3; 4; 5 ] @ [ 3L, 0; 9L, 9 ])
  in
  Alcotest.(check int) "length" 7 (Btree.length t);
  Alcotest.(check (list int)) "duplicates keep input order"
    [ 1; 2; 3; 4; 5 ] (List.map snd (Btree.range t ~lo:7L ~hi:7L));
  Alcotest.(check (list int)) "absent key" [] (List.map snd (Btree.range t ~lo:8L ~hi:8L))

let growth () =
  (* Height grows logarithmically; all leaves at one depth is part of
     validate, so just sanity-check the trend. *)
  Alcotest.(check int) "empty height" 1 (Btree.height (Btree.bulk_load ~min_degree:2 []));
  let t = Btree.bulk_load ~min_degree:2 (List.init 1000 (fun i -> Int64.of_int i, i)) in
  Alcotest.(check bool) "height sane" true
    (Btree.height t >= 4 && Btree.height t <= 12);
  Alcotest.(check bool) "node count sane" true (Btree.node_count t >= 100);
  (match Btree.validate t with
   | Ok () -> ()
   | Error e -> Alcotest.fail e)

let ascending_descending () =
  (* Sorted and reverse-sorted input, the classic worst cases. *)
  List.iter
    (fun order ->
      let t = Btree.bulk_load ~min_degree:3 (List.map (fun k -> Int64.of_int k, k) order) in
      (match Btree.validate t with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      Alcotest.(check int) "all present" 500 (Btree.length t))
    [ List.init 500 (fun i -> i); List.init 500 (fun i -> 499 - i) ]

let empty_range () =
  let t = Btree.bulk_load (List.map (fun k -> Int64.of_int k, k) [ 10; 20; 30 ]) in
  Alcotest.(check int) "gap range" 0 (List.length (Btree.range t ~lo:11L ~hi:19L));
  Alcotest.(check int) "inverted range" 0 (List.length (Btree.range t ~lo:30L ~hi:10L));
  Alcotest.(check int) "inclusive bounds" 2
    (List.length (Btree.range t ~lo:10L ~hi:20L))

(* --- Bulk loading -------------------------------------------------- *)

(* A second, independent model: the entries inserted one at a time into
   a sorted list, each after the entries with an equal key. *)
let rec insert_after_equal ((k, _) as entry) = function
  | ((k', _) as e) :: rest when k' <= k -> e :: insert_after_equal entry rest
  | rest -> entry :: rest

let bulk_load_matches_inserts_prop =
  QCheck.Test.make ~name:"bulk_load = repeated insert" ~count:300
    QCheck.(pair (int_range 2 6) arbitrary_pairs)
    (fun (degree, pairs) ->
      let loaded = Btree.bulk_load ~min_degree:degree pairs in
      Btree.validate loaded = Ok ()
      && Btree.to_list loaded
         = List.fold_left (fun acc e -> insert_after_equal e acc) [] pairs
      && Btree.length loaded = List.length pairs)

let bulk_load_sizes () =
  (* Edge sizes around node-capacity boundaries. *)
  List.iter
    (fun n ->
      let entries = List.init n (fun i -> Int64.of_int i, i) in
      let t = Btree.bulk_load ~min_degree:3 entries in
      (match Btree.validate t with
       | Ok () -> ()
       | Error e -> Alcotest.failf "n=%d: %s" n e);
      Alcotest.(check int) (Printf.sprintf "n=%d length" n) n (Btree.length t);
      Alcotest.(check (list int)) (Printf.sprintf "n=%d contents" n)
        (List.init n (fun i -> i))
        (List.map snd (Btree.to_list t)))
    [ 0; 1; 2; 4; 5; 6; 10; 11; 12; 25; 36; 100; 1000 ];
  let entries = List.init 500 (fun i -> Int64.of_int (i mod 50), i) in
  let t = Btree.bulk_load ~min_degree:4 entries in
  Alcotest.(check int) "duplicate-heavy range" 30
    (List.length (Btree.range t ~lo:10L ~hi:12L))

let duplicate_chunk_boundaries () =
  (* Duplicate runs longer than a node straddle leaf boundaries after a
     bulk load; point and span ranges must still see every copy, in
     input order, at every (degree, run-length) combination. *)
  List.iter
    (fun degree ->
      List.iter
        (fun run ->
          let entries =
            List.concat_map
              (fun k -> List.init run (fun i -> Int64.of_int k, (k * 1000) + i))
              [ 0; 1; 2; 3; 4 ]
          in
          let t = Btree.bulk_load ~min_degree:degree entries in
          (match Btree.validate t with
           | Ok () -> ()
           | Error e -> Alcotest.failf "degree=%d run=%d: %s" degree run e);
          Alcotest.(check (list int))
            (Printf.sprintf "degree=%d run=%d point range" degree run)
            (List.init run (fun i -> 2000 + i))
            (List.map snd (Btree.range t ~lo:2L ~hi:2L));
          Alcotest.(check int)
            (Printf.sprintf "degree=%d run=%d span range" degree run)
            (3 * run)
            (List.length (Btree.range t ~lo:1L ~hi:3L));
          Alcotest.(check bool)
            (Printf.sprintf "degree=%d run=%d full range = contents" degree run)
            true
            (Btree.range t ~lo:0L ~hi:4L = Btree.to_list t))
        [ 1; 2; 3; 5; 8; 17 ])
    [ 2; 3; 4 ]

let min_degree_guard () =
  Alcotest.check_raises "min_degree >= 2"
    (Invalid_argument "Btree.bulk_load: min_degree must be >= 2")
    (fun () -> ignore (Btree.bulk_load ~min_degree:1 []))

let () =
  Alcotest.run "btree"
    [ ( "unit",
        [ Alcotest.test_case "duplicates" `Quick duplicates;
          Alcotest.test_case "growth" `Quick growth;
          Alcotest.test_case "sorted insert orders" `Quick ascending_descending;
          Alcotest.test_case "empty ranges" `Quick empty_range;
          Alcotest.test_case "min_degree guard" `Quick min_degree_guard ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ validates_prop; sorted_iteration_prop; range_matches_reference_prop;
            insertion_order_irrelevant_prop ] );
      ( "bulk load",
        Alcotest.test_case "boundary sizes" `Quick bulk_load_sizes
        :: Alcotest.test_case "duplicate runs at chunk boundaries" `Quick
             duplicate_chunk_boundaries
        :: List.map QCheck_alcotest.to_alcotest [ bulk_load_matches_inserts_prop ] ) ]
