(* The domain pool's contract (Pool.map is observably Array.map:
   chunk coverage, deterministic merge and exception choice, nested
   calls, reusability after failure) and the system-level determinism
   it promises: hosting and evaluation are byte-identical with and
   without a pool, across schemes and after update/rotate. *)

module Pool = Parallel.Pool
module Doc = Xmlcore.Doc
module Printer = Xmlcore.Printer
module System = Secure.System
module Scheme = Secure.Scheme
module Encrypt = Secure.Encrypt

let with_pool ?(domains = 4) f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* --- Pool properties ------------------------------------------------ *)

let sizes = [ 0; 1; 2; 3; 7; 64; 1000 ]

let map_matches_sequential () =
  with_pool (fun pool ->
      List.iter
        (fun n ->
          let xs = Array.init n (fun i -> i) in
          let f x = (x * 7) mod 13 in
          Alcotest.(check (array int))
            (Printf.sprintf "map n=%d" n)
            (Array.map f xs) (Pool.map pool f xs))
        sizes)

let mapi_covers_every_index () =
  with_pool (fun pool ->
      List.iter
        (fun n ->
          (* Inputs are all zero, so the output IS the index each chunk
             claimed: any gap, overlap or misordering shows up here. *)
          let xs = Array.make n 0 in
          Alcotest.(check (array int))
            (Printf.sprintf "mapi n=%d" n)
            (Array.init n (fun i -> i))
            (Pool.mapi pool (fun i x -> i + x) xs))
        sizes)

let map_list_preserves_order () =
  with_pool (fun pool ->
      let xs = List.init 100 string_of_int in
      Alcotest.(check (list string)) "map_list" xs (Pool.map_list pool Fun.id xs))

let map_reduce_sums () =
  with_pool (fun pool ->
      List.iter
        (fun n ->
          let xs = Array.init n (fun i -> i + 1) in
          Alcotest.(check int)
            (Printf.sprintf "sum n=%d" n)
            (n * (n + 1) / 2)
            (Pool.map_reduce pool ~map:Fun.id ~combine:( + ) ~init:0 xs))
        sizes)

exception Boom of int

let exception_is_sequential_choice () =
  with_pool (fun pool ->
      let xs = Array.init 1000 (fun i -> i) in
      (match
         Pool.map pool (fun i -> if i = 37 || i = 503 then raise (Boom i) else i) xs
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        (* chunks are contiguous and merged by index, so the surviving
           exception is the one sequential execution would raise *)
        Alcotest.(check int) "lowest failing element wins" 37 i);
      (* every worker rejoined: the pool is still fully usable *)
      Alcotest.(check (array int)) "pool survives the exception"
        (Array.map succ xs) (Pool.map pool succ xs))

let nested_map_does_not_deadlock () =
  with_pool (fun pool ->
      let inner = Array.init 8 (fun j -> j) in
      let f i = Array.fold_left ( + ) 0 (Pool.map pool (fun j -> i + j) inner) in
      let xs = Array.init 64 (fun i -> i) in
      Alcotest.(check (array int)) "nested map" (Array.map f xs)
        (Pool.map pool f xs))

let degenerate_pools_run_sequentially () =
  let one = Pool.create ~domains:1 () in
  Alcotest.(check int) "size 1" 1 (Pool.size one);
  Alcotest.(check (array int)) "size-1 pool maps"
    [| 2; 3; 4 |]
    (Pool.map one succ [| 1; 2; 3 |]);
  Pool.shutdown one;
  with_pool (fun pool ->
      Pool.shutdown pool;
      Alcotest.(check (array int)) "map after shutdown degrades, not crashes"
        [| 2; 3; 4 |]
        (Pool.map pool succ [| 1; 2; 3 |]));
  Alcotest.(check bool) "recommended_domains is positive" true
    (Pool.recommended_domains () >= 1)

(* --- Pathological loads --------------------------------------------- *)

let zero_work_batches () =
  with_pool (fun pool ->
      (* Empty and all-trivial batches, interleaved and repeated: the
         chunker must neither divide by zero nor leave a worker parked. *)
      for _ = 1 to 50 do
        Alcotest.(check (array int)) "empty batch" [||] (Pool.map pool succ [||]);
        Alcotest.(check (array unit)) "unit batch" [| () |]
          (Pool.map pool ignore [| 0 |]);
        Alcotest.(check int) "empty reduce" 0
          (Pool.map_reduce pool ~map:Fun.id ~combine:( + ) ~init:0 [||])
      done;
      Alcotest.(check bool) "pool idle afterwards" false (Pool.busy pool))

let one_hog_does_not_starve_the_batch () =
  with_pool (fun pool ->
      (* One element burns vastly more work than the rest (a tenant
         hogging its lane).  Work-stealing must let the other workers
         drain every light chunk, and the merge must still be by index. *)
      let spin n =
        let acc = ref 0 in
        for i = 1 to n do
          acc := (!acc + i) mod 9973
        done;
        !acc
      in
      let xs = Array.init 256 (fun i -> if i = 17 then 2_000_000 else 10) in
      let expected = Array.map spin xs in
      Alcotest.(check (array int)) "hog batch merges by index" expected
        (Pool.map pool spin xs))

let failed_lane_does_not_poison_later_submissions () =
  with_pool (fun pool ->
      (* Alternate failing and clean batches many times: every failure
         surfaces as the sequential-choice exception, every following
         submission runs on a fully rejoined pool. *)
      let xs = Array.init 500 (fun i -> i) in
      for round = 1 to 10 do
        (match
           Pool.map pool (fun i -> if i mod 100 = 3 then raise (Boom i) else i) xs
         with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom i ->
          Alcotest.(check int)
            (Printf.sprintf "round %d raises the lowest index" round)
            3 i);
        Alcotest.(check (array int))
          (Printf.sprintf "round %d clean submission" round)
          (Array.map succ xs) (Pool.map pool succ xs)
      done)

let busy_is_advisory_and_accurate () =
  with_pool (fun pool ->
      Alcotest.(check bool) "idle pool not busy" false (Pool.busy pool);
      (* Observed from inside a running map, the pool reports busy: the
         serving tier keys its Overloaded backpressure off this. *)
      let seen = Pool.map pool (fun _ -> Pool.busy pool) [| 0; 1; 2; 3 |] in
      Alcotest.(check bool) "busy while mapping" true
        (Array.for_all Fun.id seen);
      Alcotest.(check bool) "idle again" false (Pool.busy pool))

(* --- Parallel/sequential determinism ------------------------------- *)

let serialize trees = List.map Printer.tree_to_string trees

let ciphertexts sys =
  List.map (fun b -> b.Encrypt.ciphertext) (System.db sys).Encrypt.blocks

let query_strings =
  [ "//patient"; "//patient/pname"; "//SSN";
    "//patient[age>=40]/pname"; "//treat[disease='leukemia']/doctor";
    "//patient[.//disease='diarrhea']/pname"; "//nonexistent" ]

let queries () = List.map Xpath.Parser.parse query_strings

let check_same_system label seq par =
  Alcotest.(check (list string))
    (label ^ ": ciphertext bytes")
    (ciphertexts seq) (ciphertexts par);
  Alcotest.(check string)
    (label ^ ": skeleton")
    (Printer.doc_to_string (System.db seq).Encrypt.skeleton)
    (Printer.doc_to_string (System.db par).Encrypt.skeleton);
  List.iter2
    (fun q qs ->
      let a_seq, c_seq = System.evaluate seq q in
      let a_par, c_par = System.evaluate par q in
      Alcotest.(check (list string))
        (label ^ ": answers " ^ qs)
        (serialize a_seq) (serialize a_par);
      Alcotest.(check int)
        (label ^ ": wire bytes " ^ qs)
        c_seq.System.transmit_bytes c_par.System.transmit_bytes;
      Alcotest.(check int)
        (label ^ ": blocks " ^ qs)
        c_seq.System.blocks_returned c_par.System.blocks_returned)
    (queries ()) query_strings

let hosting_is_deterministic_across_schemes () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  with_pool (fun pool ->
      List.iter
        (fun kind ->
          let seq, _ = System.setup doc scs kind in
          let par, _ = System.setup ~pool doc scs kind in
          check_same_system (Scheme.kind_to_string kind) seq par)
        Scheme.all_kinds)

let determinism_survives_update_and_rotate () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let edit =
    Secure.Update.Set_value
      (Xpath.Parser.parse "//patient[pname='Matt']/age", "41")
  in
  with_pool (fun pool ->
      let seq, _ = System.setup doc scs Scheme.Opt in
      let par, _ = System.setup ~pool doc scs Scheme.Opt in
      let seq, _ = System.update seq edit in
      let par, _ = System.update par edit in
      Alcotest.(check bool) "updated system keeps the pool" true
        (System.pool par <> None);
      check_same_system "after update" seq par;
      let seq, _ = System.rotate seq ~new_master:"rotated-master" in
      let par, _ = System.rotate par ~new_master:"rotated-master" in
      check_same_system "after rotate" seq par)

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "map = Array.map" `Quick map_matches_sequential;
          Alcotest.test_case "chunking covers all indices" `Quick
            mapi_covers_every_index;
          Alcotest.test_case "map_list order" `Quick map_list_preserves_order;
          Alcotest.test_case "map_reduce" `Quick map_reduce_sums;
          Alcotest.test_case "exceptions rejoin the pool" `Quick
            exception_is_sequential_choice;
          Alcotest.test_case "nested map no deadlock" `Quick
            nested_map_does_not_deadlock;
          Alcotest.test_case "degenerate pools" `Quick
            degenerate_pools_run_sequentially ] );
      ( "pathological",
        [ Alcotest.test_case "zero-work batches" `Quick zero_work_batches;
          Alcotest.test_case "one hog does not starve" `Quick
            one_hog_does_not_starve_the_batch;
          Alcotest.test_case "failed lane does not poison" `Quick
            failed_lane_does_not_poison_later_submissions;
          Alcotest.test_case "busy flag" `Quick busy_is_advisory_and_accurate ] );
      ( "determinism",
        [ Alcotest.test_case "hosting across schemes" `Quick
            hosting_is_deterministic_across_schemes;
          Alcotest.test_case "after update and rotate" `Quick
            determinism_survives_update_and_rotate ] ) ]
