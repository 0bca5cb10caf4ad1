(* Unit tests for the secure library's components: counting, SCs,
   constraint graph, vertex cover, schemes, encryption, OPESS,
   access patterns, metadata. *)

module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree
module Sc = Secure.Sc
module Counting = Secure.Counting

let health_doc () = Workload.Health.doc ()
let health_scs () = Workload.Health.constraints ()
let keys () = Crypto.Keys.create ~master:"test-master" ()

(* --- Counting (Theorems 4.1 / 5.1 / 5.2 numerology) -------------- *)

let counting_paper_examples () =
  (* Theorem 4.1's worked example: k1=3, k2=4, k3=5 gives 27720. *)
  Alcotest.(check (option int64)) "multinomial" (Some 27720L)
    (Counting.multinomial [ 3; 4; 5 ]);
  (* Theorems 5.1/5.2: n=15, k=5 gives C(14,4) = 1001. *)
  Alcotest.(check (option int64)) "compositions" (Some 1001L)
    (Counting.compositions_count ~n:15 ~k:5)

let counting_binomials () =
  Alcotest.(check (option int64)) "C(10,3)" (Some 120L) (Counting.binomial 10 3);
  Alcotest.(check (option int64)) "C(n,0)" (Some 1L) (Counting.binomial 7 0);
  Alcotest.(check (option int64)) "C(n,n)" (Some 1L) (Counting.binomial 7 7);
  Alcotest.(check (option int64)) "out of range" (Some 0L) (Counting.binomial 3 5);
  Alcotest.(check (option int64)) "overflow detected" None (Counting.binomial 200 100)

let counting_log_consistency =
  QCheck.Test.make ~name:"log and exact counts agree" ~count:200
    QCheck.(pair (int_range 1 40) (int_range 1 40))
    (fun (n, k) ->
      let k = min k n in
      match Counting.binomial n k with
      | Some exact ->
        let via_log = exp (Counting.log_binomial n k) in
        Float.abs (via_log -. Int64.to_float exact)
        <= 1e-6 *. Float.max 1.0 (Int64.to_float exact)
      | None -> true)

let counting_multinomial_symmetry =
  QCheck.Test.make ~name:"multinomial invariant under permutation" ~count:100
    QCheck.(small_list (int_range 1 8))
    (fun ks ->
      ks = []
      || Counting.multinomial ks = Counting.multinomial (List.rev ks))

(* --- Security constraints ---------------------------------------- *)

let sc_parsing () =
  (match Sc.parse "//insurance" with
   | Sc.Node_type _ -> ()
   | Sc.Association _ -> Alcotest.fail "expected node type");
  (match Sc.parse "//patient:(/pname, /SSN)" with
   | Sc.Association { q1; q2; _ } ->
     Alcotest.(check bool) "relative" true
       (not q1.Xpath.Ast.absolute && not q2.Xpath.Ast.absolute)
   | Sc.Node_type _ -> Alcotest.fail "expected association");
  Alcotest.check_raises "malformed"
    (Invalid_argument "Sc.parse: association must look like p:(q1, q2)")
    (fun () -> ignore (Sc.parse "//a:(b"));
  Alcotest.(check string) "to_string roundtrips"
    "//patient:(pname, //disease)"
    (Sc.to_string (Sc.parse "//patient:(/pname, //disease)"))

let sc_bindings () =
  let doc = health_doc () in
  Alcotest.(check int) "insurance bindings" 3
    (List.length (Sc.bindings doc (Sc.parse "//insurance")));
  Alcotest.(check int) "patient bindings" 2
    (List.length (Sc.bindings doc (Sc.parse "//patient:(/pname, /SSN)")))

let sc_captured_queries () =
  let doc = health_doc () in
  let sc = Sc.parse "//patient:(/pname, //disease)" in
  let captured = Sc.captured_queries doc sc in
  (* Betty x {diarrhea, flu} + Matt x {leukemia, diarrhea} = 4. *)
  Alcotest.(check int) "captured count" 4 (List.length captured);
  (* Every captured query holds in D (that is their defining property). *)
  List.iter
    (fun { Sc.query; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "D |= %s" (Xpath.Ast.to_string query))
        true (Xpath.Eval.matches doc query))
    captured;
  let pairs = Sc.sensitive_value_pairs doc sc in
  Alcotest.(check bool) "Betty-diarrhea pair" true
    (List.mem ("Betty", "diarrhea") pairs);
  Alcotest.(check bool) "no Betty-leukemia pair" false
    (List.mem ("Betty", "leukemia") pairs)

(* --- Vertex cover ------------------------------------------------- *)

let vc_graph weights edges = { Secure.Vertex_cover.weights; edges }

let vertex_cover_exact () =
  (* Path x - y - z: cheap middle vertex wins. *)
  let g = vc_graph [ "x", 1.0; "y", 1.5; "z", 1.0 ] [ "x", "y"; "y", "z" ] in
  Alcotest.(check (list string)) "middle" [ "y" ] (Secure.Vertex_cover.exact g);
  (* Expensive middle: endpoints win. *)
  let g = vc_graph [ "x", 1.0; "y", 2.5; "z", 1.0 ] [ "x", "y"; "y", "z" ] in
  Alcotest.(check (list string)) "endpoints" [ "x"; "z" ] (Secure.Vertex_cover.exact g);
  (* Self loop forces its vertex. *)
  let g = vc_graph [ "x", 5.0; "y", 1.0 ] [ "x", "x"; "x", "y" ] in
  Alcotest.(check (list string)) "self loop" [ "x" ] (Secure.Vertex_cover.exact g)

(* Brute-force minimum-weight cover over all subsets. *)
let brute_force_cover g =
  let vertices = List.map fst g.Secure.Vertex_cover.weights in
  let n = List.length vertices in
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let subset = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) vertices in
    if Secure.Vertex_cover.is_cover g subset then
      best := Float.min !best (Secure.Vertex_cover.cover_weight g subset)
  done;
  !best

let random_graph_gen =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    let vertices = List.init n (fun i -> Printf.sprintf "v%d" i) in
    let* weights =
      flatten_l (List.map (fun v -> map (fun w -> v, float_of_int (1 + w)) (int_bound 9)) vertices)
    in
    let* edge_count = int_range 1 12 in
    let* edges =
      flatten_l
        (List.init edge_count (fun _ ->
             let* a = int_bound (n - 1) in
             let* b = int_bound (n - 1) in
             return (Printf.sprintf "v%d" a, Printf.sprintf "v%d" b)))
    in
    return { Secure.Vertex_cover.weights; edges })

let arbitrary_graph =
  QCheck.make
    ~print:(fun g ->
      String.concat ","
        (List.map (fun (a, b) -> Printf.sprintf "%s-%s" a b) g.Secure.Vertex_cover.edges))
    random_graph_gen

let exact_is_optimal_prop =
  QCheck.Test.make ~name:"exact cover = brute force optimum" ~count:200
    arbitrary_graph
    (fun g ->
      let cover = Secure.Vertex_cover.exact g in
      Secure.Vertex_cover.is_cover g cover
      && Float.abs (Secure.Vertex_cover.cover_weight g cover -. brute_force_cover g)
         < 1e-9)

let greedy_within_factor_two_prop =
  QCheck.Test.make ~name:"Clarkson greedy is a cover within 2x optimal" ~count:200
    arbitrary_graph
    (fun g ->
      let cover = Secure.Vertex_cover.clarkson_greedy g in
      Secure.Vertex_cover.is_cover g cover
      && Secure.Vertex_cover.cover_weight g cover
         <= (2.0 *. brute_force_cover g) +. 1e-9)

(* --- Constraint graph --------------------------------------------- *)

let constraint_graph_shape () =
  let doc = health_doc () in
  let cg = Secure.Constraint_graph.build doc (health_scs ()) in
  let tags = List.map fst cg.Secure.Constraint_graph.graph.Secure.Vertex_cover.weights in
  Alcotest.(check (list string)) "vertices"
    [ "SSN"; "disease"; "doctor"; "pname" ]
    (List.sort String.compare tags);
  Alcotest.(check int) "edges" 3
    (List.length cg.Secure.Constraint_graph.graph.Secure.Vertex_cover.edges);
  Alcotest.(check int) "mandatory = insurance nodes" 3
    (List.length cg.Secure.Constraint_graph.mandatory);
  (* pname weight: 2 leaf nodes, subtree 1 + decoy 1 each = 4. *)
  Alcotest.(check (float 1e-9)) "pname weight" 4.0
    (List.assoc "pname" cg.Secure.Constraint_graph.graph.Secure.Vertex_cover.weights)

(* --- Schemes ------------------------------------------------------ *)

let scheme_construction () =
  let doc = health_doc () in
  let scs = health_scs () in
  let opt = Secure.Scheme.build doc scs Secure.Scheme.Opt in
  Alcotest.(check int) "opt size (3 insurance + cheapest cover)" 22
    (Secure.Scheme.size doc opt);
  let top = Secure.Scheme.build doc scs Secure.Scheme.Top in
  Alcotest.(check int) "top is whole doc" (Doc.node_count doc)
    (Secure.Scheme.size doc top);
  Alcotest.(check int) "top single block" 1 (Secure.Scheme.block_count top);
  let sub = Secure.Scheme.build doc scs Secure.Scheme.Sub in
  Alcotest.(check bool) "sub coarser than opt" true
    (Secure.Scheme.block_count sub < Secure.Scheme.block_count opt);
  List.iter
    (fun kind ->
      let s = Secure.Scheme.build doc scs kind in
      match Secure.Scheme.enforces doc s scs with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s does not enforce: %s" (Secure.Scheme.kind_to_string kind) e)
    Secure.Scheme.all_kinds

let scheme_no_nested_blocks =
  QCheck.Test.make ~name:"block roots are never nested" ~count:50
    Helpers.arbitrary_doc
    (fun doc ->
      (* Improvised SCs over the random tag pool. *)
      let scs = [ Sc.parse "//a"; Sc.parse "//item:(/name, /price)" ] in
      List.for_all
        (fun kind ->
          let s = Secure.Scheme.build doc scs kind in
          let roots = s.Secure.Scheme.block_roots in
          List.for_all
            (fun r ->
              List.for_all
                (fun r' -> r = r' || not (Doc.is_ancestor doc r r'))
                roots)
            roots)
        Secure.Scheme.all_kinds)

let broken_scheme_detected () =
  let doc = health_doc () in
  let scs = health_scs () in
  (* A scheme that encrypts nothing cannot enforce the SCs. *)
  let broken = { Secure.Scheme.kind = Secure.Scheme.Opt; block_roots = []; covered_tags = [] } in
  (match Secure.Scheme.enforces doc broken scs with
   | Ok () -> Alcotest.fail "empty scheme must not enforce"
   | Error _ -> ())

(* --- Encryption --------------------------------------------------- *)

let encrypt_roundtrip () =
  let doc = health_doc () in
  let scs = health_scs () in
  let keys = keys () in
  let scheme = Secure.Scheme.build doc scs Secure.Scheme.Opt in
  let db = Secure.Encrypt.encrypt ~keys doc scheme in
  Alcotest.(check int) "block count matches scheme" (Secure.Scheme.block_count scheme)
    (List.length db.Secure.Encrypt.blocks);
  List.iter
    (fun b ->
      let block = Secure.Encrypt.decrypt_block ~keys b in
      Alcotest.(check bool)
        (Printf.sprintf "block %d decrypts to its subtree" b.Secure.Encrypt.id)
        true
        (Tree.equal (Doc.to_tree block) (Doc.subtree doc b.Secure.Encrypt.root)))
    db.Secure.Encrypt.blocks

(* The client derives every hosted block's IV once, at creation; a
   block must decrypt through that table exactly as through an IV
   derived per call, and as through the cipher's own nonce path (which
   derives the IV from the nonce string, independently of
   [Keys.block_iv]) — under both cipher suites. *)
let iv_table_agrees () =
  List.iter
    (fun cipher ->
      let suite = Crypto.Cipher.suite_to_string cipher in
      let sys, _ =
        Secure.System.setup ~cipher (health_doc ()) (health_scs ()) Secure.Scheme.Opt
      in
      let client = Secure.System.client sys in
      let keys = Secure.Client.keys client in
      let doc = Secure.System.doc sys in
      let blocks = (Secure.System.db sys).Secure.Encrypt.blocks in
      Alcotest.(check bool) (suite ^ ": blocks hosted") true (List.length blocks > 3);
      List.iter
        (fun b ->
          let id = b.Secure.Encrypt.id in
          (* the ciphertext minus its 16-byte tag *)
          let body = String.length b.Secure.Encrypt.ciphertext - 16 in
          let via_nonce =
            Crypto.Cipher.decrypt (Crypto.Keys.block_cipher keys)
              ~nonce:(Crypto.Keys.block_nonce keys ~generation:b.Secure.Encrypt.generation ~block_id:id ())
              ~len:body b.Secure.Encrypt.ciphertext
          in
          let via_nonce =
            if b.Secure.Encrypt.has_decoy then
              Xmlcore.Parser.parse_doc ~drop:Secure.Encrypt.decoy_attribute via_nonce
            else Xmlcore.Parser.parse_doc via_nonce
          in
          let expected = Doc.subtree doc b.Secure.Encrypt.root in
          List.iter
            (fun (path, got) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: block %d through %s" suite id path)
                true
                (Tree.equal expected (Doc.to_tree got)))
            [ "the IV table", Secure.Client.decrypt_block client b;
              "a per-call IV", Secure.Encrypt.decrypt_block ~keys b;
              "the nonce", via_nonce ])
        blocks)
    [ Crypto.Cipher.Xtea; Crypto.Cipher.Aes ]

let encrypt_decoys_diversify () =
  let doc = health_doc () in
  let keys = keys () in
  (* Encrypt the two 'diarrhea' disease leaves: ciphertexts and decoys
     must differ even though plaintext values coincide. *)
  let diseases =
    List.filter (fun n -> Doc.value doc n = Some "diarrhea") (Doc.nodes_with_tag doc "disease")
  in
  let scheme =
    { Secure.Scheme.kind = Secure.Scheme.Opt; block_roots = diseases; covered_tags = [] }
  in
  let db = Secure.Encrypt.encrypt ~keys doc scheme in
  (match db.Secure.Encrypt.blocks with
   | [ b1; b2 ] ->
     Alcotest.(check bool) "decoys applied" true
       (b1.Secure.Encrypt.has_decoy && b2.Secure.Encrypt.has_decoy);
     Alcotest.(check bool) "distinct ciphertexts" false
       (b1.Secure.Encrypt.ciphertext = b2.Secure.Encrypt.ciphertext);
     (* Decoy stripped on decryption. *)
     Alcotest.(check bool) "decoy removed" true
       (Tree.equal
          (Doc.to_tree (Secure.Encrypt.decrypt_block ~keys b1))
          (Tree.leaf "disease" "diarrhea"))
   | _ -> Alcotest.fail "expected two blocks")

let encrypt_skeleton () =
  let doc = health_doc () in
  let scs = health_scs () in
  let db =
    Secure.Encrypt.encrypt ~keys:(keys ()) doc
      (Secure.Scheme.build doc scs Secure.Scheme.Opt)
  in
  let skeleton_str = Xmlcore.Printer.doc_to_string db.Secure.Encrypt.skeleton in
  let contains_substring haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
    at 0
  in
  (* The sensitive values are gone from the public part. *)
  List.iter
    (fun secret ->
      Alcotest.(check bool) (secret ^ " hidden") false
        (contains_substring skeleton_str secret))
    [ "Betty"; "Matt"; "diarrhea"; "leukemia"; "34221" ];
  Alcotest.(check bool) "placeholders present" true
    (contains_substring skeleton_str "<_enc_block_")

let tampered_blocks_rejected () =
  let doc = health_doc () in
  let keys = keys () in
  let scheme = Secure.Scheme.build doc (health_scs ()) Secure.Scheme.Opt in
  let db = Secure.Encrypt.encrypt ~keys doc scheme in
  let block = List.hd db.Secure.Encrypt.blocks in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Bytes.to_string b
  in
  let expect_tampered label b =
    match Secure.Encrypt.decrypt_block ~keys b with
    | _ -> Alcotest.failf "%s: tampering not detected" label
    | exception Secure.Encrypt.Tampered id ->
      Alcotest.(check int) "right block blamed" b.Secure.Encrypt.id id
  in
  (* Flip a ciphertext byte. *)
  expect_tampered "body flip"
    { block with
      Secure.Encrypt.ciphertext = flip block.Secure.Encrypt.ciphertext 3 };
  (* Flip a tag byte. *)
  expect_tampered "tag flip"
    { block with
      Secure.Encrypt.ciphertext =
        flip block.Secure.Encrypt.ciphertext
          (String.length block.Secure.Encrypt.ciphertext - 1) };
  (* Swap two blocks' ciphertexts: the id binding catches it. *)
  (match db.Secure.Encrypt.blocks with
   | b1 :: b2 :: _ ->
     expect_tampered "block swap"
       { b1 with Secure.Encrypt.ciphertext = b2.Secure.Encrypt.ciphertext }
   | _ -> Alcotest.fail "expected at least two blocks");
  (* Truncation. *)
  expect_tampered "truncation" { block with Secure.Encrypt.ciphertext = "xy" }

let encrypted_tags_partition () =
  let doc = health_doc () in
  let scs = health_scs () in
  let db =
    Secure.Encrypt.encrypt ~keys:(keys ()) doc
      (Secure.Scheme.build doc scs Secure.Scheme.Opt)
  in
  Alcotest.(check bool) "insurance tag encrypted" true
    (List.mem "insurance" db.Secure.Encrypt.encrypted_tags);
  Alcotest.(check bool) "patient tag plaintext" true
    (List.mem "patient" db.Secure.Encrypt.plaintext_tags);
  Alcotest.(check bool) "patient not in encrypted set" false
    (List.mem "patient" db.Secure.Encrypt.encrypted_tags)

(* --- OPESS -------------------------------------------------------- *)

let opess_build tag histogram =
  Secure.Opess.build ~key:("opess-" ^ tag) ~attr_id:3 ~tag histogram

let opess_figure6 () =
  (* Figure 6's input: a skewed distribution. *)
  let histogram =
    [ "1001", 21; "932", 8; "23", 26; "77", 7; "90", 34; "12", 14 ]
  in
  let cat = opess_build "val" histogram in
  let m = Secure.Opess.chunk_parameter cat in
  Alcotest.(check bool) "m chosen sensibly" true (m >= 2);
  (* Every ciphertext frequency lies in {m-1, m, m+1} (no singletons here). *)
  List.iter
    (fun (_, count) ->
      Alcotest.(check bool)
        (Printf.sprintf "chunk size %d in band around %d" count m)
        true
        (count = m - 1 || count = m || count = m + 1))
    (Secure.Opess.ciphertext_histogram cat);
  (* Counts are preserved: sum of chunks = original frequency. *)
  List.iter
    (fun entry ->
      Alcotest.(check int)
        (entry.Secure.Opess.value ^ " count preserved")
        entry.Secure.Opess.count
        (List.fold_left
           (fun acc c -> acc + c.Secure.Opess.occurrences)
           0 entry.Secure.Opess.chunks))
    (Secure.Opess.entries cat)

let opess_no_straddle () =
  let histogram = [ "10", 13; "12", 5; "23", 26; "40", 9 ] in
  let cat = opess_build "num" histogram in
  (* Chunks of consecutive values must not interleave. *)
  let rec check = function
    | e1 :: (e2 :: _ as rest) ->
      let max1 =
        List.fold_left (fun acc c -> max acc c.Secure.Opess.cipher) Int64.min_int
          e1.Secure.Opess.chunks
      in
      let min2 =
        List.fold_left (fun acc c -> min acc c.Secure.Opess.cipher) Int64.max_int
          e2.Secure.Opess.chunks
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s < %s" e1.Secure.Opess.value e2.Secure.Opess.value)
        true (max1 < min2);
      check rest
    | [ _ ] | [] -> ()
  in
  check (Secure.Opess.entries cat)

let opess_translate_soundness () =
  let histogram = [ "10", 13; "12", 5; "23", 26; "40", 9 ] in
  let cat = opess_build "num" histogram in
  let covered op lit value =
    let ranges = Secure.Opess.translate cat op lit in
    match Secure.Opess.find_entry cat value with
    | None -> false
    | Some e ->
      List.for_all
        (fun c ->
          List.exists (fun (lo, hi) -> c.Secure.Opess.cipher >= lo && c.Secure.Opess.cipher <= hi)
            ranges)
        e.Secure.Opess.chunks
  in
  let not_covered op lit value =
    let ranges = Secure.Opess.translate cat op lit in
    match Secure.Opess.find_entry cat value with
    | None -> true
    | Some e ->
      List.for_all
        (fun c ->
          not
            (List.exists
               (fun (lo, hi) -> c.Secure.Opess.cipher >= lo && c.Secure.Opess.cipher <= hi)
               ranges))
        e.Secure.Opess.chunks
  in
  Alcotest.(check bool) "eq covers all chunks of 23" true (covered Xpath.Ast.Eq "23" "23");
  Alcotest.(check bool) "eq excludes 40" true (not_covered Xpath.Ast.Eq "23" "40");
  Alcotest.(check bool) "ge 12 covers 23" true (covered Xpath.Ast.Ge "12" "23");
  Alcotest.(check bool) "ge 12 covers 12" true (covered Xpath.Ast.Ge "12" "12");
  Alcotest.(check bool) "ge 12 excludes 10" true (not_covered Xpath.Ast.Ge "12" "10");
  Alcotest.(check bool) "lt 23 covers 10" true (covered Xpath.Ast.Lt "23" "10");
  Alcotest.(check bool) "lt 23 excludes 40" true (not_covered Xpath.Ast.Lt "23" "40");
  Alcotest.(check bool) "neq excludes 12" true (not_covered Xpath.Ast.Neq "12" "12");
  Alcotest.(check bool) "neq covers others" true
    (covered Xpath.Ast.Neq "12" "10" && covered Xpath.Ast.Neq "12" "40");
  Alcotest.(check (list (pair int64 int64))) "eq on absent value" []
    (Secure.Opess.translate cat Xpath.Ast.Eq "17")

let opess_properties =
  QCheck.Test.make ~name:"opess invariants on random histograms" ~count:100
    QCheck.(small_list (pair (int_range 0 500) (int_range 1 60)))
    (fun raw ->
      (* Distinct values with positive counts. *)
      let histogram =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) raw
        |> List.map (fun (v, c) -> string_of_int v, c)
      in
      histogram = []
      ||
      let cat = opess_build "prop" histogram in
      let m = Secure.Opess.chunk_parameter cat in
      (* (1) counts preserved, (2) chunk sizes in band (or singleton),
         (3) no straddling, (4) ciphers strictly increasing within an
         entry. *)
      let entries = Secure.Opess.entries cat in
      let counts_ok =
        List.for_all
          (fun e ->
            e.Secure.Opess.count
            = List.fold_left (fun a c -> a + c.Secure.Opess.occurrences) 0
                e.Secure.Opess.chunks)
          entries
      in
      let sizes_ok =
        List.for_all
          (fun e ->
            List.for_all
              (fun c ->
                let n = c.Secure.Opess.occurrences in
                n = 1 || n = m - 1 || n = m || n = m + 1)
              e.Secure.Opess.chunks)
          entries
      in
      let rec no_straddle = function
        | e1 :: (e2 :: _ as rest) ->
          let max1 =
            List.fold_left (fun a c -> max a c.Secure.Opess.cipher) Int64.min_int
              e1.Secure.Opess.chunks
          in
          let min2 =
            List.fold_left (fun a c -> min a c.Secure.Opess.cipher) Int64.max_int
              e2.Secure.Opess.chunks
          in
          max1 < min2 && no_straddle rest
        | [ _ ] | [] -> true
      in
      counts_ok && sizes_ok && no_straddle entries)

let opess_scaling () =
  let histogram = [ "a", 10; "b", 20; "c", 5 ] in
  let cat = opess_build "cat" histogram in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Secure.Opess.value ^ " scale in [1,10]")
        true
        (e.Secure.Opess.scale >= 1 && e.Secure.Opess.scale <= 10))
    (Secure.Opess.entries cat);
  (* Scaled histogram totals = chunk totals x per-value scale. *)
  let scaled_total =
    List.fold_left (fun a (_, c) -> a + c) 0 (Secure.Opess.scaled_histogram cat)
  in
  let expected =
    List.fold_left
      (fun a e -> a + (e.Secure.Opess.count * e.Secure.Opess.scale))
      0 (Secure.Opess.entries cat)
  in
  Alcotest.(check int) "scaled totals" expected scaled_total

let opess_negative_numbers () =
  (* Numeric domains may include negatives (temperatures, deltas). *)
  let histogram = [ "-40", 9; "-7", 13; "0", 5; "12", 21 ] in
  let cat = opess_build "temp" histogram in
  Alcotest.(check (list string)) "numeric order with negatives"
    [ "-40"; "-7"; "0"; "12" ]
    (List.map (fun e -> e.Secure.Opess.value) (Secure.Opess.entries cat));
  (* Range semantics across zero. *)
  let ranges = Secure.Opess.translate cat Xpath.Ast.Lt "0" in
  let covered v =
    match Secure.Opess.find_entry cat v with
    | None -> false
    | Some e ->
      List.for_all
        (fun c ->
          List.exists
            (fun (lo, hi) -> c.Secure.Opess.cipher >= lo && c.Secure.Opess.cipher <= hi)
            ranges)
        e.Secure.Opess.chunks
  in
  Alcotest.(check bool) "-40 < 0" true (covered "-40");
  Alcotest.(check bool) "-7 < 0" true (covered "-7");
  Alcotest.(check bool) "0 not < 0" false (covered "0");
  Alcotest.(check bool) "12 not < 0" false (covered "12")

(* Numbers off the number line: not finite, or spread past float range.
   Their attribute is ranked instead of positioned by value, and an
   equality range still covers each value's chunks. *)
let opess_non_finite () =
  List.iter
    (fun histogram ->
      let cat = opess_build "odd" histogram in
      List.iter
        (fun (v, _) ->
          let ranges = Secure.Opess.translate cat Xpath.Ast.Eq v in
          match Secure.Opess.find_entry cat v with
          | None -> Alcotest.failf "%s has no entry" v
          | Some e ->
            Alcotest.(check bool) (v ^ " found by equality") true
              (List.for_all
                 (fun c ->
                   List.exists
                     (fun (lo, hi) -> c.Secure.Opess.cipher >= lo && c.Secure.Opess.cipher <= hi)
                     ranges)
                 e.Secure.Opess.chunks))
        histogram)
    [ [ "nan", 1 ]; [ "inf", 2 ]; [ "1", 3; "nan", 2 ]; [ "1.7e308", 1; "-1.7e308", 1 ] ]

(* Such values in a hosted document: hosting succeeds, and equality and
   range queries on the attribute answer as on the plaintext. *)
let odd_queries =
  List.map Xpath.Parser.parse
    [ "//patient[age='nan']/pname"; "//patient[age='inf']/pname";
      "//patient[age>=40]/pname"; "//patient[age<30]/pname"; "//patient[remark='nan']/pname" ]

let answers_like_reference sys =
  List.iter
    (fun q ->
      Helpers.check_trees_equal (Xpath.Ast.to_string q) (Secure.System.reference sys q)
        (fst (Secure.System.evaluate sys q)))
    odd_queries

let non_finite_values_host () =
  let count = ref 0 in
  let rec odd = function
    | Xmlcore.Tree.Element ("age", [ Xmlcore.Tree.Text _ ]) when !count < 2 ->
      incr count;
      Xmlcore.Tree.leaf "age" (if !count = 1 then "nan" else "inf")
    | Xmlcore.Tree.Element (tag, children) -> Xmlcore.Tree.element tag (List.map odd children)
    | Xmlcore.Tree.Text _ as t -> t
  in
  let doc = Xmlcore.Doc.of_tree (odd (Xmlcore.Doc.to_tree (Workload.Health.generate ~patients:12 ()))) in
  List.iter
    (fun kind ->
      let sys, _ = Secure.System.setup ~master:"odd" doc (health_scs ()) kind in
      answers_like_reference sys)
    Secure.Scheme.all_kinds

let non_finite_value_delta () =
  let doc = Workload.Health.generate ~patients:30 () in
  let sys, _ = Secure.System.setup ~master:"odd" doc (health_scs ()) Secure.Scheme.Opt in
  let next, _ =
    Secure.System.apply_delta sys
      (Secure.Update.Insert_child
         { parent = Xpath.Parser.parse "//patient";
           position = 0;
           subtree = Xmlcore.Tree.leaf "remark" "nan" })
  in
  answers_like_reference next;
  let fresh, _ =
    Secure.System.setup ~master:"odd" (Secure.System.doc next) (health_scs ()) Secure.Scheme.Opt
  in
  List.iter
    (fun q ->
      Helpers.check_trees_equal (Xpath.Ast.to_string q) (fst (Secure.System.evaluate fresh q))
        (fst (Secure.System.evaluate next q)))
    odd_queries

let opess_categorical () =
  let histogram = [ "apple", 7; "banana", 3; "cherry", 9 ] in
  let cat = opess_build "fruit" histogram in
  (* Ordering is lexicographic for categorical domains. *)
  Alcotest.(check (list string)) "sorted domain" [ "apple"; "banana"; "cherry" ]
    (List.map (fun e -> e.Secure.Opess.value) (Secure.Opess.entries cat));
  Alcotest.(check bool) "range query across strings" true
    (Secure.Opess.translate cat Xpath.Ast.Ge "banana" <> [])

let opess_occurrence_cipher () =
  let histogram = [ "v", 10 ] in
  let cat = opess_build "occ" histogram in
  (* All 10 occurrences map to some chunk cipher; chunk fill is
     left-to-right, so ciphers are non-decreasing in occurrence. *)
  let ciphers =
    List.init 10 (fun i -> Secure.Opess.occurrence_cipher cat ~value:"v" ~occurrence:i)
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone fill" true (non_decreasing ciphers);
  Alcotest.check_raises "occurrence out of range" Not_found (fun () ->
      ignore (Secure.Opess.occurrence_cipher cat ~value:"v" ~occurrence:10));
  Alcotest.check_raises "unknown value" Not_found (fun () ->
      ignore (Secure.Opess.occurrence_cipher cat ~value:"w" ~occurrence:0))

(* What the server indexes is a function of these three; a patched
   catalog that agrees on them is indistinguishable from a fresh one. *)
let same_catalog a b =
  Secure.Opess.entries a = Secure.Opess.entries b
  && Secure.Opess.chunk_parameter a = Secure.Opess.chunk_parameter b
  && Secure.Opess.key_count a = Secure.Opess.key_count b

(* One single-edit histogram transition per case, and back: a random
   numeric or categorical histogram, then one of six edits — an
   occurrence moved to a new value, a value added, a value removed, a
   count bumped, a new minimum, a new maximum.  Fresh values are derived from existing ones
   ("12" -> "12.5", "k012" -> "k012m") so they land between neighbours. *)
let opess_patch_equals_build =
  QCheck.Test.make ~name:"opess patch after one edit = fresh build" ~count:300
    QCheck.(
      quad bool
        (list_of_size Gen.(1 -- 40) (pair (int_range 0 500) (int_range 1 60)))
        (int_range 0 5)
        (pair small_nat (int_range 1 60)))
    (fun (numeric, raw, edit, (pick, count)) ->
      let render v = if numeric then string_of_int v else Printf.sprintf "k%03d" v in
      let by_value (a, _) (b, _) = String.compare a b in
      let histogram =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) raw
        |> List.map (fun (v, c) -> render v, c)
        |> List.sort by_value
      in
      let n = List.length histogram in
      let v_i, c_i = List.nth histogram (pick mod n) in
      let fresh_near v = if numeric then v ^ ".5" else v ^ "m" in
      let without v = List.filter (fun (w, _) -> not (String.equal v w)) histogram in
      let edited =
        match edit with
        | 0 ->
          let target, _ = List.nth histogram ((pick + count) mod n) in
          let rest = if c_i > 1 then (v_i, c_i - 1) :: without v_i else without v_i in
          (fresh_near target, 1) :: rest
        | 1 -> (fresh_near v_i, count) :: histogram
        | 2 -> without v_i
        | 3 -> (v_i, c_i + 1) :: without v_i
        | 4 -> ((if numeric then string_of_int (-1 - pick) else "a"), count) :: histogram
        | _ -> ((if numeric then string_of_int (1000 + pick) else "z"), count) :: histogram
      in
      let edited = List.sort by_value edited in
      let key = "opess-patch" in
      let build h = Secure.Opess.build ~key ~attr_id:9 ~tag:"p" h in
      let patched = Secure.Opess.patch ~key (build histogram) edited in
      (* Patching back reuses the layout the first patch kept. *)
      same_catalog patched (build edited)
      && same_catalog (Secure.Opess.patch ~key patched histogram) (build histogram))

let opess_patch_unchanged_is_identity () =
  (* The histogram arrives sorted by string; a numeric catalog is in
     numeric order, and for these values the two orders differ. *)
  List.iter
    (fun histogram ->
      let key = "opess-same" in
      let cat = Secure.Opess.build ~key ~attr_id:2 ~tag:"coverage" histogram in
      Alcotest.(check bool)
        (String.concat "," (List.map fst histogram) ^ " reused as-is")
        true
        (Secure.Opess.patch ~key cat histogram == cat))
    [ [ "10000", 4; "1000000", 2; "5000", 7 ]; [ "apple", 7; "banana", 3; "cherry", 9 ] ]

(* --- Metadata ----------------------------------------------------- *)

let metadata_build () =
  let doc = health_doc () in
  let scs = health_scs () in
  let keys = keys () in
  let scheme = Secure.Scheme.build doc scs Secure.Scheme.Opt in
  let db = Secure.Encrypt.encrypt ~keys doc scheme in
  let meta = Secure.Metadata.build ~keys db in
  (* Block table has one representative interval per block. *)
  Alcotest.(check int) "block table" (List.length db.Secure.Encrypt.blocks)
    (List.length meta.Secure.Metadata.block_table);
  (* Grouping shrinks the table below the node count. *)
  Alcotest.(check bool) "grouping reduces entries" true
    (Secure.Metadata.table_entry_count meta <= Doc.node_count doc);
  (* Betty's two adjacent policy# leaves share one insurance block, so
     they must be grouped: count table intervals with encrypted tokens
     vs the raw node count. *)
  Alcotest.(check bool) "policy# grouped" true
    (Secure.Metadata.table_entry_count meta < Doc.node_count doc);
  (* Catalogs exist for every leaf tag. *)
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " catalog") true
        (Option.is_some (Secure.Metadata.catalog meta ~tag)))
    (Xmlcore.Stats.leaf_tags doc);
  (* Index entries: one per occurrence per scale replica, every
     attribute's tree valid. *)
  Alcotest.(check bool) "btree nonempty" true
    ((Secure.Metadata.index_summary meta).Secure.Metadata.entries > 0);
  Array.iter
    (fun tree ->
      match Btree.validate tree with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    meta.Secure.Metadata.index

let metadata_tokens_hide_tags () =
  let doc = health_doc () in
  let scs = health_scs () in
  let keys = keys () in
  let db = Secure.Encrypt.encrypt ~keys doc (Secure.Scheme.build doc scs Secure.Scheme.Opt) in
  let meta = Secure.Metadata.build ~keys db in
  (* No DSI table key may leak an encrypted tag in the clear. *)
  List.iter
    (fun (key, _) ->
      List.iter
        (fun secret_tag ->
          Alcotest.(check bool)
            (* The "secret" here is the tag *name* under test, printed
               only into the test description. *)
            (* lint: allow secret-print *)
            (Printf.sprintf "%s hidden in %s" secret_tag key)
            false
            (String.equal key ("P:" ^ secret_tag)))
        [ "insurance"; "policy#"; "@coverage"; "pname" ])
    meta.Secure.Metadata.dsi_table

(* --- Access-pattern audit ----------------------------------------- *)

(* The same query three times, two other queries. *)
let audit_queries =
  [ "//patient[pname='Betty']//disease"; "//patient[pname='Betty']//disease";
    "//patient[pname='Betty']//disease"; "//insurance";
    "//patient[pname='Matt']/SSN" ]

let distinct_requests sys =
  List.length
    (List.sort_uniq compare
       (List.map
          (fun q ->
            Secure.Protocol.encode_request
              (Secure.Client.translate (Secure.System.client sys) (Xpath.Parser.parse q)))
          audit_queries))

let audit_deterministic_requests () =
  (* Tag translation is deterministic (index lookups require it), so a
     repeated query is a repeated request the server recognises. *)
  let sys, _ = Secure.System.setup (health_doc ()) (health_scs ()) Secure.Scheme.Opt in
  Alcotest.(check int) "three distinct requests" 3 (distinct_requests sys)

let audit_linkability () =
  (* Theorem 6.1 leaves access patterns unhidden: the leakage ledger
     records the blocks each round ships, and repeats ship the same. *)
  let sys, _ = Secure.System.setup (health_doc ()) (health_scs ()) Secure.Scheme.Opt in
  let ledger = Secure.System.ledger sys in
  Obs.Ledger.set_enabled ledger true;
  List.iter
    (fun q -> ignore (Secure.System.evaluate sys (Xpath.Parser.parse q)))
    audit_queries;
  let patterns =
    List.map (fun r -> r.Obs.Ledger.block_ids) (Obs.Ledger.rounds ledger)
  in
  Alcotest.(check int) "all observed" 5 (List.length patterns);
  (match patterns with
   | first :: second :: third :: _ ->
     Alcotest.(check (list int)) "second repeat ships the same blocks" first second;
     Alcotest.(check (list int)) "third repeat ships the same blocks" first third
   | _ -> Alcotest.fail "expected five rounds");
  Alcotest.(check bool) "patterns bounded by requests" true
    (List.length (List.sort_uniq compare patterns) <= distinct_requests sys)

(* --- Schema & candidate enumeration ------------------------------- *)

let schema_inference () =
  let doc = health_doc () in
  let schema = Xmlcore.Schema.infer doc in
  Alcotest.(check string) "root" "hospital" (Xmlcore.Schema.root_tag schema);
  (match Xmlcore.Schema.shape schema "treat" with
   | Some s ->
     Alcotest.(check (list string)) "treat children" [ "disease"; "doctor" ]
       s.Xmlcore.Schema.child_tags;
     Alcotest.(check bool) "treat not leaf" false s.Xmlcore.Schema.is_leaf
   | None -> Alcotest.fail "treat shape missing");
  (match Xmlcore.Schema.shape schema "disease" with
   | Some s ->
     Alcotest.(check bool) "disease is leaf" true s.Xmlcore.Schema.is_leaf;
     Alcotest.(check int) "domain size" 3 (List.length s.Xmlcore.Schema.leaf_domain)
   | None -> Alcotest.fail "disease shape missing");
  Alcotest.(check bool) "doc conforms to itself" true
    (Xmlcore.Schema.conforms doc schema = Ok ());
  (* A violating document is caught. *)
  let bad =
    Doc.of_tree
      (Tree.element "hospital" [ Tree.element "patient" [ Tree.leaf "intruder" "x" ] ])
  in
  Alcotest.(check bool) "violation detected" true
    (Xmlcore.Schema.conforms bad schema <> Ok ())

let candidate_enumeration () =
  let doc = health_doc () in
  (* disease slots: diarrhea, flu, leukemia, diarrhea -> 4!/2! = 12. *)
  Alcotest.(check (option int64)) "multinomial" (Some 12L)
    (Secure.Candidates.candidate_count doc ~tag:"disease");
  let all = Secure.Candidates.value_permutations doc ~tag:"disease" ~limit:100 in
  Alcotest.(check int) "all distinct assignments" 12 (List.length all);
  (* Each candidate preserves the histogram. *)
  let original = Xmlcore.Stats.value_histogram doc ~tag:"disease" in
  List.iter
    (fun d ->
      Alcotest.(check (list (pair string int))) "histogram preserved" original
        (Xmlcore.Stats.value_histogram d ~tag:"disease"))
    all;
  (* The limit is respected and the original comes first. *)
  let few = Secure.Candidates.value_permutations doc ~tag:"disease" ~limit:3 in
  Alcotest.(check int) "limited" 3 (List.length few);
  Alcotest.(check bool) "original first" true
    (Tree.equal (Doc.to_tree (List.hd few)) (Doc.to_tree doc))

let theorem_51_compositions () =
  (* Figure 5's example: 7 leaves over 3 intervals -> 15 assignments =
     C(6,2). *)
  let assignments = Secure.Candidates.structural_assignments ~leaves:7 ~intervals:3 in
  Alcotest.(check int) "fifteen possibilities" 15 (List.length assignments);
  Alcotest.(check (option int64)) "matches C(6,2)" (Some 15L)
    (Secure.Counting.compositions_count ~n:7 ~k:3);
  (* Every assignment is positive and sums to the leaf count. *)
  List.iter
    (fun a ->
      Alcotest.(check int) "sums to 7" 7 (List.fold_left ( + ) 0 a);
      Alcotest.(check bool) "positive parts" true (List.for_all (fun p -> p > 0) a))
    assignments;
  (* Distinct assignments. *)
  Alcotest.(check int) "distinct" 15
    (List.length (List.sort_uniq compare assignments));
  (* Materialised candidate subtrees carry all values in order. *)
  let values = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] in
  let trees =
    Secure.Candidates.structural_candidate_trees ~tag:"A" ~leaf_tag:"x"
      ~values ~intervals:3
  in
  Alcotest.(check int) "one tree per assignment" 15 (List.length trees);
  List.iter
    (fun t ->
      Alcotest.(check (list (pair string string))) "leaves preserved"
        (List.map (fun v -> "x", v) values)
        (Xmlcore.Tree.leaf_values t))
    trees;
  (* The paper's other worked example: n=15, k=5 -> 1001. *)
  Alcotest.(check int) "n=15 k=5" 1001
    (List.length (Secure.Candidates.structural_assignments ~leaves:15 ~intervals:5))

let theorem_41_empirically () =
  let doc = health_doc () in
  let report =
    Secure.Candidates.indistinguishability_report ~master:"t41"
      ~constraints:(health_scs ()) ~kind:Secure.Scheme.Opt ~tag:"disease"
      ~limit:12 doc
  in
  Alcotest.(check int) "twelve candidates" 12 report.Secure.Candidates.candidates;
  Alcotest.(check bool) "all conform to the schema" true
    report.Secure.Candidates.all_conform;
  Alcotest.(check bool) "equal encrypted sizes (Def 3.1(1))" true
    report.Secure.Candidates.equal_sizes;
  Alcotest.(check bool) "equal index histograms (Def 3.1(2))" true
    report.Secure.Candidates.equal_index_histograms;
  Alcotest.(check int) "exactly one true database (Def 3.3(2))" 1
    report.Secure.Candidates.satisfying_original

(* [Scheme.enforces] decides each association SC for all contexts at
   once; the reference evaluates every context's two sides on their own
   and scans the pairs in order, as the check used to.  On random
   documents, random block roots and SCs with child, descendant and
   predicate steps, both give the same verdict and name the same
   witness. *)
let enforces_reference doc scheme scs =
  let covered = Secure.Scheme.coverage doc scheme in
  let exception Violation of string in
  let check sc =
    match sc with
    | Sc.Node_type p ->
      List.iter
        (fun x ->
          if not covered.(x) then
            raise
              (Violation
                 (Printf.sprintf "node-type SC %s: binding node %d is not encrypted"
                    (Sc.to_string sc) x)))
        (Xpath.Eval.eval doc p)
    | Sc.Association { context; q1; q2 } ->
      List.iter
        (fun x ->
          List.iter
            (fun y1 ->
              List.iter
                (fun y2 ->
                  if (not covered.(y1)) && not covered.(y2) then
                    raise
                      (Violation
                         (Printf.sprintf
                            "association SC %s: witness pair (%d, %d) has both sides in plaintext"
                            (Sc.to_string sc) y1 y2)))
                (Xpath.Eval.eval_from doc [ x ] q2))
            (Xpath.Eval.eval_from doc [ x ] q1))
        (Xpath.Eval.eval doc context)
  in
  match List.iter check scs with () -> Ok () | exception Violation msg -> Error msg

let enforces_matches_reference =
  let pool =
    [| "//a:(/b, /c)"; "//a:(//b, /price)"; "//item:(/name, //price)"; "//b:(/c, //d)";
       "//b:(//a, //item)"; "//c"; "//a:(/b[c], //d)"; "//*:(/name, /price)";
       "//item:(/a/b, //c[.='x'])"; "//d:(/name, /a)" |]
  in
  QCheck.Test.make ~name:"enforces = per-context reference" ~count:300
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 1_000_000))
    (fun (seed, pick) ->
      let doc = Helpers.random_doc ~seed:(Int64.of_int seed) () in
      let rng = Crypto.Prng.create (Int64.of_int pick) in
      let rec roots n acc =
        if n >= Doc.node_count doc then List.rev acc
        else if Crypto.Prng.int rng 3 = 0 then roots (n + Doc.subtree_node_count doc n) (n :: acc)
        else roots (n + 1) acc
      in
      let scheme =
        { Secure.Scheme.kind = Secure.Scheme.Opt; block_roots = roots 1 []; covered_tags = [] }
      in
      let scs =
        List.init (1 + Crypto.Prng.int rng 3) (fun _ ->
            Sc.parse pool.(Crypto.Prng.int rng (Array.length pool)))
      in
      Secure.Scheme.enforces doc scheme scs = enforces_reference doc scheme scs)

(* Each attribute's tree lists its entries in catalog order, document
   order inside a chunk: entry for entry, duplicates included, what
   [bulk_load] makes of the document-order list (one entry per
   occurrence per scale replica) — on Health, XMark and NASA, and after
   value edits, inserts and deletes. *)
let index_in_key_order () =
  let check label sys =
    let meta = Secure.System.metadata sys and db = Secure.System.db sys in
    let doc = db.Secure.Encrypt.doc in
    List.iter
      (fun (tag, cat) ->
        let counts = Hashtbl.create 64 in
        let in_document_order =
          if not (List.mem tag meta.Secure.Metadata.indexed_tags) then []
          else
            List.concat_map
              (fun n ->
                match Doc.value doc n with
                | None -> []
                | Some v ->
                  let occurrence = Option.value ~default:0 (Hashtbl.find_opt counts v) in
                  Hashtbl.replace counts v (occurrence + 1);
                  let target =
                    match Secure.Encrypt.block_id_of_node db n with
                    | Some id -> Secure.Metadata.To_block id
                    | None ->
                      Secure.Metadata.To_plain
                        (Dsi.Assign.interval meta.Secure.Metadata.assignment n)
                  in
                  let scale =
                    match Secure.Opess.find_entry cat v with
                    | Some e -> e.Secure.Opess.scale
                    | None -> 1
                  in
                  List.init scale (fun _ ->
                      Secure.Opess.occurrence_cipher cat ~value:v ~occurrence, target))
              (Doc.nodes_with_tag doc tag)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s entries" label tag)
          true
          (Btree.to_list (Btree.bulk_load in_document_order)
           = Btree.to_list meta.Secure.Metadata.index.(Secure.Opess.attr_id cat)))
      meta.Secure.Metadata.catalogs
  in
  let host doc scs = fst (Secure.System.setup doc scs Secure.Scheme.Opt) in
  let health = host (Workload.Health.generate ~patients:40 ()) (health_scs ()) in
  check "health" health;
  check "xmark" (host (Workload.Xmark.generate ~persons:30 ()) (Workload.Xmark.constraints ()));
  check "nasa" (host (Workload.Nasa.generate ~datasets:20 ()) (Workload.Nasa.constraints ()));
  let parse = Xpath.Parser.parse in
  let edited, _ =
    List.fold_left_map Secure.System.apply_delta health
      [ Secure.Update.Set_value (parse "//patient[age>=50]/insurance/policy#", "12345");
        Secure.Update.Set_value (parse "//age", "33");
        Secure.Update.Insert_child
          { parent = parse "//patient[age='33']"; position = 1; subtree = Tree.leaf "age" "71" };
        Secure.Update.Delete_nodes (parse "//treat[disease='flu']") ]
  in
  check "health after edits" edited

let () =
  Alcotest.run "secure"
    [ ( "counting",
        [ Alcotest.test_case "paper examples" `Quick counting_paper_examples;
          Alcotest.test_case "binomials" `Quick counting_binomials ]
        @ List.map QCheck_alcotest.to_alcotest
            [ counting_log_consistency; counting_multinomial_symmetry ] );
      ( "security constraints",
        [ Alcotest.test_case "parsing" `Quick sc_parsing;
          Alcotest.test_case "bindings" `Quick sc_bindings;
          Alcotest.test_case "captured queries" `Quick sc_captured_queries ] );
      ( "vertex cover",
        Alcotest.test_case "exact cases" `Quick vertex_cover_exact
        :: List.map QCheck_alcotest.to_alcotest
             [ exact_is_optimal_prop; greedy_within_factor_two_prop ] );
      ( "constraint graph",
        [ Alcotest.test_case "figure 8 shape" `Quick constraint_graph_shape ] );
      ( "schemes",
        [ Alcotest.test_case "construction" `Quick scheme_construction;
          Alcotest.test_case "broken scheme detected" `Quick broken_scheme_detected;
          QCheck_alcotest.to_alcotest enforces_matches_reference ]
        @ List.map QCheck_alcotest.to_alcotest [ scheme_no_nested_blocks ] );
      ( "encryption",
        [ Alcotest.test_case "roundtrip" `Quick encrypt_roundtrip;
          Alcotest.test_case "IV table = per-call IV" `Quick iv_table_agrees;
          Alcotest.test_case "decoys" `Quick encrypt_decoys_diversify;
          Alcotest.test_case "skeleton hides secrets" `Quick encrypt_skeleton;
          Alcotest.test_case "tampering rejected" `Quick tampered_blocks_rejected;
          Alcotest.test_case "tag partition" `Quick encrypted_tags_partition ] );
      ( "opess",
        [ Alcotest.test_case "figure 6 flattening" `Quick opess_figure6;
          Alcotest.test_case "no straddling" `Quick opess_no_straddle;
          Alcotest.test_case "translate soundness" `Quick opess_translate_soundness;
          Alcotest.test_case "scaling" `Quick opess_scaling;
          Alcotest.test_case "categorical domains" `Quick opess_categorical;
          Alcotest.test_case "negative numeric domains" `Quick opess_negative_numbers;
          Alcotest.test_case "non-finite numbers rank" `Quick opess_non_finite;
          Alcotest.test_case "non-finite values host" `Quick non_finite_values_host;
          Alcotest.test_case "non-finite value delta" `Quick non_finite_value_delta;
          Alcotest.test_case "occurrence ciphers" `Quick opess_occurrence_cipher;
          Alcotest.test_case "unchanged histogram reuses the catalog" `Quick
            opess_patch_unchanged_is_identity ]
        @ List.map QCheck_alcotest.to_alcotest
            [ opess_properties; opess_patch_equals_build ] );
      ( "audit",
        [ Alcotest.test_case "deterministic requests" `Quick
            audit_deterministic_requests;
          Alcotest.test_case "access-pattern linkability" `Quick audit_linkability ] );
      ( "schema & candidates",
        [ Alcotest.test_case "schema inference" `Quick schema_inference;
          Alcotest.test_case "candidate enumeration" `Quick candidate_enumeration;
          Alcotest.test_case "Theorem 5.1 compositions" `Quick theorem_51_compositions;
          Alcotest.test_case "Theorem 4.1 empirically" `Quick theorem_41_empirically ] );
      ( "metadata",
        [ Alcotest.test_case "build" `Quick metadata_build;
          Alcotest.test_case "index entries in key order" `Quick index_in_key_order;
          Alcotest.test_case "tokens hide tags" `Quick metadata_tokens_hide_tags ] ) ]
