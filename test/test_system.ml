(* End-to-end protocol tests: Q(decrypt(server_answer)) = Q(D) across
   schemes, documents and query shapes; plus system-level security
   checks. *)

module Doc = Xmlcore.Doc
module Sc = Secure.Sc
module System = Secure.System
module Scheme = Secure.Scheme

let check_equal sys label query_string =
  let query = Xpath.Parser.parse query_string in
  let expected = System.reference sys query in
  let got, _ = System.evaluate sys query in
  Helpers.check_trees_equal (label ^ ": " ^ query_string) expected got

let health_queries =
  [ "//patient"; "//patient/pname"; "//SSN"; "//disease"; "//insurance";
    "//insurance/policy#"; "//insurance/@coverage";
    "//patient[pname='Betty']//disease";
    "//patient[.//disease='diarrhea']/pname";
    "//patient[.//insurance//@coverage>='10000']//SSN";
    "/hospital/patient/treat/doctor"; "//treat[disease='leukemia']/doctor";
    "//patient[age>=40]/pname"; "//patient[age>40]/pname";
    "//patient[SSN='763895']"; "//treat[doctor!='Smith']/disease";
    "//nonexistent"; "//patient[pname='Nobody']"; "/hospital"; "//*";
    "//patient//*"; "//treat[disease='diarrhea'][doctor='Smith']";
    (* extended axes through the whole protocol *)
    "//disease/.."; "//disease/parent::treat/doctor";
    "//pname/following-sibling::SSN";
    "//insurance/following-sibling::insurance";
    "//SSN[../pname='Betty']";
    "//treat[following-sibling::age]/disease";
    "//disease[.='leukemia']/../doctor";
    "//SSN/preceding-sibling::pname";
    "//patient[pname='Betty']/SSN/following::disease";
    "//age/preceding::SSN"; "//treat/following::insurance";
    "//insurance[preceding-sibling::insurance]";
    (* boolean predicates through the whole protocol *)
    "//patient[pname='Betty' or pname='Matt']/age";
    "//treat[disease='flu' and doctor='Walker']/doctor";
    "//patient[not(age>=40)]/pname";
    "//patient[(pname='Matt' or pname='Nobody') and not(age<40)]/SSN";
    "//treat[not(disease='diarrhea')]/disease";
    "//patient[insurance and not(.//disease='leukemia')]/pname" ]

let healthcare_all_schemes () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  List.iter
    (fun kind ->
      let sys, _ = System.setup doc scs kind in
      List.iter (check_equal sys (Scheme.kind_to_string kind)) health_queries)
    Scheme.all_kinds

let naive_agrees () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Scheme.Opt in
  List.iter
    (fun q ->
      let query = Xpath.Parser.parse q in
      let expected = System.reference sys query in
      let got, cost = System.naive_evaluate sys query in
      Helpers.check_trees_equal ("naive: " ^ q) expected got;
      Alcotest.(check int) "naive ships everything"
        (Scheme.block_count (System.scheme sys))
        cost.System.blocks_returned)
    health_queries

let generated_hospital () =
  let doc = Workload.Health.generate ~patients:60 () in
  let scs = Workload.Health.constraints () in
  List.iter
    (fun kind ->
      let sys, _ = System.setup doc scs kind in
      List.iter
        (fun fam ->
          List.iter
            (fun q ->
              let expected = System.reference sys q in
              let got, _ = System.evaluate sys q in
              Helpers.check_trees_equal
                (Printf.sprintf "%s/%s %s" (Scheme.kind_to_string kind)
                   (Workload.Querygen.family_to_string fam)
                   (Xpath.Ast.to_string q))
                expected got)
            (Workload.Querygen.generate doc fam ~count:4))
        Workload.Querygen.all_families)
    Scheme.all_kinds

let random_docs_random_queries =
  QCheck.Test.make ~name:"random docs: secure eval = reference" ~count:25
    Helpers.arbitrary_doc
    (fun doc ->
      let scs = [ Sc.parse "//item:(/name, /price)"; Sc.parse "//c" ] in
      List.for_all
        (fun kind ->
          let sys, _ = System.setup doc scs kind in
          List.for_all
            (fun q ->
              let query = Xpath.Parser.parse q in
              let expected = Helpers.norm_trees (System.reference sys query) in
              let got, _ = System.evaluate sys query in
              expected = Helpers.norm_trees got)
            [ "//a"; "//item"; "//item/name"; "//b//c"; "//a[b='x']";
              "//item[price>=20]/name"; "//item[name='hello']"; "//d";
              "//a/b/c"; "//*[name]" ])
        Scheme.all_kinds)

let value_queries_on_numeric_domains () =
  let doc = Workload.Xmark.generate ~persons:120 () in
  let scs = Workload.Xmark.constraints () in
  let sys, _ = System.setup doc scs Scheme.Opt in
  List.iter (check_equal sys "xmark")
    [ "//person[profile/@income>=60000]/emailaddress";
      "//person[profile/@income<30000]/emailaddress";
      "//profile[@income=24000]";
      "//person[name='Kasidit Luo']/creditcard";
      "//person[address/city='Seoul']/name";
      "//profile[age>=65]" ]

(* --- Aggregates (Section 6.4) ------------------------------------- *)

let aggregate_queries =
  [ "//age"; "//insurance/@coverage"; "//disease"; "//patient/SSN";
    "//patient[age>=50]/age"; "//treat/disease"; "//absent" ]

let aggregates_match_reference () =
  let doc = Workload.Health.generate ~patients:80 () in
  let scs = Workload.Health.constraints () in
  List.iter
    (fun kind ->
      let sys, _ = System.setup doc scs kind in
      List.iter
        (fun q ->
          let query = Xpath.Parser.parse q in
          List.iter
            (fun dir ->
              let expected = System.reference_aggregate sys dir query in
              let got, _ = System.aggregate sys dir query in
              Alcotest.(check (option string))
                (Printf.sprintf "%s %s %s" (Scheme.kind_to_string kind)
                   (match dir with `Min -> "min" | `Max -> "max")
                   q)
                expected got)
            [ `Min; `Max ])
        aggregate_queries)
    Scheme.all_kinds

let aggregate_ships_one_block () =
  let doc = Workload.Health.generate ~patients:80 () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Scheme.Top in
  (* Structural MIN/MAX under the coarsest scheme must still ship at
     most one block — that is the whole point of the OPE order. *)
  let _, cost = System.aggregate sys `Max (Xpath.Parser.parse "//age") in
  Alcotest.(check bool) "at most one block" true (cost.System.blocks_returned <= 1);
  (* With value predicates the fast path is off; correctness over
     block-shipping, but the answer must still be right (checked above). *)
  let n, _ = System.count sys (Xpath.Parser.parse "//patient") in
  Alcotest.(check int) "count" 80 n

let numeric_aggregate_semantics () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Scheme.Opt in
  (* ages 35 and 40: numeric max is 40 (string compare would agree
     here, so also check a coverage value where they differ). *)
  let got, _ = System.aggregate sys `Max (Xpath.Parser.parse "//age") in
  Alcotest.(check (option string)) "max age" (Some "40") got;
  (* coverage: {1000000, 10000, 5000}: numeric max 1000000, but string
     max would be "5000". *)
  let got, _ = System.aggregate sys `Max (Xpath.Parser.parse "//insurance/@coverage") in
  Alcotest.(check (option string)) "numeric max" (Some "1000000") got;
  let got, _ = System.aggregate sys `Min (Xpath.Parser.parse "//insurance/@coverage") in
  Alcotest.(check (option string)) "numeric min" (Some "5000") got

(* --- Translation internals ---------------------------------------- *)

let translation_hides_sensitive_tags () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Scheme.Opt in
  let q = Xpath.Parser.parse "//patient[.//insurance//@coverage>='10000']//SSN" in
  let translated = Secure.Client.translate (System.client sys) q in
  let rendered = Secure.Squery.to_string translated in
  (* insurance and @coverage are encrypted under opt: their plaintext
     tags must not appear in the translated query; the comparison
     literal must be gone as well. *)
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "insurance hidden" false (contains "insurance" rendered);
  Alcotest.(check bool) "coverage hidden" false (contains "coverage" rendered);
  Alcotest.(check bool) "literal hidden" false (contains "10000" rendered);
  Alcotest.(check bool) "has value predicate" true
    (Secure.Squery.has_value_predicate translated)

let translation_deterministic () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Scheme.Opt in
  let q = Xpath.Parser.parse "//insurance/policy#" in
  let t1 = Secure.Squery.to_string (Secure.Client.translate (System.client sys) q) in
  let t2 = Secure.Squery.to_string (Secure.Client.translate (System.client sys) q) in
  Alcotest.(check string) "stable tokens" t1 t2

(* --- System-level security checks -------------------------------- *)

let every_sensitive_node_encrypted () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  List.iter
    (fun kind ->
      let sys, _ = System.setup doc scs kind in
      let scheme = System.scheme sys in
      let covered = Scheme.coverage doc scheme in
      (* The coverage array agrees with an ancestor scan over the block
         roots, node by node. *)
      let in_some_block n =
        List.exists
          (fun r -> r = n || Xmlcore.Doc.is_ancestor doc r n)
          scheme.Scheme.block_roots
      in
      Xmlcore.Doc.iter doc (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "%s coverage of node %d" (Scheme.kind_to_string kind) n)
            (in_some_block n) covered.(n));
      (* Node-type SCs: every binding inside a block. *)
      List.iter
        (fun sc ->
          match sc with
          | Sc.Node_type p ->
            List.iter
              (fun x -> Alcotest.(check bool) "binding encrypted" true covered.(x))
              (Xpath.Eval.eval doc p)
          | Sc.Association _ -> ())
        scs)
    Scheme.all_kinds

let btree_distribution_not_plaintext () =
  (* The server-visible B-tree key distribution must not reproduce the
     plaintext histogram of any sensitive attribute. *)
  let doc = Workload.Health.generate ~patients:100 () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Scheme.Opt in
  let observed = Secure.Metadata.key_histogram (System.metadata sys) in
  let known = Xmlcore.Stats.value_histogram doc ~tag:"disease" in
  let result = Attack.Static.frequency_attack ~known ~observed in
  Alcotest.(check (float 0.11)) "crack rate ~0" 0.0 result.Attack.Static.crack_rate

let candidates_indistinguishable () =
  (* Definition 3.1, empirically: two candidate databases that differ
     only in which patient has which disease (same value multiset) must
     encrypt to the same total size and expose identical value-index
     key histograms. *)
  let doc = Workload.Health.doc () in
  let swap =
    [ Secure.Update.Set_value
        (Xpath.Parser.parse "//patient[pname='Betty']/treat[disease='diarrhea']/disease",
         "leukemia");
      Secure.Update.Set_value
        (Xpath.Parser.parse "//patient[pname='Matt']/treat[disease='leukemia']/disease",
         "diarrhea") ]
  in
  let doc' = Secure.Update.apply_all doc swap in
  (* Same value multiset per attribute. *)
  Alcotest.(check (list (pair string int))) "same disease histogram"
    (Xmlcore.Stats.value_histogram doc ~tag:"disease")
    (Xmlcore.Stats.value_histogram doc' ~tag:"disease");
  let scs = Workload.Health.constraints () in
  let sys1, _ = System.setup ~master:"indist" doc scs Scheme.Opt in
  let sys2, _ = System.setup ~master:"indist" doc' scs Scheme.Opt in
  (* (1) |E(D)| = |E(D')| — the size-based attacker learns nothing. *)
  Alcotest.(check int) "equal encrypted size"
    (Secure.Encrypt.encrypted_bytes (System.db sys1))
    (Secure.Encrypt.encrypted_bytes (System.db sys2));
  (* (2) identical observable value-index distribution. *)
  let histogram sys = Secure.Metadata.key_histogram (System.metadata sys) in
  Alcotest.(check (list (pair int64 int))) "equal index histograms"
    (histogram sys1) (histogram sys2);
  (* And the structural index is byte-identical (same shape, same
     weights): the attacker cannot tell the candidates apart. *)
  Alcotest.(check int) "equal metadata size"
    (Secure.Metadata.metadata_bytes (System.metadata sys1))
    (Secure.Metadata.metadata_bytes (System.metadata sys2))

let random_association_scs =
  QCheck.Test.make ~name:"random docs with random association SCs" ~count:15
    QCheck.(pair Helpers.arbitrary_doc (pair (int_bound 6) (int_bound 6)))
    (fun (doc, (i, j)) ->
      (* Pick two leaf tags from the pool as association endpoints. *)
      let tags = Xmlcore.Stats.leaf_tags doc in
      match tags with
      | [] -> true
      | _ ->
        let tag_at k = List.nth tags (k mod List.length tags) in
        let t1 = tag_at i and t2 = tag_at j in
        if String.equal t1 t2 then true
        else begin
          let sc = Sc.parse (Printf.sprintf "//root:(//%s, //%s)" t1 t2) in
          List.for_all
            (fun kind ->
              let sys, _ = System.setup doc [ sc ] kind in
              List.for_all
                (fun q ->
                  let query = Xpath.Parser.parse q in
                  Helpers.norm_trees (System.reference sys query)
                  = Helpers.norm_trees (fst (System.evaluate sys query)))
                [ "//" ^ t1; "//" ^ t2; "//a"; "//item[name='hello']";
                  Printf.sprintf "//*[%s]" t1 ])
            [ Scheme.Opt; Scheme.Top ]
        end)

let setup_costs_sane () =
  let doc = Workload.Health.generate ~patients:50 () in
  let scs = Workload.Health.constraints () in
  let _, opt_cost = System.setup doc scs Scheme.Opt in
  let _, sub_cost = System.setup doc scs Scheme.Sub in
  let _, top_cost = System.setup doc scs Scheme.Top in
  (* Scheme size ordering: opt <= sub (sub coarsens upward) and
     opt <= top (top is everything). *)
  Alcotest.(check bool) "opt smallest" true
    (opt_cost.System.scheme_size_nodes <= sub_cost.System.scheme_size_nodes
     && opt_cost.System.scheme_size_nodes <= top_cost.System.scheme_size_nodes);
  (* Sub's many wrapped blocks cost more stored bytes than top's one. *)
  Alcotest.(check bool) "sub bigger than top on server" true
    (sub_cost.System.server_data_bytes >= top_cost.System.server_data_bytes)

let cost_fields_populated () =
  let doc = Workload.Health.generate ~patients:30 () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Scheme.Opt in
  let q = Xpath.Parser.parse "//patient[.//disease='diarrhea']/pname" in
  let _, cost = System.evaluate sys q in
  Alcotest.(check bool) "totals add up" true
    (Float.abs
       (System.total_ms cost
        -. (cost.System.translate_ms +. cost.System.server_ms
            +. cost.System.transmit_ms +. cost.System.decrypt_ms
            +. cost.System.postprocess_ms))
     < 1e-9);
  Alcotest.(check bool) "transmit consistent" true
    (Float.abs
       (cost.System.transmit_ms
        -. (float_of_int cost.System.transmit_bytes /. System.link_bytes_per_ms))
     < 1e-9)

let encrypted_only_index_policy () =
  let doc = Workload.Health.generate ~patients:50 () in
  let scs = Workload.Health.constraints () in
  let full, _ = System.setup doc scs Scheme.Opt in
  let lean, _ =
    System.setup ~value_index:Secure.Metadata.Encrypted_only doc scs Scheme.Opt
  in
  (* The lean index is genuinely smaller. *)
  Alcotest.(check bool) "fewer index entries" true
    ((Secure.Metadata.index_summary (System.metadata lean)).Secure.Metadata.entries
     < (Secure.Metadata.index_summary (System.metadata full)).Secure.Metadata.entries);
  (* Correctness is unchanged, including value predicates on attributes
     that are no longer indexed (age, @coverage are plaintext under
     opt): the server keeps every candidate, the client filters. *)
  List.iter
    (fun q ->
      let query = Xpath.Parser.parse q in
      Helpers.check_trees_equal ("lean " ^ q)
        (System.reference lean query)
        (fst (System.evaluate lean query)))
    [ "//patient[age>=60]/pname"; "//patient[.//disease='flu']/SSN";
      "//insurance[@coverage>=500000]";
      "//patient[age>=60][.//disease='flu']/pname" ];
  (* Unindexed attributes fall back to the ordinary protocol for
     aggregates and still agree. *)
  List.iter
    (fun dir ->
      Alcotest.(check (option string)) "aggregate fallback"
        (System.reference_aggregate lean dir (Xpath.Parser.parse "//age"))
        (fst (System.aggregate lean dir (Xpath.Parser.parse "//age"))))
    [ `Min; `Max ]

let key_rotation () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup ~master:"before" doc scs Scheme.Opt in
  let bundle = Secure.Persist.to_string sys in
  let rotated, _ = System.rotate sys ~new_master:"after" in
  (* Same answers under the new keys. *)
  let q = Xpath.Parser.parse "//patient[pname='Betty']//disease" in
  Helpers.check_trees_equal "rotation preserves answers"
    (fst (System.evaluate sys q))
    (fst (System.evaluate rotated q));
  (* Ciphertexts actually changed. *)
  let first_ct s = (List.hd (System.db s).Secure.Encrypt.blocks).Secure.Encrypt.ciphertext in
  Alcotest.(check bool) "blocks re-encrypted" false (first_ct sys = first_ct rotated);
  (* The old bundle does not authenticate under the new master. *)
  (match Secure.Persist.of_string ~master:"after" bundle with
   | _ -> Alcotest.fail "old bundle must not load under the new master"
   | exception Secure.Persist.Corrupt _ -> ())

let aes_hosted_system () =
  (* The whole protocol under the AES suite, and persistence carries the
     suite. *)
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ =
    System.setup ~master:"aes-host" ~cipher:Crypto.Cipher.Aes doc scs Scheme.Opt
  in
  Alcotest.(check bool) "suite recorded" true (System.cipher sys = Crypto.Cipher.Aes);
  List.iter (check_equal sys "aes")
    [ "//patient[pname='Betty']//disease"; "//insurance";
      "//patient[.//insurance//@coverage>='10000']//SSN" ];
  let restored =
    Secure.Persist.of_string ~master:"aes-host" (Secure.Persist.to_string sys)
  in
  Alcotest.(check bool) "suite persisted" true
    (System.cipher restored = Crypto.Cipher.Aes);
  let q = Xpath.Parser.parse "//patient[pname='Betty']//disease" in
  Helpers.check_trees_equal "aes persisted roundtrip"
    (fst (System.evaluate sys q))
    (fst (System.evaluate restored q))

let union_queries () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  List.iter
    (fun kind ->
      let sys, _ = System.setup doc scs kind in
      List.iter
        (fun q ->
          let branches = Xpath.Parser.parse_union q in
          let expected = System.reference_union sys branches in
          let got, _ = System.evaluate_union sys branches in
          Helpers.check_trees_equal
            (Printf.sprintf "%s union %s" (Scheme.kind_to_string kind) q)
            expected got)
        [ "//pname | //SSN"; "//disease | //treat/disease";
          "//patient[age>=40]/pname | //treat[disease='flu']/doctor";
          "//insurance | //nonexistent"; "//pname" ])
    [ Scheme.Opt; Scheme.Top ]

let empty_answers () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Scheme.Opt in
  let answers, cost = System.evaluate sys (Xpath.Parser.parse "//nothing/here") in
  Alcotest.(check int) "no answers" 0 (List.length answers);
  Alcotest.(check int) "no blocks" 0 cost.System.blocks_returned

(* Answers come back in document order: the plaintext evaluator's list,
   element for element, not only the same set.  Every axis and [*]. *)
let answers_in_document_order () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let printed = List.map Xmlcore.Printer.tree_to_string in
  List.iter
    (fun kind ->
      let sys, _ = System.setup doc scs kind in
      List.iter
        (fun q ->
          let query = Xpath.Parser.parse q in
          let expected = List.map (Doc.subtree doc) (Xpath.Eval.eval doc query) in
          Alcotest.(check (list string))
            (Scheme.kind_to_string kind ^ ": " ^ q)
            (printed expected)
            (printed (fst (System.evaluate sys query))))
        health_queries)
    Scheme.all_kinds

(* The server's list adaptors, driven call for call as
   bench/e2e/redrive.ml drives them, must ship what [Server.answer]
   ships, byte for byte on the wire. *)
module Server = Secure.Server
module Squery = Secure.Squery

let rec redrive_forward server state origin = function
  | [] -> []
  | step :: rest ->
    let raw = Server.lookup server step.Squery.test in
    let joined = Server.join_forward server origin step.Squery.axis raw in
    let filtered =
      List.fold_left (redrive_predicate server state) joined step.Squery.predicates
    in
    Server.register state filtered;
    filtered :: redrive_forward server state (Some filtered) rest

and redrive_predicate server state candidates = function
  | Squery.P_and (a, b) ->
    redrive_predicate server state (redrive_predicate server state candidates a) b
  | Squery.P_or (a, b) ->
    let left = redrive_predicate server state candidates a in
    let right = redrive_predicate server state candidates b in
    left @ List.filter (fun c -> not (List.exists (Dsi.Interval.equal c) left)) right
  | Squery.P_not inner ->
    ignore (redrive_predicate server state candidates inner);
    candidates
  | Squery.Exists q -> redrive_chain server state candidates q None
  | Squery.Value (q, Squery.Unknown) ->
    if q.Squery.steps = [] then candidates else redrive_chain server state candidates q None
  | Squery.Value (q, Squery.Ranges ranges) ->
    let targets, hits = Server.btree_targets server ranges in
    Server.add_hits state hits;
    if q.Squery.steps = [] then Server.filter_by_targets server candidates targets
    else redrive_chain server state candidates q (Some targets)

and redrive_chain server state candidates q targets =
  let levels = redrive_forward server state (Some candidates) q.Squery.steps in
  match List.rev levels with
  | [] -> candidates
  | deepest :: _ ->
    let deepest =
      match targets with
      | None -> deepest
      | Some ts -> Server.filter_by_targets server deepest ts
    in
    let uppers = match List.rev (candidates :: levels) with _ :: u -> u | [] -> [] in
    let axes = List.rev_map (fun s -> s.Squery.axis) q.Squery.steps in
    List.fold_left2
      (fun survivors above axis -> Server.join_backward server above axis survivors)
      deepest uppers axes

let redrive_matches_answer () =
  let pool doc =
    List.concat_map
      (fun family -> Workload.Querygen.generate ~seed:1L doc family ~count:8)
      Workload.Querygen.[ Ql; Qv; Qm ]
  in
  let nasa = Workload.Nasa.generate ~datasets:20 () in
  let health = Workload.Health.doc () in
  List.iter
    (fun (doc, scs, queries) ->
      let sys, _ = System.setup doc scs Scheme.Opt in
      let server = System.server sys in
      List.iter
        (fun q ->
          let squery = Secure.Client.translate (System.client sys) q in
          let state = Server.new_state () in
          let levels = redrive_forward server state None squery.Squery.steps in
          let distinguished = match List.rev levels with last :: _ -> last | [] -> [] in
          let redriven =
            Server.select_blocks server ~witnesses:state.Server.witnesses ~distinguished
              ~candidate_intervals:state.Server.touched ~btree_hits:state.Server.hits
          in
          Alcotest.(check string) (Xpath.Ast.to_string q)
            (Secure.Protocol.encode_response (Server.answer server squery))
            (Secure.Protocol.encode_response redriven))
        queries)
    [ nasa, Workload.Nasa.constraints (), pool nasa;
      health, Workload.Health.constraints (),
      pool health @ List.map Xpath.Parser.parse health_queries ]

let () =
  Alcotest.run "system"
    [ ( "correctness",
        [ Alcotest.test_case "healthcare x all schemes" `Quick healthcare_all_schemes;
          Alcotest.test_case "naive baseline" `Quick naive_agrees;
          Alcotest.test_case "generated hospital" `Slow generated_hospital;
          Alcotest.test_case "xmark value queries" `Slow value_queries_on_numeric_domains;
          Alcotest.test_case "union queries" `Quick union_queries;
          Alcotest.test_case "aes cipher suite" `Quick aes_hosted_system;
          Alcotest.test_case "encrypted-only value index" `Quick encrypted_only_index_policy;
          Alcotest.test_case "key rotation" `Quick key_rotation;
          Alcotest.test_case "empty answers" `Quick empty_answers;
          Alcotest.test_case "answers in document order" `Quick answers_in_document_order;
          Alcotest.test_case "list adaptors ship what answer ships" `Quick
            redrive_matches_answer ]
        @ List.map QCheck_alcotest.to_alcotest [ random_docs_random_queries ] );
      ( "aggregates",
        [ Alcotest.test_case "match reference" `Slow aggregates_match_reference;
          Alcotest.test_case "one block max" `Quick aggregate_ships_one_block;
          Alcotest.test_case "numeric semantics" `Quick numeric_aggregate_semantics ] );
      ( "translation",
        [ Alcotest.test_case "hides sensitive tags" `Quick translation_hides_sensitive_tags;
          Alcotest.test_case "deterministic" `Quick translation_deterministic ] );
      ( "security",
        [ Alcotest.test_case "sensitive nodes encrypted" `Quick every_sensitive_node_encrypted;
          Alcotest.test_case "btree hides distribution" `Slow btree_distribution_not_plaintext;
          Alcotest.test_case "candidate indistinguishability" `Quick
            candidates_indistinguishable ]
        @ List.map QCheck_alcotest.to_alcotest [ random_association_scs ] );
      ( "costs",
        [ Alcotest.test_case "setup ordering" `Quick setup_costs_sane;
          Alcotest.test_case "cost fields" `Quick cost_fields_populated ] ) ]
