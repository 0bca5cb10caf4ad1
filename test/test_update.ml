(* Update subsystem tests: tree edits, re-hosting, and the DSI
   gap-insertion primitive. *)

module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree
module System = Secure.System
module Update = Secure.Update
module Encrypt = Secure.Encrypt

let parse = Xpath.Parser.parse

let fresh_system () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  System.setup doc scs Secure.Scheme.Opt

(* --- Edits on plain documents ------------------------------------- *)

let insert_child () =
  let doc = Workload.Health.doc () in
  let new_patient =
    Tree.element "patient"
      [ Tree.leaf "pname" "Zoe"; Tree.leaf "SSN" "111222333";
        Tree.element "treat"
          [ Tree.leaf "disease" "asthma"; Tree.leaf "doctor" "Lee" ];
        Tree.leaf "age" "29" ]
  in
  let edited =
    Doc.of_tree
      (Update.apply doc
         (Update.Insert_child
            { parent = parse "/hospital"; position = 99; subtree = new_patient }))
  in
  Alcotest.(check int) "three patients" 3
    (List.length (Doc.nodes_with_tag edited "patient"));
  Alcotest.(check int) "appended last: no following siblings" 0
    (List.length
       (Xpath.Eval.eval edited (parse "//patient[pname='Zoe']/following-sibling::*")));
  Alcotest.(check int) "original patients precede Zoe" 2
    (List.length
       (Xpath.Eval.eval edited (parse "//patient[following-sibling::patient[pname='Zoe']]")));
  (* position 0 prepends *)
  let edited0 =
    Doc.of_tree
      (Update.apply doc
         (Update.Insert_child
            { parent = parse "/hospital"; position = 0; subtree = new_patient }))
  in
  (match Doc.children edited0 (Doc.root edited0) with
   | first :: _ ->
     Alcotest.(check (option string)) "first child is Zoe's record" (Some "Zoe")
       (Doc.value edited0 (List.hd (Doc.nodes_with_tag edited0 "pname")));
     ignore first
   | [] -> Alcotest.fail "no children")

let delete_nodes () =
  let doc = Workload.Health.doc () in
  let edited = Doc.of_tree (Update.apply doc (Update.Delete_nodes (parse "//treat"))) in
  Alcotest.(check int) "no treats" 0 (List.length (Doc.nodes_with_tag edited "treat"));
  Alcotest.(check int) "no diseases either" 0
    (List.length (Doc.nodes_with_tag edited "disease"));
  Alcotest.(check int) "patients intact" 2
    (List.length (Doc.nodes_with_tag edited "patient"))

let set_value () =
  let doc = Workload.Health.doc () in
  let edited =
    Doc.of_tree
      (Update.apply doc (Update.Set_value (parse "//patient[pname='Matt']/age", "41")))
  in
  Alcotest.(check (list string)) "age updated" [ "41" ]
    (List.filter_map (fun n -> Doc.value edited n)
       (Xpath.Eval.eval edited (parse "//patient[pname='Matt']/age")));
  Alcotest.(check (list string)) "other age untouched" [ "35" ]
    (List.filter_map (fun n -> Doc.value edited n)
       (Xpath.Eval.eval edited (parse "//patient[pname='Betty']/age")))

let invalid_edits () =
  let doc = Workload.Health.doc () in
  let raises ?expect f = match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument m ->
      (match expect with
       | None -> ()
       | Some sub ->
         let contains ~sub s =
           let n = String.length sub and len = String.length s in
           let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         Alcotest.(check bool)
           (Printf.sprintf "message %S mentions %S" m sub)
           true (contains ~sub m))
  in
  (* Deleting the document root leaves no document. *)
  raises ~expect:"root"
    (fun () -> Update.apply doc (Update.Delete_nodes (parse "/hospital")));
  (* Set_value targets must be leaves. *)
  raises ~expect:"not a leaf"
    (fun () -> Update.apply doc (Update.Set_value (parse "//patient", "x")));
  (* Paths that bind nothing are user errors, not silent no-ops. *)
  raises ~expect:"binds nothing"
    (fun () -> Update.apply doc (Update.Delete_nodes (parse "//absent")));
  raises ~expect:"binds nothing"
    (fun () -> Update.apply doc (Update.Set_value (parse "//absent", "v")));
  raises ~expect:"binds nothing"
    (fun () ->
      Update.apply doc
        (Update.Insert_child
           { parent = parse "//absent"; position = 0; subtree = Tree.leaf "x" "1" }));
  (* Leaves cannot grow children. *)
  raises ~expect:"leaf"
    (fun () ->
      Update.apply doc
        (Update.Insert_child
           { parent = parse "//pname"; position = 0; subtree = Tree.leaf "x" "1" }));
  (* A failed edit must not have mutated the document. *)
  Alcotest.(check int) "document unchanged after failures" 2
    (List.length (Doc.nodes_with_tag doc "patient"))

let insert_position_clamped () =
  let doc = Workload.Health.doc () in
  let note = Tree.leaf "note" "n" in
  (* Negative positions clamp to a prepend rather than failing. *)
  let edited =
    Doc.of_tree
      (Update.apply doc
         (Update.Insert_child
            { parent = parse "/hospital"; position = -5; subtree = note }))
  in
  (match Doc.children edited (Doc.root edited) with
   | first :: _ -> Alcotest.(check string) "prepended" "note" (Doc.tag edited first)
   | [] -> Alcotest.fail "no children");
  (* Positions past the end clamp to an append. *)
  let edited =
    Doc.of_tree
      (Update.apply doc
         (Update.Insert_child
            { parent = parse "/hospital"; position = 1_000; subtree = note }))
  in
  match List.rev (Doc.children edited (Doc.root edited)) with
  | last :: _ -> Alcotest.(check string) "appended" "note" (Doc.tag edited last)
  | [] -> Alcotest.fail "no children"

let apply_all_sees_earlier_edits () =
  let doc = Workload.Health.doc () in
  let edited =
    Update.apply_all doc
      [ Update.Insert_child
          { parent = parse "//patient[pname='Betty']";
            position = 99;
            subtree = Tree.leaf "note" "recheck" };
        Update.Set_value (parse "//note", "done") ]
  in
  Alcotest.(check (list string)) "second edit sees the first" [ "done" ]
    (List.filter_map (fun n -> Doc.value edited n)
       (Xpath.Eval.eval edited (parse "//note")))

(* --- Re-hosting through System.update ------------------------------ *)

let update_rehosts_securely () =
  let sys, _ = fresh_system () in
  let new_patient =
    Tree.element "patient"
      [ Tree.leaf "pname" "Zoe"; Tree.leaf "SSN" "111222333";
        Tree.element "treat"
          [ Tree.leaf "disease" "asthma"; Tree.leaf "doctor" "Lee" ];
        Tree.leaf "age" "29";
        Tree.element "insurance"
          [ Tree.attribute "coverage" "20000"; Tree.leaf "policy#" "99999" ] ]
  in
  let sys2, cost =
    System.update sys
      (Update.Insert_child
         { parent = parse "/hospital"; position = 99; subtree = new_patient })
  in
  Alcotest.(check bool) "setup cost reported" true (cost.System.block_count > 0);
  (* The new data is queryable through the full protocol... *)
  let answers, _ = System.evaluate sys2 (parse "//patient[pname='Zoe']//disease") in
  Helpers.check_trees_equal "new patient queryable"
    (System.reference sys2 (parse "//patient[pname='Zoe']//disease"))
    answers;
  (* ...and the SCs are enforced on the edited document (Zoe's
     insurance is encrypted). *)
  (match
     Secure.Scheme.enforces (System.doc sys2) (System.scheme sys2)
       (Workload.Health.constraints ())
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (* Deleting her again restores the original answers. *)
  let sys3, _ = System.update sys2 (Update.Delete_nodes (parse "//patient[pname='Zoe']")) in
  Alcotest.(check int) "back to two patients" 2
    (List.length (Xpath.Eval.eval (System.doc sys3) (parse "//patient")))

let update_changes_value_index () =
  let sys, _ = fresh_system () in
  let sys2, _ =
    System.update sys (Update.Set_value (parse "//patient[pname='Matt']/age", "77"))
  in
  let answers, _ = System.evaluate sys2 (parse "//patient[age>=70]/pname") in
  Helpers.check_trees_equal "value predicate sees the new value"
    (System.reference sys2 (parse "//patient[age>=70]/pname"))
    answers;
  Alcotest.(check int) "exactly Matt" 1 (List.length answers)

(* --- Incremental deltas -------------------------------------------- *)

(* The invariant every delta test leans on: after apply_delta(s), the
   system answers exactly like a fresh setup of the mutated document —
   and like the plaintext oracle. *)
let check_delta_equiv what sys' queries =
  let edited = System.doc sys' in
  let fresh, _ =
    System.setup ~master:(System.master sys') edited (System.constraints sys')
      (System.scheme sys').Secure.Scheme.kind
  in
  List.iter
    (fun q ->
      let query = parse q in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s agrees with oracle" what q)
        true
        (Helpers.norm_trees (System.reference sys' query)
         = Helpers.norm_trees (fst (System.evaluate sys' query)));
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s agrees with fresh setup" what q)
        true
        (Helpers.norm_trees (fst (System.evaluate fresh query))
         = Helpers.norm_trees (fst (System.evaluate sys' query))))
    queries

let health_queries =
  [ "//patient/pname"; "//insurance/policy#"; "//treat/doctor";
    "//patient[age>=40]/pname" ]

(* Regression: deleting the last node(s) of a block must re-encrypt the
   emptied block (inner deletion) or drop it (root deletion) — the
   original delta planner lost the correspondence for both shapes. *)
let delta_delete_last_block_node () =
  let sys, _ = fresh_system () in
  (* Betty's insurance block: delete its policy# leaves, then the
     @coverage attribute — the block root ends up childless but alive. *)
  let sys2, costs =
    List.fold_left_map System.apply_delta sys
      [ Update.Delete_nodes (parse "//patient[pname='Betty']/insurance/policy#");
        Update.Delete_nodes (parse "//patient[pname='Betty']/insurance/@coverage") ]
  in
  List.iteri
    (fun i (c : System.delta_cost) ->
      Alcotest.(check bool) (Printf.sprintf "edit %d stayed incremental" i)
        false c.System.fell_back;
      Alcotest.(check bool) (Printf.sprintf "edit %d re-encrypted, not dropped" i)
        true (c.System.blocks_touched >= 1 && c.System.blocks_dropped = 0))
    costs;
  Alcotest.(check int) "Betty's insurance emptied" 0
    (List.length
       (Xpath.Eval.eval (System.doc sys2)
          (parse "//patient[pname='Betty']/insurance/*")));
  check_delta_equiv "emptied block" sys2 health_queries;
  (* Deleting a whole block subtree drops its block instead. *)
  let sys3, cost =
    System.apply_delta sys2
      (Update.Delete_nodes (parse "//patient[pname='Matt']/insurance"))
  in
  Alcotest.(check bool) "drop stayed incremental" false cost.System.fell_back;
  Alcotest.(check bool) "block dropped" true (cost.System.blocks_dropped >= 1);
  check_delta_equiv "dropped block" sys3 health_queries

(* Regression: inserting into an empty tag group — a childless element
   (the DSI gap is bounded by the parent interval, no siblings to lean
   on) and a tag no catalog has seen (a fresh OPESS catalog must
   spring up, not a patched one). *)
let delta_insert_into_empty_group () =
  let sys, _ = fresh_system () in
  let sys2, _ =
    List.fold_left_map System.apply_delta sys
      [ Update.Delete_nodes (parse "//patient[pname='Betty']/insurance/policy#");
        Update.Delete_nodes (parse "//patient[pname='Betty']/insurance/@coverage") ]
  in
  (* Insert into the now-childless insurance element (inside a block). *)
  let sys3, cost =
    System.apply_delta sys2
      (Update.Insert_child
         { parent = parse "//patient[pname='Betty']/insurance";
           position = 0;
           subtree = Tree.leaf "policy#" "55555" })
  in
  Alcotest.(check bool) "childless insert stayed incremental" false
    cost.System.fell_back;
  Alcotest.(check bool) "touched the containing block" true
    (cost.System.blocks_touched >= 1);
  Alcotest.(check (list string)) "inserted leaf queryable" [ "55555" ]
    (List.filter_map
       (fun t -> match t with Tree.Element (_, [ Tree.Text v ]) -> Some v | _ -> None)
       (fst (System.evaluate sys3 (parse "//patient[pname='Betty']/insurance/policy#"))));
  check_delta_equiv "childless-element insert" sys3 health_queries;
  (* Insert a tag nobody indexed yet: the patch must build a fresh
     catalog under a fresh attribute id. *)
  let sys4, cost =
    System.apply_delta sys3
      (Update.Insert_child
         { parent = parse "//patient[pname='Matt']";
           position = 99;
           subtree = Tree.leaf "remark" "recheck" })
  in
  Alcotest.(check bool) "new-tag insert stayed incremental" false
    cost.System.fell_back;
  check_delta_equiv "new-tag insert" sys4 ("//remark" :: health_queries)

(* Random interleavings of incremental updates, queries and key
   rotations against ONE hosting: every query must agree with the
   plaintext oracle at the moment it runs, and no block's generation
   counter may ever decrease (a decrease would reuse a (key, nonce)
   pair).  Rotation re-keys the hosting — a fresh nonce space — so the
   tracker restarts there. *)
let delta_interleaving_agrees =
  QCheck.Test.make ~name:"update/query/rotate interleavings stay exact" ~count:10
    QCheck.(list_of_size Gen.(int_range 4 10) (int_range 0 1000))
    (fun ops ->
      let doc = Workload.Health.generate ~patients:12 () in
      let scs = Workload.Health.constraints () in
      let sys =
        ref (fst (System.setup ~master:"interleave" doc scs Secure.Scheme.Opt))
      in
      let gens : (int, int) Hashtbl.t = Hashtbl.create 32 in
      let check_gens () =
        List.iter
          (fun (b : Secure.Encrypt.block) ->
            (match Hashtbl.find_opt gens b.Secure.Encrypt.id with
             | Some g0 when b.Secure.Encrypt.generation < g0 ->
               failwith
                 (Printf.sprintf "block %d generation decreased %d -> %d"
                    b.Secure.Encrypt.id g0 b.Secure.Encrypt.generation)
             | _ -> ());
            Hashtbl.replace gens b.Secure.Encrypt.id b.Secure.Encrypt.generation)
          (System.db !sys).Secure.Encrypt.blocks
      in
      check_gens ();
      let target i =
        let pnames =
          List.filter_map
            (Doc.value (System.doc !sys))
            (Doc.nodes_with_tag (System.doc !sys) "pname")
        in
        List.nth pnames (i mod List.length pnames)
      in
      let queries =
        [| "//patient/pname"; "//insurance/policy#"; "//treat/doctor";
           "//patient[age>=40]/pname" |]
      in
      let agree q =
        let q = parse q in
        Helpers.norm_trees (System.reference !sys q)
        = Helpers.norm_trees (fst (System.evaluate !sys q))
      in
      let ok = ref true in
      List.iteri
        (fun i op ->
          match op mod 6 with
          | 0 ->
            let next, _ =
              System.apply_delta !sys
                (Update.Set_value
                   ( parse (Printf.sprintf "//patient[pname='%s']/age" (target op)),
                     string_of_int (20 + (op mod 60)) ))
            in
            sys := next;
            check_gens ()
          | 1 ->
            let next, _ =
              System.apply_delta !sys
                (Update.Set_value
                   ( parse
                       (Printf.sprintf "//patient[pname='%s']//policy#" (target op)),
                     Printf.sprintf "8%04d" (op mod 1000) ))
            in
            sys := next;
            check_gens ()
          | 2 ->
            let next, _ =
              System.apply_delta !sys
                (Update.Insert_child
                   { parent =
                       parse (Printf.sprintf "//patient[pname='%s']" (target op));
                     position = op mod 3;
                     subtree = Tree.leaf "remark" (Printf.sprintf "r%d" op) })
            in
            sys := next;
            check_gens ()
          | 3 ->
            if Doc.nodes_with_tag (System.doc !sys) "remark" <> [] then begin
              let next, _ =
                System.apply_delta !sys (Update.Delete_nodes (parse "//remark"))
              in
              sys := next;
              check_gens ()
            end
          | 4 -> ok := !ok && agree queries.(op mod Array.length queries)
          | _ ->
            let next, _ =
              System.rotate !sys
                ~new_master:(Printf.sprintf "interleave-%d-%d" i op)
            in
            sys := next;
            Hashtbl.reset gens;
            check_gens ())
        ops;
      !ok
      && Array.for_all agree queries)

(* --- DSI gap insertion --------------------------------------------- *)

let gap_insertion_fits =
  QCheck.Test.make ~name:"interval_in_gap stays inside and leaves slack" ~count:300
    QCheck.(triple small_string (pair (float_bound_exclusive 1.0) pos_float) small_nat)
    (fun (key, (lo, width), label) ->
      let width = Float.min (Float.max width 1e-6) 10.0 in
      let hi = lo +. width in
      let iv = Dsi.Assign.interval_in_gap ~key ~label ~lo ~hi in
      iv.Dsi.Interval.lo > lo && iv.Dsi.Interval.hi < hi
      && iv.Dsi.Interval.lo < iv.Dsi.Interval.hi)

let gap_insertion_between_siblings () =
  let doc = Workload.Health.doc () in
  let a = Dsi.Assign.assign ~key:"gap-test" doc in
  (* Insert between the two patients: the gap between their intervals
     absorbs a new interval without touching either. *)
  (match Doc.nodes_with_tag doc "patient" with
   | [ p1; p2 ] ->
     let i1 = Dsi.Assign.interval a p1 and i2 = Dsi.Assign.interval a p2 in
     let fresh =
       Dsi.Assign.interval_in_gap ~key:"gap-test" ~label:12345
         ~lo:i1.Dsi.Interval.hi ~hi:i2.Dsi.Interval.lo
     in
     Alcotest.(check bool) "after first" true (fresh.Dsi.Interval.lo > i1.Dsi.Interval.hi);
     Alcotest.(check bool) "before second" true (fresh.Dsi.Interval.hi < i2.Dsi.Interval.lo);
     (* And inside the shared parent. *)
     let root_iv = Dsi.Assign.interval a (Doc.root doc) in
     Alcotest.(check bool) "inside parent" true (Dsi.Interval.contains root_iv fresh)
   | _ -> Alcotest.fail "expected two patients");
  (* Degenerate gap rejected. *)
  Alcotest.(check bool) "empty gap rejected" true
    (match Dsi.Assign.interval_in_gap ~key:"k" ~label:0 ~lo:0.5 ~hi:0.5 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let random_edits_stay_consistent =
  QCheck.Test.make ~name:"random value edits keep the protocol exact" ~count:20
    QCheck.(pair (int_range 1 15) (int_range 20 90))
    (fun (patient_index, new_age) ->
      let doc = Workload.Health.generate ~patients:20 () in
      let scs = Workload.Health.constraints () in
      let sys, _ = System.setup doc scs Secure.Scheme.Opt in
      (* Pick an existing patient by position via its pname value. *)
      let pnames =
        List.filter_map
          (fun n -> Doc.value (System.doc sys) n)
          (Xpath.Eval.eval (System.doc sys) (parse "//pname"))
      in
      let target = List.nth pnames (patient_index mod List.length pnames) in
      let sys2, _ =
        System.update sys
          (Update.Set_value
             ( parse (Printf.sprintf "//patient[pname='%s']/age" target),
               string_of_int new_age ))
      in
      List.for_all
        (fun q ->
          let query = parse q in
          Helpers.norm_trees (System.reference sys2 query)
          = Helpers.norm_trees (fst (System.evaluate sys2 query)))
        [ Printf.sprintf "//patient[age=%d]/pname" new_age;
          "//patient[age>=50]/SSN"; "//pname" ])

(* A superseded hosting keeps answering its own document: a delta
   builds its successor from new parts where the edit changed something
   and leaves every part the old handle reads alone.  After 1, 10 and
   100 deltas (the first sets Betty's age to 99; then value edits,
   remark inserts and remark deletes in turn), every handle in the
   chain answers the fixture queries as its own plaintext reference
   does. *)
let superseded_handles_answer_their_document () =
  let sys, _ = fresh_system () in
  let edit i =
    let who = if i mod 2 = 0 then "Betty" else "Matt" in
    if i = 0 then Update.Set_value (parse "//patient[pname='Betty']/age", "99")
    else if i mod 3 = 1 then
      Update.Insert_child
        { parent = parse (Printf.sprintf "//patient[pname='%s']" who);
          position = i mod 4;
          subtree = Tree.leaf "remark" (Printf.sprintf "r%d" i) }
    else if i mod 3 = 2 then Update.Delete_nodes (parse "//remark")
    else
      Update.Set_value
        (parse (Printf.sprintf "//patient[pname='%s']/age" who),
         string_of_int (20 + (i * 7 mod 60)))
  in
  let handles = ref [ sys ] in
  List.iter
    (fun deltas ->
      while List.length !handles <= deltas do
        let next, _ = System.apply_delta (List.hd !handles) (edit (List.length !handles - 1)) in
        handles := next :: !handles
      done;
      List.iteri
        (fun back handle ->
          List.iter
            (fun q ->
              let query = parse q in
              Alcotest.(check (list string))
                (Printf.sprintf "after %d deltas, handle %d back: %s" deltas back q)
                (Helpers.norm_trees (System.reference handle query))
                (Helpers.norm_trees (fst (System.evaluate handle query))))
            ("//remark" :: "//patient[remark]/pname" :: health_queries))
        !handles)
    [ 1; 10; 100 ]

(* [apply_plan] trusts its plan to describe the hosting's document; a
   plan made before another edit landed (here it no longer matches the
   node count) must not be applied against the wrong node ids.  It falls
   back to re-hosting the plan's edit on the current document. *)
let delta_stale_plan_rehosts () =
  let sys, _ = fresh_system () in
  let stale =
    Update.delta (System.doc sys) (Update.Set_value (parse "//patient[pname='Betty']/age", "77"))
  in
  let sys2, _ =
    System.apply_delta sys
      (Update.Insert_child
         { parent = parse "//patient[pname='Matt']"; position = 0;
           subtree = Tree.leaf "remark" "new" })
  in
  let sys3, cost = System.apply_plan sys2 stale ~plan_ms:0.0 in
  Alcotest.(check bool) "stale plan fell back" true cost.System.fell_back;
  let values q =
    List.filter_map (Doc.value (System.doc sys3)) (Xpath.Eval.eval (System.doc sys3) (parse q))
  in
  Alcotest.(check (list string)) "edit applied to the current document" [ "77" ]
    (values "//patient[pname='Betty']/age");
  Alcotest.(check (list string)) "the earlier edit kept" [ "new" ] (values "//remark");
  check_delta_equiv "stale plan" sys3 ("//remark" :: health_queries)

(* The provider writes a block record's generation itself, and a
   superseded record's MAC verifies under its own generation.  After an
   edit re-encrypts block 3, its generation-0 record must be refused by
   the successor's client, while the predecessor, which hosted exactly
   that record, still decrypts it. *)
let superseded_block_rejected () =
  let sys, _ = fresh_system () in
  let block sys id = Option.get (System.db sys).Encrypt.block_by_id.(id) in
  let old_block = block sys 3 in
  let sys2, _ =
    System.apply_delta sys
      (Update.Set_value (parse "//patient[pname='Betty']//policy#", "90001"))
  in
  Alcotest.(check (pair int int)) "block 3 moved from generation 0 to 1" (0, 1)
    (old_block.Encrypt.generation, (block sys2 3).Encrypt.generation);
  Alcotest.check_raises "the successor refuses the superseded record" (Encrypt.Tampered 3)
    (fun () -> ignore (Secure.Client.decrypt_block (System.client sys2) old_block));
  let keys = Secure.Client.keys (System.client sys) in
  let tree c b = Xmlcore.Doc.to_tree (Secure.Client.decrypt_block c b) in
  Alcotest.(check bool) "the predecessor still decrypts it" true
    (Tree.equal (tree (System.client sys) old_block)
       (Xmlcore.Doc.to_tree (Encrypt.decrypt_block ~keys old_block)));
  Alcotest.check_raises "an id the client does not host" (Encrypt.Tampered 99_999)
    (fun () ->
      ignore
        (Secure.Client.decrypt_block (System.client sys2) { old_block with Encrypt.id = 99_999 }));
  (* The successor derived the re-encrypted block's IV when it was
     patched: through its table, the block decrypts as a per-call IV
     derivation does, and it differs from the superseded record. *)
  let successor = tree (System.client sys2) (block sys2 3) in
  Alcotest.(check bool) "the successor decrypts the re-encrypted block" true
    (Tree.equal successor (Xmlcore.Doc.to_tree (Encrypt.decrypt_block ~keys (block sys2 3))));
  Alcotest.(check bool) "which carries the edit" false
    (Tree.equal successor (tree (System.client sys) old_block));
  Alcotest.check_raises "and the successor still refuses the superseded record"
    (Encrypt.Tampered 3)
    (fun () -> ignore (Secure.Client.decrypt_block (System.client sys2) old_block))

(* --- Patched parts equal built ones --------------------------------- *)
module Server = Secure.Server
module Client = Secure.Client
module Protocol = Secure.Protocol

(* Every accessor of two documents agrees. *)
let same_doc expected got =
  let n = Doc.node_count expected in
  let tags = List.sort_uniq compare (List.init n (Doc.tag expected)) in
  n = Doc.node_count got
  && List.for_all
       (fun i ->
         Doc.tag expected i = Doc.tag got i
         && Doc.value expected i = Doc.value got i
         && Doc.parent expected i = Doc.parent got i
         && Doc.subtree_node_count expected i = Doc.subtree_node_count got i
         && Doc.depth_of expected i = Doc.depth_of got i
         && Doc.children expected i = Doc.children got i)
       (List.init n Fun.id)
  && Doc.elements expected = Doc.elements got
  && List.for_all (fun tag -> Doc.tagged expected tag = Doc.tagged got tag) ("absent" :: tags)

(* A path that binds [n] (and maybe more nodes with its tag): its tag,
   narrowed by a plaintext leaf sibling's value when there is one. *)
let path_to doc n =
  let tag = Doc.tag doc n in
  let sibling =
    match Doc.parent doc n with
    | None -> None
    | Some p ->
      List.find_map
        (fun c ->
          match Doc.value doc c with
          | Some v
            when c <> n
                 && (not (Tree.is_attribute_tag (Doc.tag doc c)))
                 && not (String.contains v '\'') ->
            Some (Doc.tag doc p, Doc.tag doc c, v)
          | Some _ | None -> None)
        (Doc.children doc p)
  in
  parse
    (match sibling with
     | Some (ptag, ctag, v) -> Printf.sprintf "//%s[%s='%s']/%s" ptag ctag v tag
     | None -> "//" ^ tag)

(* One random edit of the hosting's document: a value edit of any leaf
   (inside or outside a block), an insert of a known or a brand-new tag,
   or a delete, half the time of a block root. *)
let random_edit rng sys =
  let doc = System.doc sys in
  let pick a = a.(Crypto.Prng.int rng (Array.length a)) in
  let nodes p = Array.of_list (List.filter p (List.init (Doc.node_count doc) Fun.id)) in
  let leaves = nodes (fun n -> Doc.value doc n <> None) in
  let inner = nodes (fun n -> Doc.value doc n = None) in
  let roots = Array.of_list (System.scheme sys).Secure.Scheme.block_roots in
  match Crypto.Prng.int rng 4 with
  | 0 when Array.length leaves > 0 ->
    let n = pick leaves in
    Some (Update.Set_value (path_to doc n, pick [| "42"; "7"; "flu"; "Zed"; "99999" |]))
  | 1 when Array.length inner > 0 ->
    let subtree =
      pick
        [| Tree.leaf "remark" "r"; Tree.leaf "note" "n1";
           Tree.element "extra" [ Tree.leaf "note" "n2"; Tree.leaf "age" "31" ];
           Tree.leaf (if Array.length leaves > 0 then Doc.tag doc (pick leaves) else "age") "9" |]
    in
    Some
      (Update.Insert_child
         { parent = path_to doc (pick inner); position = Crypto.Prng.int rng 4; subtree })
  | 2 when Array.length roots > 0 && roots.(0) <> Doc.root doc ->
    Some (Update.Delete_nodes (path_to doc (pick roots)))
  | _ when Doc.node_count doc > 1 ->
    Some (Update.Delete_nodes (path_to doc (1 + Crypto.Prng.int rng (Doc.node_count doc - 1))))
  | _ -> None

(* After an edit, the patched hosting against parts built afresh from
   the same inputs: the spliced document against the rebuilt one, the
   database against [Encrypt.reassemble], the server against
   [Server.of_metadata] (encoded answers) and the client against
   [Client.create] (translations and answers). *)
let check_patched ~old_doc edit sys queries =
  let doc = System.doc sys and db = System.db sys and meta = System.metadata sys in
  let keys = Client.keys (System.client sys) in
  let built_db = Encrypt.reassemble ~doc ~scheme:db.Encrypt.scheme ~blocks:db.Encrypt.blocks in
  let server = Server.of_metadata meta (Encrypt.server_blocks db) in
  let client = Client.create ~keys meta db in
  same_doc (Doc.of_tree (Update.apply old_doc edit)) doc
  && same_doc built_db.Encrypt.skeleton db.Encrypt.skeleton
  && built_db.Encrypt.encrypted_tags = db.Encrypt.encrypted_tags
  && built_db.Encrypt.plaintext_tags = db.Encrypt.plaintext_tags
  && built_db.Encrypt.node_block = db.Encrypt.node_block
  && built_db.Encrypt.block_by_id = db.Encrypt.block_by_id
  && List.for_all
       (fun q ->
         let query = parse q in
         let squery = Client.translate (System.client sys) query in
         let response = Server.answer (System.server sys) squery in
         let decrypted =
           List.map (fun b -> b.Encrypt.id, Encrypt.decrypt_block ~keys b) response.Server.blocks
         in
         let answers c =
           List.map Xmlcore.Printer.tree_to_string (Client.evaluate_with c ~decrypted query)
         in
         Protocol.encode_request squery = Protocol.encode_request (Client.translate client query)
         && Protocol.encode_response response
            = Protocol.encode_response (Server.answer server squery)
         && answers (System.client sys) = answers client)
       queries

let patch_fixtures =
  lazy
    (let health =
       Workload.Health.doc (), Workload.Health.constraints (),
       health_queries @ [ "//treat[disease='flu']/doctor"; "//remark"; "//note"; "//extra/age" ]
     in
     let xmark =
       Workload.Xmark.generate ~persons:4 (), Workload.Xmark.constraints (),
       [ "//person/name"; "//person[profile/age>=40]/name"; "//address/city";
         "//creditcard"; "//interest"; "//remark"; "//note" ]
     in
     List.concat_map
       (fun (doc, scs, queries) ->
         List.map
           (fun kind -> fst (System.setup ~master:"patch-equals-build" doc scs kind), queries)
           Secure.Scheme.all_kinds)
       [ health; xmark ])

let patched_equals_built =
  QCheck.Test.make ~name:"patched hosting equals a built one" ~count:200
    QCheck.(pair small_nat (int_range 1 1_000_000))
    (fun (which, seed) ->
      let fixtures = Lazy.force patch_fixtures in
      let sys, queries = List.nth fixtures (which mod List.length fixtures) in
      let rng = Crypto.Prng.create (Int64.of_int seed) in
      let rec go sys k =
        k = 0
        ||
        match random_edit rng sys with
        | None -> true
        | Some edit ->
          (match System.apply_delta sys edit with
           | exception Invalid_argument _ -> go sys (k - 1)
           | next, _ -> check_patched ~old_doc:(System.doc sys) edit next queries && go next (k - 1))
      in
      go sys 5)

let () =
  Alcotest.run "update"
    [ ( "edits",
        [ Alcotest.test_case "insert child" `Quick insert_child;
          Alcotest.test_case "delete nodes" `Quick delete_nodes;
          Alcotest.test_case "set value" `Quick set_value;
          Alcotest.test_case "invalid edits" `Quick invalid_edits;
          Alcotest.test_case "position clamping" `Quick insert_position_clamped;
          Alcotest.test_case "apply_all sequencing" `Quick apply_all_sees_earlier_edits ] );
      ( "rehost",
        [ Alcotest.test_case "secure re-host" `Quick update_rehosts_securely;
          Alcotest.test_case "value index refresh" `Quick update_changes_value_index ]
        @ List.map QCheck_alcotest.to_alcotest [ random_edits_stay_consistent ] );
      ( "delta",
        [ Alcotest.test_case "delete last node of a block" `Quick
            delta_delete_last_block_node;
          Alcotest.test_case "insert into an empty tag group" `Quick
            delta_insert_into_empty_group;
          Alcotest.test_case "stale plan re-hosts" `Quick delta_stale_plan_rehosts;
          Alcotest.test_case "superseded handles answer their document" `Quick
            superseded_handles_answer_their_document;
          Alcotest.test_case "a superseded block is rejected" `Quick superseded_block_rejected ]
        @ List.map QCheck_alcotest.to_alcotest
            [ delta_interleaving_agrees; patched_equals_built ] );
      ( "dsi gaps",
        Alcotest.test_case "between siblings" `Quick gap_insertion_between_siblings
        :: List.map QCheck_alcotest.to_alcotest [ gap_insertion_fits ] ) ]
