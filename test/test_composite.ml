(* Composite (skeleton + decrypted blocks) navigation tests — the
   client-side evaluation substrate, exercised directly at the edges
   where navigation crosses a block boundary. *)

module Doc = Xmlcore.Doc
module Tree = Xmlcore.Tree
module Composite = Secure.Composite
module Nav = Composite.Navigation

(* Fixture: hospital doc with the two pname leaves and one treat
   subtree encrypted; build the composite with all blocks returned,
   some returned, none returned. *)
let fixture ~return_blocks =
  let doc = Workload.Health.doc () in
  let keys = Crypto.Keys.create ~master:"composite-test" () in
  let roots =
    List.concat
      [ Doc.nodes_with_tag doc "pname";
        [ List.hd (Doc.nodes_with_tag doc "treat") ] ]
  in
  let scheme =
    { Secure.Scheme.kind = Secure.Scheme.Opt;
      block_roots = List.sort compare roots;
      covered_tags = [] }
  in
  let db = Secure.Encrypt.encrypt ~keys doc scheme in
  let skeleton_doc = db.Secure.Encrypt.skeleton in
  let anchors =
    Doc.fold skeleton_doc
      (fun acc n ->
        match Secure.Encrypt.placeholder_id (Doc.tag skeleton_doc n) with
        | Some id -> (id, n) :: acc
        | None -> acc)
      []
  in
  let decrypted =
    List.filter_map
      (fun b ->
        if return_blocks b.Secure.Encrypt.id then
          Some (b.Secure.Encrypt.id, Secure.Encrypt.decrypt_block ~keys b)
        else None)
      db.Secure.Encrypt.blocks
  in
  doc, Composite.create (Composite.prepare skeleton_doc ~anchors) ~blocks:decrypted

let tags view nodes = List.map (Nav.tag view) nodes

(* The navigation the evaluator uses: set-at-a-time steps. *)
module Forest = Xmlcore.Forest

let step view n axis = Nav.step view (Some [ n ]) axis Xpath.Ast.Wildcard

(* Every visible node, attributes included: one descendant step from
   the document node per tag of the original document. *)
let all_nodes doc view =
  List.sort_uniq Nav.compare_node
    (List.concat_map
       (fun tag -> Nav.step view None Forest.Descendant (Xpath.Ast.Tag tag))
       (List.sort_uniq String.compare (List.map (Doc.tag doc) (Doc.descendant_or_self doc 0))))

let parent view n =
  match step view n Forest.Parent with
  | [ p ] -> Some p
  | _ -> None

let all_returned () =
  let doc, view = fixture ~return_blocks:(fun _ -> true) in
  (* The composite sees exactly the original document. *)
  let all = all_nodes doc view in
  Alcotest.(check int) "node count matches original" (Doc.node_count doc)
    (List.length all);
  let originals =
    List.sort compare (List.map (fun n -> Doc.tag doc n) (Doc.descendant_or_self doc 0))
  in
  Alcotest.(check (list string)) "same multiset of tags" originals
    (List.sort compare (tags view all))

let none_returned () =
  let doc, view = fixture ~return_blocks:(fun _ -> false) in
  (* Unreturned blocks vanish: no pname, one fewer treat. *)
  let all = all_nodes doc view in
  let count tag = List.length (List.filter (fun n -> Nav.tag view n = tag) all) in
  Alcotest.(check int) "pnames pruned" 0 (count "pname");
  Alcotest.(check int) "one treat pruned" 3 (count "treat");
  Alcotest.(check int) "patients intact" 2 (count "patient");
  ignore doc

let parent_across_boundary () =
  let doc, view = fixture ~return_blocks:(fun _ -> true) in
  (* A pname node lives inside a block; its parent is the patient in
     the skeleton. *)
  let pname =
    List.find (fun n -> Nav.tag view n = "pname") (all_nodes doc view)
  in
  (match parent view pname with
   | Some p -> Alcotest.(check string) "parent is patient" "patient" (Nav.tag view p)
   | None -> Alcotest.fail "pname should have a parent");
  (* Root has none. *)
  Alcotest.(check bool) "root parentless" true
    (parent view (Nav.root view) = None);
  (* Inside a multi-node block, parent stays within the block. *)
  let disease =
    List.find (fun n -> Nav.tag view n = "disease") (all_nodes doc view)
  in
  (match parent view disease with
   | Some p -> Alcotest.(check string) "parent within block" "treat" (Nav.tag view p)
   | None -> Alcotest.fail "disease should have a parent")

let siblings_across_boundary () =
  let doc, view = fixture ~return_blocks:(fun _ -> true) in
  (* pname (block root) is followed by SSN (plaintext skeleton node). *)
  let pname =
    List.find (fun n -> Nav.tag view n = "pname") (all_nodes doc view)
  in
  (match step view pname Forest.Following_sibling with
   | first :: _ -> Alcotest.(check string) "SSN follows pname" "SSN" (Nav.tag view first)
   | [] -> Alcotest.fail "pname should have following siblings");
  (* An encrypted treat is followed by its plaintext sibling treat. *)
  let first_treat =
    List.find (fun n -> Nav.tag view n = "treat") (all_nodes doc view)
  in
  (match step view first_treat Forest.Following_sibling with
   | first :: _ -> Alcotest.(check string) "treat follows treat" "treat" (Nav.tag view first)
   | [] -> Alcotest.fail "first treat should have following siblings")

let unreturned_sibling_invisible () =
  let doc, view = fixture ~return_blocks:(fun _ -> false) in
  (* With pname blocks pruned, each patient's first child is SSN. *)
  let patients =
    List.filter (fun n -> Nav.tag view n = "patient") (all_nodes doc view)
  in
  List.iter
    (fun p ->
      match step view p Forest.Child with
      | first :: _ -> Alcotest.(check string) "first child now SSN" "SSN" (Nav.tag view first)
      | [] -> Alcotest.fail "patient should have children")
    patients

let subtree_materialisation () =
  let doc, view = fixture ~return_blocks:(fun _ -> true) in
  (* Materialising the composite root reproduces the original tree. *)
  Alcotest.(check bool) "subtree = original document" true
    (Tree.equal (Composite.subtree view (Nav.root view)) (Doc.to_tree doc))

let document_order () =
  let _, view = fixture ~return_blocks:(fun _ -> true) in
  (* Skeleton nodes and returned blocks merge in document order. *)
  let all = Nav.step view None Forest.Descendant Xpath.Ast.Wildcard in
  let sorted = List.sort Nav.compare_node all in
  Alcotest.(check (list string)) "a step's nodes already in document order"
    (tags view all) (tags view sorted)

(* Property: evaluating over a composite with an arbitrary subset of
   blocks returned equals evaluating over the document with the
   unreturned blocks' subtrees deleted. *)
let pruning_matches_reference =
  QCheck.Test.make ~name:"partial composite = pruned document" ~count:60
    QCheck.(pair Helpers.arbitrary_doc (int_bound 1023))
    (fun (doc, mask) ->
      let keys = Crypto.Keys.create ~master:"composite-prop" () in
      (* Encrypt every 'b' and 'name' node that is not nested in
         another chosen root. *)
      let roots =
        List.filter
          (fun n ->
            let tag = Xmlcore.Doc.tag doc n in
            String.equal tag "b" || String.equal tag "name")
          (Xmlcore.Doc.descendant_or_self doc 0)
      in
      let rec drop_nested = function
        | [] -> []
        | r :: rest ->
          r :: drop_nested
                 (List.filter (fun r' -> not (Xmlcore.Doc.is_ancestor doc r r')) rest)
      in
      let roots = drop_nested (List.sort compare roots) in
      roots = []
      ||
      let scheme =
        { Secure.Scheme.kind = Secure.Scheme.Opt; block_roots = roots; covered_tags = [] }
      in
      let db = Secure.Encrypt.encrypt ~keys doc scheme in
      let skeleton_doc = db.Secure.Encrypt.skeleton in
      let anchors =
        Doc.fold skeleton_doc
          (fun acc n ->
            match Secure.Encrypt.placeholder_id (Doc.tag skeleton_doc n) with
            | Some id -> (id, n) :: acc
            | None -> acc)
          []
      in
      let returned b = mask land (1 lsl (b.Secure.Encrypt.id mod 10)) <> 0 in
      let decrypted =
        List.filter_map
          (fun b ->
            if returned b then
              Some (b.Secure.Encrypt.id, Secure.Encrypt.decrypt_block ~keys b)
            else None)
          db.Secure.Encrypt.blocks
      in
      let view = Composite.create (Composite.prepare skeleton_doc ~anchors) ~blocks:decrypted in
      (* Reference: delete unreturned roots from the plaintext doc. *)
      let removed =
        List.filter_map
          (fun b -> if returned b then None else Some b.Secure.Encrypt.root)
          db.Secure.Encrypt.blocks
      in
      let rec prune n =
        if List.mem n removed then None
        else
          match Doc.value doc n with
          | Some v -> Some (Tree.leaf (Doc.tag doc n) v)
          | None ->
            Some
              (Tree.element (Doc.tag doc n)
                 (List.filter_map prune (Doc.children doc n)))
      in
      match prune (Doc.root doc) with
      | None -> true
      | Some pruned_tree ->
        let reference = Doc.of_tree pruned_tree in
        List.for_all
          (fun q ->
            let query = Xpath.Parser.parse q in
            let via_composite =
              List.map (Composite.subtree view) (Composite.Eval.eval view query)
            in
            let via_reference =
              List.map (Doc.subtree reference) (Xpath.Eval.eval reference query)
            in
            Helpers.norm_trees via_composite = Helpers.norm_trees via_reference)
          [ "//a"; "//b"; "//name"; "//item[price>=20]"; "//a//b"; "//b/.." ])

let () =
  Alcotest.run "composite"
    [ ( "navigation",
        [ Alcotest.test_case "all blocks returned" `Quick all_returned;
          Alcotest.test_case "no blocks returned" `Quick none_returned;
          Alcotest.test_case "parent across boundary" `Quick parent_across_boundary;
          Alcotest.test_case "siblings across boundary" `Quick siblings_across_boundary;
          Alcotest.test_case "unreturned siblings invisible" `Quick
            unreturned_sibling_invisible;
          Alcotest.test_case "subtree materialisation" `Quick subtree_materialisation;
          Alcotest.test_case "document order" `Quick document_order ]
        @ List.map QCheck_alcotest.to_alcotest [ pruning_matches_reference ] ) ]
