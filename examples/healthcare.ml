(* The paper's running example, end to end: the Figure 2 hospital
   database, the Example 3.1 security constraints, the four encryption
   schemes, the server metadata, the Figure 7 query translation, and
   the candidate counts behind Theorems 4.1/5.1/5.2.

     dune exec examples/healthcare.exe
*)

module System = Secure.System
module Scheme = Secure.Scheme

let section title =
  Printf.printf "\n=== %s ===\n" title

let () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in

  section "Database (Figure 2) and security constraints (Example 3.1)";
  Printf.printf "%s\n" (Xmlcore.Printer.doc_to_string ~indent:true doc);
  List.iteri (fun i sc -> Printf.printf "SC%d: %s\n" (i + 1) (Secure.Sc.to_string sc)) scs;

  section "Captured queries of SC3 (//patient:(pname, //disease))";
  let sc3 = List.nth scs 2 in
  List.iter
    (fun { Secure.Sc.query; _ } ->
      Printf.printf "  D |= %s\n" (Xpath.Ast.to_string query))
    (Secure.Sc.captured_queries doc sc3);

  section "Encryption schemes";
  List.iter
    (fun kind ->
      let scheme = Scheme.build doc scs kind in
      Printf.printf "%-4s: %2d blocks, size %2d nodes, cover = {%s}\n"
        (Scheme.kind_to_string kind) (Scheme.block_count scheme)
        (Scheme.size doc scheme)
        (String.concat ", " scheme.Scheme.covered_tags))
    Scheme.all_kinds;

  section "Hosted system under the optimal scheme";
  let sys, setup = System.setup doc scs Scheme.Opt in
  Printf.printf "server data: %d bytes; metadata: %d bytes\n"
    setup.System.server_data_bytes setup.System.metadata_bytes;
  let meta = System.metadata sys in
  Printf.printf "DSI index table: %d entries (%d intervals)\n"
    (List.length meta.Secure.Metadata.dsi_table)
    (Secure.Metadata.table_entry_count meta);
  let index = Secure.Metadata.index_summary meta in
  Printf.printf "value index: %d entries, one B-tree per attribute, height %d\n"
    index.Secure.Metadata.entries index.Secure.Metadata.height;
  Printf.printf "\nDSI index table excerpt (token -> intervals):\n";
  List.iteri
    (fun i (token, intervals) ->
      if i < 8 then begin
        let shown = if String.length token > 24 then String.sub token 0 24 ^ ".." else token in
        Printf.printf "  %-26s %s\n" shown
          (String.concat " "
             (List.map (Format.asprintf "%a" Dsi.Interval.pp) intervals))
      end)
    meta.Secure.Metadata.dsi_table;

  section "Query translation (Figure 7)";
  let q = Xpath.Parser.parse "//patient[.//insurance//@coverage>='10000']//SSN" in
  Printf.printf "original  : %s\n" (Xpath.Ast.to_string q);
  let translated = Secure.Client.translate (System.client sys) q in
  Printf.printf "translated: %s\n" (Secure.Squery.to_string translated);

  section "Query evaluation";
  List.iter
    (fun qs ->
      let query = Xpath.Parser.parse qs in
      let answers, cost = System.evaluate sys query in
      Printf.printf "%-50s -> %d answer(s), %d block(s)\n" qs
        (List.length answers) cost.System.blocks_returned;
      List.iter
        (fun t -> Printf.printf "    %s\n" (Xmlcore.Printer.tree_to_string t))
        answers)
    [ "//patient[.//insurance//@coverage>='10000']//SSN";
      "//patient[pname='Betty']//disease";
      "//treat[disease='leukemia']/doctor" ];

  section "Candidate counts (Theorems 4.1, 5.1, 5.2)";
  (* Theorem 4.1's example: frequencies 3, 4, 5 of one attribute. *)
  (match Secure.Counting.multinomial [ 3; 4; 5 ] with
   | Some n ->
     Printf.printf
       "Theorem 4.1 example: frequencies {3,4,5} admit %Ld candidate databases\n" n
   | None -> ());
  (match Secure.Counting.compositions_count ~n:15 ~k:5 with
   | Some n ->
     Printf.printf
       "Theorems 5.1/5.2 example: n=15 ciphertext values over k=5 plaintext \
        values admit %Ld assignments\n"
       n
   | None -> ());
  (* Belief trajectory of Theorem 6.1, on a production-sized hospital
     (the two-patient example is degenerate: splitting needs enough
     occurrences per value to produce n >> k ciphertext values). *)
  let big = Workload.Health.generate ~patients:300 () in
  let hist = Xmlcore.Stats.value_histogram big ~tag:"disease" in
  let k = Xmlcore.Stats.distinct_count hist in
  let cat =
    Secure.Opess.build ~key:"belief-demo" ~attr_id:0 ~tag:"disease" hist
  in
  let n = List.length (Secure.Opess.ciphertext_histogram cat) in
  Printf.printf
    "300-patient hospital, disease attribute: k=%d plaintext, n=%d ciphertext \
     values;\nattacker belief per association: %s\n"
    k n
    (String.concat " -> "
       (List.map (Printf.sprintf "%.3g")
          (Attack.Static.belief_sequence ~k ~n ~queries:3)));
  print_endline "\nhealthcare walkthrough done."
