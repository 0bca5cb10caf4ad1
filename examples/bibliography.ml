(* A conference consortium hosts its submission/review database (DBLP-like,
   five levels deep) on an untrusted provider: author identities and review
   scores are protected.  Demonstrates the newer surface — union queries,
   document-order axes, FLWOR, explain, and an access-pattern audit of
   the leakage ledger.

     dune exec examples/bibliography.exe
*)

module System = Secure.System

let parse = Xpath.Parser.parse

(* A read on the loopback link: a failure here is a bug, not a fault. *)
let read sys request =
  match System.read sys request with
  | Ok reply -> reply
  | Error e -> failwith (Secure.Session.error_to_string e)

let () =
  let doc = Workload.Dblp.generate ~papers:120 () in
  let scs = Workload.Dblp.constraints () in
  Printf.printf "bibliography: %d nodes, height %d\n" (Xmlcore.Doc.node_count doc)
    (Xmlcore.Doc.height doc);
  List.iter (fun sc -> Printf.printf "  SC: %s\n" (Secure.Sc.to_string sc)) scs;
  let sys, setup = System.setup ~cipher:Crypto.Cipher.Aes doc scs Secure.Scheme.Opt in
  Printf.printf "hosted under AES-128: %d blocks, %d bytes on the server\n\n"
    setup.System.block_count setup.System.server_data_bytes;

  (* Union query across two protected attributes. *)
  let union = Xpath.Parser.parse_union "//review[score='5']/reviewer | //review[score='1']/reviewer" in
  let extremes = read sys (System.Union union) in
  Printf.printf "reviewers giving a 1 or a 5: %d (union query, %d blocks)\n"
    (List.length extremes.System.answers) extremes.System.cost.System.blocks_returned;

  (* Document-order axes: titles whose paper has at least two authors
     (an author with a following author sibling). *)
  let q = parse "//inproceedings[author/following-sibling::author]/title" in
  let multi, _ = System.evaluate sys q in
  Printf.printf "multi-author papers: %d\n" (List.length multi);

  (* Server-side plan introspection. *)
  let translated = Secure.Client.translate (System.client sys) q in
  List.iter
    (fun r ->
      Printf.printf "  step %d: %d -> %d candidates\n" r.Secure.Server.step_index
        r.Secure.Server.raw_candidates r.Secure.Server.surviving_candidates)
    (Secure.Server.explain (System.server sys) translated);

  (* FLWOR: strong papers per the protected review scores. *)
  let flwor =
    Xquery.Parser.parse
      "for $p in //inproceedings let $r := ./review where $r/score >= 4 \
       return <strong>{$p/title}</strong>"
  in
  let strong, _ = Xquery.Secure_run.evaluate sys flwor in
  Printf.printf "papers with a score >= 4: %d\n" (List.length strong);
  assert (
    List.map Xmlcore.Printer.tree_to_string strong
    = List.map Xmlcore.Printer.tree_to_string (Xquery.Secure_run.reference sys flwor));

  (* MIN/MAX without decryption beyond one block. *)
  let best = read sys (System.Extreme (`Max, parse "//review/score")) in
  Printf.printf "highest score: %s (%d block decrypted)\n"
    (match best.System.answers with
     | [ Xmlcore.Tree.Element (_, [ Xmlcore.Tree.Text v ]) ] -> v
     | _ -> "-")
    best.System.cost.System.blocks_returned;

  (* What the provider's logs reveal: run a session with the leakage
     ledger on, then let the simulated adversary analyse it. *)
  let ledger = System.ledger sys in
  Obs.Ledger.set_enabled ledger true;
  List.iter
    (fun qs -> ignore (System.evaluate sys (parse qs)))
    [ "//inproceedings[title='nothing']"; "//review[score='5']/reviewer";
      "//review[score='5']/reviewer"; "//series/venue";
      "//review[score='5']/reviewer" ];
  let rounds = Obs.Ledger.rounds ledger in
  let patterns =
    List.sort_uniq compare (List.map (fun r -> r.Obs.Ledger.block_ids) rounds)
  in
  let findings = Attack.Passes.run_all rounds in
  let pinned =
    List.filter (fun f -> f.Attack.Passes.candidates = 1) findings
  in
  Printf.printf
    "\naudit: %d queries, %d access patterns — the provider links %d repeats \
     by the blocks they fetch;\n%d of %d inferences pin a unique candidate\n"
    (List.length rounds) (List.length patterns)
    (List.length rounds - List.length patterns)
    (List.length pinned) (List.length findings);
  print_endline "bibliography demo done."
