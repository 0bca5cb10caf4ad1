(* A data owner's full lifecycle: host a database, persist the hosted
   bundle, reload it in a "later session", run queries and aggregates,
   apply updates, and verify the security constraints survive it all.

     dune exec examples/lifecycle.exe
*)

module System = Secure.System
module Update = Secure.Update

let parse = Xpath.Parser.parse

let show_answers label answers =
  Printf.printf "%s -> %d answer(s)\n" label (List.length answers);
  List.iter
    (fun t -> Printf.printf "    %s\n" (Xmlcore.Printer.tree_to_string t))
    answers

let () =
  let master = "lifecycle-demo-secret" in

  (* Day 0: host a 120-patient hospital database. *)
  let doc = Workload.Health.generate ~patients:120 () in
  let scs = Workload.Health.constraints () in
  let sys, setup = System.setup ~master doc scs Secure.Scheme.Opt in
  Printf.printf "hosted: %d blocks, %d bytes on the server, %d bytes metadata\n"
    setup.System.block_count setup.System.server_data_bytes
    setup.System.metadata_bytes;

  (* Persist the hosted bundle (the master secret is NOT in the file). *)
  let bundle = Filename.temp_file "lifecycle" ".sxq" in
  Secure.Persist.save sys bundle;
  Printf.printf "persisted to %s (%d bytes)\n" bundle
    (let ic = open_in_bin bundle in
     let n = in_channel_length ic in
     close_in ic;
     n);

  (* Day 1: reload and query — no re-encryption, no metadata rebuild. *)
  let sys = Secure.Persist.load ~master bundle in
  let answers, cost = System.evaluate sys (parse "//patient[.//disease='flu']/pname") in
  show_answers "flu patients" (List.filteri (fun i _ -> i < 3) answers);
  Printf.printf "  (%d blocks shipped, %.1f ms end to end)\n"
    cost.System.blocks_returned (System.total_ms cost);

  (* Aggregates: MAX ships at most one block. *)
  (match System.read sys (System.Extreme (`Max, parse "//patient/age")) with
   | Ok oldest ->
     show_answers "oldest patient age" oldest.System.answers;
     Printf.printf "  (%d block(s) shipped)\n" oldest.System.cost.System.blocks_returned
   | Error e -> failwith (Secure.Session.error_to_string e));

  (* Day 30: updates — admit a patient, correct a record, discharge one. *)
  let admit =
    Update.Insert_child
      { parent = parse "/hospital";
        position = 0;
        subtree =
          Xmlcore.Tree.element "patient"
            [ Xmlcore.Tree.leaf "pname" "Newcomer";
              Xmlcore.Tree.leaf "SSN" "999000111";
              Xmlcore.Tree.element "treat"
                [ Xmlcore.Tree.leaf "disease" "flu";
                  Xmlcore.Tree.leaf "doctor" "Lee" ];
              Xmlcore.Tree.leaf "age" "52";
              Xmlcore.Tree.element "insurance"
                [ Xmlcore.Tree.attribute "coverage" "75000";
                  Xmlcore.Tree.leaf "policy#" "55555" ] ] }
  in
  let sys, recost = System.update sys admit in
  Printf.printf "admitted 1 patient (re-host took %.0f ms: %d blocks re-encrypted)\n"
    (recost.System.scheme_build_ms +. recost.System.encrypt_ms
     +. recost.System.metadata_ms)
    recost.System.block_count;
  let answers, _ = System.evaluate sys (parse "//patient[pname='Newcomer']//disease") in
  show_answers "new patient's diseases" answers;

  (* The SCs still hold after the update. *)
  (match Secure.Scheme.enforces (System.doc sys) (System.scheme sys) scs with
   | Ok () -> print_endline "security constraints verified on the updated database"
   | Error e -> failwith e);

  (* FLWOR queries run through the same protocol: the for/where parts
     are pushed to the server as one translated XPath query, the rest
     evaluates client-side inside the returned bindings. *)
  let flwor =
    Xquery.Parser.parse
      "for $p in //patient where $p/age >= 90 order by $p/age descending \
       return <senior>{$p/pname}{$p/age}</senior>"
  in
  let rows, _ = Xquery.Secure_run.evaluate sys flwor in
  Printf.printf "XQuery: %d seniors (eldest first):\n" (List.length rows);
  List.iteri
    (fun i t ->
      if i < 3 then Printf.printf "    %s\n" (Xmlcore.Printer.tree_to_string t))
    rows;
  assert (
    List.map Xmlcore.Printer.tree_to_string rows
    = List.map Xmlcore.Printer.tree_to_string (Xquery.Secure_run.reference sys flwor));

  (* Re-persist and clean up. *)
  Secure.Persist.save sys bundle;
  let reloaded = Secure.Persist.load ~master bundle in
  assert (
    List.length (fst (System.evaluate reloaded (parse "//patient")))
    = List.length (fst (System.evaluate sys (parse "//patient"))));
  Sys.remove bundle;
  print_endline "lifecycle demo done."
