(* Database-as-service scenario on XMark-like auction data: a site
   hosts its people directory on an untrusted provider, protecting who
   owns which credit card and related associations, then compares the
   four encryption schemes on a realistic query mix.

     dune exec examples/auction_host.exe -- [persons]
*)

module System = Secure.System
module Scheme = Secure.Scheme

let () =
  let persons =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 600
  in
  let doc = Workload.Xmark.generate ~persons () in
  let scs = Workload.Xmark.constraints () in
  Printf.printf "document: %d persons, %d nodes, %d bytes serialized\n" persons
    (Xmlcore.Doc.node_count doc)
    (String.length (Xmlcore.Printer.doc_to_string doc));
  List.iter (fun sc -> Printf.printf "  SC: %s\n" (Secure.Sc.to_string sc)) scs;

  let queries =
    List.map Xpath.Parser.parse
      [ "//person[profile/@income>=80000]/name";
        "//person[address/city='Seoul']/creditcard";
        "//person[name='Kasidit Luo']";
        "//people/person/emailaddress";
        "//profile[age>=70]" ]
  in
  Printf.printf "\n%-5s %8s %8s %9s %9s %9s %9s %8s\n" "schm" "blocks"
    "srv-MB" "setup-ms" "query-ms" "dec-ms" "post-ms" "blk/qry";
  List.iter
    (fun kind ->
      let sys, setup = System.setup doc scs kind in
      let totals = ref 0.0 and dec = ref 0.0 and post = ref 0.0 and blk = ref 0 in
      List.iter
        (fun q ->
          let answers, cost = System.evaluate sys q in
          (* Protocol answers must match plaintext evaluation. *)
          assert (
            List.length answers = List.length (System.reference sys q));
          totals := !totals +. System.total_ms cost;
          dec := !dec +. cost.System.decrypt_ms;
          post := !post +. cost.System.postprocess_ms;
          blk := !blk + cost.System.blocks_returned)
        queries;
      let n = float_of_int (List.length queries) in
      Printf.printf "%-5s %8d %8.2f %9.0f %9.1f %9.1f %9.1f %8d\n"
        (Scheme.kind_to_string kind) setup.System.block_count
        (float_of_int setup.System.server_data_bytes /. 1e6)
        (setup.System.scheme_build_ms +. setup.System.encrypt_ms
         +. setup.System.metadata_ms)
        (!totals /. n) (!dec /. n) (!post /. n)
        (!blk / List.length queries))
    Scheme.all_kinds;

  (* Against the naive ship-everything method. *)
  let sys, _ = System.setup doc scs Scheme.Opt in
  let q = List.hd queries in
  let _, secure_cost = System.evaluate sys q in
  let naive_cost =
    match System.read sys (System.Naive q) with
    | Ok reply -> reply.System.cost
    | Error e -> failwith (Secure.Session.error_to_string e)
  in
  Printf.printf
    "\nnaive method on the first query: %.1f ms vs %.1f ms secure (%.0f%% saved)\n"
    (System.total_ms naive_cost) (System.total_ms secure_cost)
    (100.0
     *. (System.total_ms naive_cost -. System.total_ms secure_cost)
     /. System.total_ms naive_cost);
  print_endline "auction hosting demo done."
