(* sxq — secure XML query tool.

   Command-line front end for the library: generate workload documents,
   inspect their statistics, host them under an encryption scheme and
   run queries through the full client/server protocol, or run the
   attack simulators against them. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let doc_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml"
         ~doc:"XML document file.")

let scheme_arg =
  let parse = function
    | "opt" -> Ok Secure.Scheme.Opt
    | "app" -> Ok Secure.Scheme.App
    | "sub" -> Ok Secure.Scheme.Sub
    | "top" -> Ok Secure.Scheme.Top
    | s -> Error (`Msg (Printf.sprintf "unknown scheme %S (opt|app|sub|top)" s))
  in
  let print fmt k = Format.pp_print_string fmt (Secure.Scheme.kind_to_string k) in
  Arg.(value & opt (conv (parse, print)) Secure.Scheme.Opt
       & info [ "s"; "scheme" ] ~docv:"SCHEME"
           ~doc:"Encryption scheme: opt, app, sub or top.")

let sc_arg =
  Arg.(value & opt_all string [] & info [ "c"; "constraint" ] ~docv:"SC"
         ~doc:"Security constraint, e.g. //insurance or \
               //patient:(/pname,/SSN).  Repeatable.")

let master_arg =
  Arg.(value & opt string "sxq-master-key" & info [ "k"; "key" ] ~docv:"KEY"
         ~doc:"Master secret for key derivation.")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Size of the domain pool used for hosting and evaluation.  The \
               default 1 is fully sequential; any other value changes only \
               wall-clock time, never answers or wire traffic.")

(* [f] gets [None] for --domains 1 so the sequential code path is
   byte-for-byte the pre-pool one; otherwise the pool is torn down
   (domains joined) before the command returns. *)
let with_pool domains f =
  if domains <= 1 then f None
  else begin
    let pool = Parallel.Pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () -> f (Some pool))
  end

let load_doc path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Xmlcore.Parser.parse_doc s

let parse_scs = List.map Secure.Sc.parse

(* One read through the secure protocol; a link that gives up is
   reported, not raised. *)
let read sys request =
  match Secure.System.read sys request with
  | Ok reply -> reply
  | Error e ->
    Printf.eprintf "sxq: read failed: %s\n" (Secure.Session.error_to_string e);
    exit 1

(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate_cmd =
  let workload_arg =
    Arg.(required
         & pos 0
             (some
                (enum
                   [ "xmark", `Xmark; "nasa", `Nasa; "health", `Health;
                     "dblp", `Dblp ]))
             None
         & info [] ~docv:"WORKLOAD" ~doc:"xmark, nasa, health or dblp.")
  in
  let size_arg =
    Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N"
           ~doc:"Record count (persons / datasets / patients).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE"
           ~doc:"Output file (stdout otherwise).")
  in
  let run workload n seed out =
    let seed = Int64.of_int seed in
    let doc =
      match workload with
      | `Xmark -> Workload.Xmark.generate ~seed ~persons:n ()
      | `Nasa -> Workload.Nasa.generate ~seed ~datasets:n ()
      | `Health -> Workload.Health.generate ~seed ~patients:n ()
      | `Dblp -> Workload.Dblp.generate ~seed ~papers:n ()
    in
    let s = Xmlcore.Printer.doc_to_string ~indent:true doc in
    match out with
    | None -> print_string s
    | Some path ->
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      Printf.printf "wrote %d bytes (%d nodes) to %s\n" (String.length s)
        (Xmlcore.Doc.node_count doc) path
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic workload document.")
    Term.(const run $ workload_arg $ size_arg $ seed_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

(* Emit a JSON value only after checking it survives our own parser —
   every machine-readable sink is self-validating. *)
let print_json_checked j =
  let s = Obs.Json.to_string ~indent:true j in
  match Obs.Json.of_string s with
  | Ok j' when Obs.Json.equal j j' -> print_endline s
  | Ok _ | Error _ ->
    prerr_endline "sxq: internal error: JSON sink failed round-trip validation";
    exit 2

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let stats_cmd =
  let queries_arg =
    Arg.(value & opt_all string [] & info [ "q"; "query" ] ~docv:"XPATH"
           ~doc:"Host the document, evaluate $(docv) through the protocol, and \
                 report the observability counters and leakage ledger for the \
                 run.  Repeatable.")
  in
  let census_json doc =
    Obs.Json.Obj
      [ "nodes", Obs.Json.Int (Xmlcore.Doc.node_count doc);
        "height", Obs.Json.Int (Xmlcore.Doc.height doc);
        "bytes", Obs.Json.Int (String.length (Xmlcore.Printer.doc_to_string doc));
        "tags",
        Obs.Json.Obj
          (List.map
             (fun (tag, c) -> tag, Obs.Json.Int c)
             (Xmlcore.Stats.tag_census doc));
        "leaf_attributes",
        Obs.Json.Obj
          (List.map
             (fun (tag, h) ->
               ( tag,
                 Obs.Json.Obj
                   [ "values", Obs.Json.Int (Xmlcore.Stats.total_count h);
                     "distinct", Obs.Json.Int (Xmlcore.Stats.distinct_count h);
                     "flatness", Obs.Json.Float (Xmlcore.Stats.flatness h) ] ))
             (Xmlcore.Stats.all_histograms doc)) ]
  in
  let census_text doc =
    Printf.printf "nodes: %d   height: %d   serialized: %d bytes\n"
      (Xmlcore.Doc.node_count doc) (Xmlcore.Doc.height doc)
      (String.length (Xmlcore.Printer.doc_to_string doc));
    Printf.printf "\ntag census:\n";
    List.iter
      (fun (tag, c) -> Printf.printf "  %-20s %d\n" tag c)
      (Xmlcore.Stats.tag_census doc);
    Printf.printf "\nleaf attributes:\n";
    List.iter
      (fun (tag, h) ->
        Printf.printf "  %-20s %4d values, %4d distinct, flatness %.2f\n" tag
          (Xmlcore.Stats.total_count h)
          (Xmlcore.Stats.distinct_count h)
          (Xmlcore.Stats.flatness h))
      (Xmlcore.Stats.all_histograms doc)
  in
  let run path queries scs scheme master json =
    let doc = load_doc path in
    match queries with
    | [] -> if json then print_json_checked (census_json doc) else census_text doc
    | queries ->
      let sys, _ = Secure.System.setup ~master doc (parse_scs scs) scheme in
      Obs.Metric.set_enabled Obs.Metric.default true;
      Obs.Metric.reset Obs.Metric.default;
      Obs.Ledger.set_enabled (Secure.System.ledger sys) true;
      List.iter
        (fun q -> ignore (Secure.System.evaluate sys (Xpath.Parser.parse q)))
        queries;
      let reg = Obs.Metric.default in
      let ledger = Secure.System.ledger sys in
      if json then
        print_json_checked
          (Obs.Json.Obj
             [ "document", census_json doc;
               "metrics", Obs.Metric.to_json reg;
               "ledger", Obs.Ledger.to_json ledger ])
      else begin
        census_text doc;
        Printf.printf "\nmetrics (%d queries evaluated):\n%s"
          (List.length queries) (Obs.Metric.render reg);
        Printf.printf "\nleakage ledger:\n%s" (Obs.Ledger.render ledger)
      end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Show document statistics (the attacker's view); with $(b,--query), \
             also the observability counters and leakage ledger of evaluating \
             the given queries through the protocol.")
    Term.(const run $ doc_file_arg $ queries_arg $ sc_arg $ scheme_arg
          $ master_arg $ json_flag)

(* ------------------------------------------------------------------ *)
(* host                                                                *)

let host_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Persist the hosted bundle for later $(b,query --hosted) runs.")
  in
  let run path scs scheme master out domains =
    with_pool domains @@ fun pool ->
    let doc = load_doc path in
    let scs = parse_scs scs in
    let sys, cost = Secure.System.setup ~master ?pool doc scs scheme in
    (match out with
     | None -> ()
     | Some file ->
       Secure.Persist.save sys file;
       Printf.printf "hosted bundle written to %s\n" file);
    let meta = Secure.System.metadata sys in
    Printf.printf "scheme %s: %d blocks, %d nodes encrypted (cover: %s)\n"
      (Secure.Scheme.kind_to_string scheme) cost.Secure.System.block_count
      cost.Secure.System.scheme_size_nodes
      (String.concat ", " (Secure.System.scheme sys).Secure.Scheme.covered_tags);
    Printf.printf "setup: scheme %.1f ms, encrypt %.1f ms, metadata %.1f ms\n"
      cost.Secure.System.scheme_build_ms cost.Secure.System.encrypt_ms
      cost.Secure.System.metadata_ms;
    Printf.printf "server data: %d bytes;  metadata: %d bytes\n"
      cost.Secure.System.server_data_bytes cost.Secure.System.metadata_bytes;
    let index = Secure.Metadata.index_summary meta in
    Printf.printf
      "DSI table: %d tokens, %d intervals;  value index: %d entries, height %d\n"
      (List.length meta.Secure.Metadata.dsi_table)
      (Secure.Metadata.table_entry_count meta)
      index.Secure.Metadata.entries index.Secure.Metadata.height
  in
  Cmd.v
    (Cmd.info "host"
       ~doc:"Build the hosted (encrypted) form of a document and report sizes.")
    Term.(const run $ doc_file_arg $ sc_arg $ scheme_arg $ master_arg $ out_arg
          $ domains_arg)

(* ------------------------------------------------------------------ *)
(* verify                                                              *)

let verify_cmd =
  let bundle_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BUNDLE"
           ~doc:"Hosted bundle file written by $(b,host -o).")
  in
  let run path master =
    let report = Secure.Persist.verify_file ~master path in
    Printf.printf "%s: %d bytes\n" path report.Secure.Persist.file_bytes;
    Printf.printf "sections:\n";
    List.iter
      (fun (name, status) ->
        let s =
          match status with
          | Secure.Persist.Section_ok -> "ok"
          | Secure.Persist.Section_failed m -> "FAILED (" ^ m ^ ")"
          | Secure.Persist.Section_unreached -> "unreached"
        in
        Printf.printf "  %-16s %s\n" name s)
      report.Secure.Persist.sections;
    Printf.printf "blocks: %d/%d decrypt ok\n"
      (report.Secure.Persist.blocks_total
       - List.length report.Secure.Persist.blocks_bad)
      report.Secure.Persist.blocks_total;
    List.iter
      (fun (id, why) -> Printf.printf "  block %d: %s\n" id why)
      report.Secure.Persist.blocks_bad;
    Printf.printf "verdict: %s\n"
      (Secure.Persist.verdict_to_string report.Secure.Persist.verdict);
    (* Delta-log fsck: complete records are authenticated and replayed
       in memory against their stored digests.  A torn tail is a crash
       artifact the journal recovers from (warning only); tampering or
       a replay divergence is as fatal as a bad bundle. *)
    let log_failed =
      match Secure.Persist.fsck_log ~master path with
      | None -> false
      | Some l ->
        Printf.printf "delta log: %d bytes, %d record(s), %d pending\n"
          l.Secure.Persist.log_bytes l.Secure.Persist.log_records
          l.Secure.Persist.log_pending;
        if l.Secure.Persist.log_dropped_bytes > 0 then
          Printf.printf
            "  torn tail: %d byte(s) dropped (recoverable; the journal \
             truncates them on open)\n"
            l.Secure.Persist.log_dropped_bytes;
        (match l.Secure.Persist.log_fatal with
         | Some m -> Printf.printf "  TAMPERED: %s\n" m
         | None -> ());
        (match l.Secure.Persist.log_replay with
         | Some m -> Printf.printf "  replay FAILED: %s\n" m
         | None ->
           if l.Secure.Persist.log_fatal = None then
             Printf.printf "  replay: ok\n");
        l.Secure.Persist.log_fatal <> None
        || l.Secure.Persist.log_replay <> None
    in
    if report.Secure.Persist.verdict <> Secure.Persist.Intact || log_failed
    then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check a hosted bundle's integrity (magic, framing, HMAC trailer, \
             per-section decodability, per-block decryptability) plus its \
             delta log (per-record authentication, torn-tail vs tampering, \
             replay validation) and report a per-section status instead of a \
             bare Corrupt exception.")
    Term.(const run $ bundle_arg $ master_arg)

(* ------------------------------------------------------------------ *)
(* query                                                               *)

let query_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH"
           ~doc:"XPath query to evaluate through the protocol.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the translated query.")
  in
  let hosted_arg =
    Arg.(value & flag & info [ "hosted" ]
           ~doc:"Treat DOC as a persisted bundle from $(b,host -o) instead of \
                 XML (skips setup).")
  in
  let run path query scs scheme master verbose hosted domains =
    with_pool domains @@ fun pool ->
    let sys =
      if hosted then
        (try Secure.Persist.load ~master path
         with Secure.Persist.Corrupt m ->
           Printf.eprintf
             "sxq: cannot load %s: %s\n(run `sxq verify %s` for a per-section \
              diagnosis)\n"
             path m path;
           exit 1)
      else begin
        let doc = load_doc path in
        let scs = parse_scs scs in
        fst (Secure.System.setup ~master ?pool doc scs scheme)
      end
    in
    let branches = Xpath.Parser.parse_union query in
    if verbose then
      List.iter
        (fun q ->
          let translated = Secure.Client.translate (Secure.System.client sys) q in
          Printf.printf "translated: %s\n" (Secure.Squery.to_string translated);
          List.iter
            (fun r ->
              Printf.printf "  step %d: %d candidates -> %d surviving\n"
                r.Secure.Server.step_index r.Secure.Server.raw_candidates
                r.Secure.Server.surviving_candidates)
            (Secure.Server.explain (Secure.System.server sys) translated))
        branches;
    let answers, cost =
      match branches with
      | [ q ] -> Secure.System.evaluate sys q
      | many ->
        let reply = read sys (Secure.System.Union many) in
        reply.Secure.System.answers, reply.Secure.System.cost
    in
    List.iter
      (fun t -> print_endline (Xmlcore.Printer.tree_to_string t))
      answers;
    Printf.eprintf
      "%d answer(s); %d block(s), %d bytes shipped; translate %.2f + server \
       %.2f + transmit %.2f + decrypt %.2f + post %.2f = %.2f ms\n"
      cost.Secure.System.answer_count cost.Secure.System.blocks_returned
      cost.Secure.System.transmit_bytes cost.Secure.System.translate_ms
      cost.Secure.System.server_ms cost.Secure.System.transmit_ms
      cost.Secure.System.decrypt_ms cost.Secure.System.postprocess_ms
      (Secure.System.total_ms cost)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Evaluate an XPath query through the full secure protocol.")
    Term.(const run $ doc_file_arg $ query_arg $ sc_arg $ scheme_arg $ master_arg
          $ verbose_arg $ hosted_arg $ domains_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH"
           ~doc:"XPath query to explain and evaluate through the engine.")
  in
  let rounds_arg =
    Arg.(value & opt int 2 & info [ "rounds" ] ~docv:"N"
           ~doc:"Evaluation rounds (round 1 is cold, later rounds show \
                 cache behaviour).")
  in
  let print_report round (report : Engine.report) =
    Printf.printf "round %d: result %s, blocks %d cached / %d shipped\n" round
      (Engine.outcome_to_string report.Engine.result_outcome)
      report.Engine.block_hits report.Engine.block_misses;
    Printf.printf
      "  %d answer(s); %d block(s), %d bytes on the wire; server %.2f + \
       decrypt %.2f ms\n"
      report.Engine.answer_count report.Engine.blocks_returned
      report.Engine.transmit_bytes report.Engine.server_ms report.Engine.decrypt_ms
  in
  let run path query scs scheme master rounds =
    let doc = load_doc path in
    let scs = parse_scs scs in
    let sys = fst (Secure.System.setup ~master doc scs scheme) in
    let q = Xpath.Parser.parse query in
    let squery = Secure.Client.translate (Secure.System.client sys) q in
    (* Translation keeps the query's steps, so report i is step i. *)
    let steps = Array.of_list q.Xpath.Ast.steps in
    Printf.printf "%-6s %-30s %12s %12s\n" "step" "xpath" "candidates" "surviving";
    List.iter
      (fun (s : Secure.Server.step_report) ->
        let i = s.Secure.Server.step_index in
        Printf.printf "%-6d %-30s %12d %12d\n" i
          (Xpath.Ast.to_string (Xpath.Ast.path ~absolute:true [ steps.(i) ]))
          s.Secure.Server.raw_candidates s.Secure.Server.surviving_candidates)
      (Secure.Server.explain (Secure.System.server sys) squery);
    let engine = Engine.create sys in
    for round = 1 to Int.max 1 rounds do
      print_report round (snd (Engine.evaluate_report engine q))
    done;
    Printf.printf "engine: %s\n" (Engine.Stats.to_string (Engine.stats engine))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the server's per-step candidate counts for an XPath query \
             and each engine round's cache outcomes.")
    Term.(const run $ doc_file_arg $ query_arg $ sc_arg $ scheme_arg
          $ master_arg $ rounds_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

let trace_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH"
           ~doc:"XPath query to trace through the protocol.")
  in
  let engine_arg =
    Arg.(value & flag & info [ "engine" ]
           ~doc:"Evaluate through the caching engine instead of the plain \
                 protocol (adds engine.* spans and cache outcomes).")
  in
  let rounds_arg =
    Arg.(value & opt int 1 & info [ "rounds" ] ~docv:"N"
           ~doc:"Evaluation rounds (each produces one root span; with \
                 $(b,--engine), later rounds show cache hits).")
  in
  let run path query scs scheme master engine_mode rounds json =
    let doc = load_doc path in
    let sys, _ = Secure.System.setup ~master doc (parse_scs scs) scheme in
    let trace = Secure.System.tracer sys in
    let ledger = Secure.System.ledger sys in
    Obs.Trace.set_enabled trace true;
    Obs.Ledger.set_enabled ledger true;
    let q = Xpath.Parser.parse query in
    let eng = if engine_mode then Some (Engine.create sys) else None in
    let answers = ref [] in
    for _ = 1 to Int.max 1 rounds do
      match eng with
      | Some eng -> answers := Engine.evaluate eng q
      | None -> answers := fst (Secure.System.evaluate sys q)
    done;
    if json then
      print_json_checked
        (Obs.Json.Obj
           [ "query", Obs.Json.Str query;
             "answers", Obs.Json.Int (List.length !answers);
             "trace", Obs.Trace.to_json trace;
             "ledger", Obs.Ledger.to_json ledger ])
    else begin
      print_string (Obs.Trace.render trace);
      Printf.printf "\nleakage ledger:\n%s" (Obs.Ledger.render ledger);
      Printf.printf "\n%d answer(s)\n" (List.length !answers)
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Evaluate an XPath query with structured tracing enabled and dump \
             the span tree (deterministic tick counter, never wall clock) \
             together with the leakage ledger.")
    Term.(const run $ doc_file_arg $ query_arg $ sc_arg $ scheme_arg $ master_arg
          $ engine_arg $ rounds_arg $ json_flag)

(* ------------------------------------------------------------------ *)
(* aggregate                                                           *)

let aggregate_cmd =
  let dir_arg =
    Arg.(required & pos 1 (some (enum [ "min", `Min; "max", `Max ])) None
         & info [] ~docv:"MIN|MAX" ~doc:"Aggregate function.")
  in
  let path_arg =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"XPATH"
           ~doc:"Query whose answers are aggregated.")
  in
  let run path dir query scs scheme master =
    let doc = load_doc path in
    let sys, _ = Secure.System.setup ~master doc (parse_scs scs) scheme in
    let q = Xpath.Parser.parse query in
    let { Secure.System.answers; cost } = read sys (Secure.System.Extreme (dir, q)) in
    print_endline
      (match answers with
       | [ Xmlcore.Tree.Element (_, [ Xmlcore.Tree.Text v ]) ] -> v
       | _ -> "(no answers)");
    Printf.eprintf "%d block(s) shipped, %.2f ms\n" cost.Secure.System.blocks_returned
      (Secure.System.total_ms cost)
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:"MIN/MAX over a query's answers (Section 6.4: at most one block \
             is decrypted for structural queries).")
    Term.(const run $ doc_file_arg $ dir_arg $ path_arg $ sc_arg $ scheme_arg
          $ master_arg)

(* ------------------------------------------------------------------ *)
(* xquery                                                              *)

let xquery_cmd =
  let flwor_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FLWOR"
           ~doc:"FLWOR expression, e.g. \"for \\$p in //patient where \
                 \\$p/age >= 40 return <r>{\\$p/pname}</r>\".")
  in
  let run path flwor scs scheme master =
    let doc = load_doc path in
    let sys, _ = Secure.System.setup ~master doc (parse_scs scs) scheme in
    let q = Xquery.Parser.parse flwor in
    let results, cost = Xquery.Secure_run.evaluate sys q in
    List.iter (fun t -> print_endline (Xmlcore.Printer.tree_to_string t)) results;
    Printf.eprintf "%d result(s); %d block(s), %.2f ms\n" (List.length results)
      cost.Secure.System.blocks_returned (Secure.System.total_ms cost)
  in
  Cmd.v
    (Cmd.info "xquery"
       ~doc:"Evaluate a FLWOR expression through the secure protocol.")
    Term.(const run $ doc_file_arg $ flwor_arg $ sc_arg $ scheme_arg $ master_arg)

(* ------------------------------------------------------------------ *)
(* attack                                                              *)

(* The adversary simulator (lib/attack).  Three modes:
   - live (default): host a document, run a workload through the
     mitigation layer, then run the inference passes over the captured
     leakage ledger's rounds (the server's observation trace) and score
     the candidate sets against the budget declaration;
   - [--trace FILE]: replay an exported ledger capture offline (a bare
     ledger object or the {"tenants":[...]} wrapper that
     [sxq serve --trace-out] writes);
   - [DOC.xml --tag TAG]: the original paper demo — frequency attack on
     one attribute under deterministic vs. OPESS encodings.
   Exit 1 on a budget violation or an unparseable budget (fail closed),
   exit 2 when a trace file fails round-trip validation. *)

let attack_cmd =
  let doc_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"DOC.xml"
           ~doc:"Document to host for the live audit (a built-in health \
                 hosting is used when omitted).")
  in
  let tag_arg =
    Arg.(value & opt (some string) None & info [ "tag" ] ~docv:"TAG"
           ~doc:"Legacy demo: frequency-attack leaf attribute $(docv) of \
                 DOC.xml under deterministic vs. OPESS encodings, then exit.")
  in
  let trace_arg =
    Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Replay an exported leakage trace offline instead of running \
                 a live workload.  $(docv) is either a bare ledger object or \
                 the tenants wrapper written by sxq serve --trace-out; a \
                 capture that does not survive the ledger JSON round trip is \
                 rejected with exit 2.")
  in
  let budget_arg =
    Arg.(value & opt string "attack.budget" & info [ "budget" ] ~docv:"FILE"
           ~doc:"Leakage budget declaration to enforce (minimum candidate-set \
                 size per fact class; see docs/SECURITY.md).")
  in
  let mitigate_arg =
    Arg.(value & opt string "budget" & info [ "mitigate" ] ~docv:"SPEC"
           ~doc:"Mitigations for the live workload: $(b,budget) buys exactly \
                 what the declaration lists, $(b,off) buys none, or a \
                 comma-separated subset of pad, dummy, shuffle.")
  in
  let query_args =
    Arg.(value & opt_all string [] & info [ "q"; "query" ] ~docv:"XPATH"
           ~doc:"Live-workload query (repeatable).  Required when DOC.xml is \
                 given; defaults to the fixed health workload otherwise.")
  in
  let rounds_arg =
    Arg.(value & opt int 2 & info [ "rounds" ] ~docv:"N"
           ~doc:"Times the live workload is submitted (one batch each).")
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED"
           ~doc:"PRNG seed for the mitigation layer (dummy-block choice, \
                 batch shuffling).  Same seed, same trace.")
  in
  let legacy_demo path tag =
    let doc = load_doc path in
    let known = Xmlcore.Stats.value_histogram doc ~tag in
    if known = [] then Printf.printf "no values under tag %S\n" tag
    else begin
      let broken =
        Attack.Static.frequency_attack ~known
          ~observed:(Attack.Static.deterministic_leaf_histogram known)
      in
      let cat = Secure.Opess.build ~key:"sxq-attack" ~attr_id:0 ~tag known in
      let secured =
        Attack.Static.frequency_attack ~known
          ~observed:(Secure.Opess.scaled_histogram cat)
      in
      Printf.printf
        "frequency attack on %S (%d distinct values):\n\
        \  deterministic per-leaf encryption: %3.0f%% cracked\n\
        \  OPESS split+scale index:           %3.0f%% cracked\n"
        tag broken.Attack.Static.domain_size
        (100.0 *. broken.Attack.Static.crack_rate)
        (100.0 *. secured.Attack.Static.crack_rate)
    end
  in
  let load_budget path =
    match Attack.Budget.load path with
    | Ok b -> b
    | Error msg ->
      Printf.eprintf "sxq attack: budget %s: %s (failing closed)\n" path msg;
      exit 1
  in
  let mitigation_config budget = function
    | "off" -> Attack.Mitigate.off
    | "budget" -> Attack.Mitigate.of_budget budget
    | spec ->
      let names =
        List.filter (fun s -> s <> "") (String.split_on_char ',' spec)
      in
      (match
         List.find_opt
           (fun n -> not (List.mem n Attack.Budget.mitigation_names))
           names
       with
       | Some bad ->
         Printf.eprintf "sxq attack: unknown mitigation %S (have: %s)\n" bad
           (String.concat ", " Attack.Budget.mitigation_names);
         exit 1
       | None ->
         { Attack.Mitigate.pad = List.mem "pad" names;
           dummies = (if List.mem "dummy" names then 4 else 0);
           shuffle = List.mem "shuffle" names })
  in
  let bought_names (c : Attack.Mitigate.config) =
    (if c.Attack.Mitigate.pad then [ "pad" ] else [])
    @ (if c.Attack.Mitigate.dummies > 0 then [ "dummy" ] else [])
    @ if c.Attack.Mitigate.shuffle then [ "shuffle" ] else []
  in
  (* Score one ledger's rounds.  Returns (budget met, json report, text
     report). *)
  let audit ~label (budget : Attack.Budget.t) rounds =
    let required c =
      Option.value ~default:(-1) (List.assoc_opt c budget.Attack.Budget.minimums)
    in
    match Attack.Budget.check budget rounds with
    | Error msg ->
      ( false,
        Obs.Json.Obj
          [ "trace", Obs.Json.Str label; "ok", Obs.Json.Bool false;
            "error", Obs.Json.Str msg ],
        [ Printf.sprintf "leakage audit (%s): %s" label msg ] )
    | Ok sc ->
      let findings = Attack.Passes.run_all rounds in
      let rows =
        List.map
          (fun c ->
            let sizes =
              List.filter_map
                (fun (f : Attack.Passes.finding) ->
                  if f.pass = c then Some f.candidates else None)
                findings
            in
            (c, List.length sizes, List.fold_left min max_int sizes))
          Attack.Budget.classes
      in
      let violations = sc.Attack.Budget.violations in
      let ok = violations = [] in
      let json =
        Obs.Json.Obj
          [ "trace", Obs.Json.Str label;
            "ok", Obs.Json.Bool ok;
            "rounds", Obs.Json.Int (List.length rounds);
            "findings", Obs.Json.Int sc.Attack.Budget.findings;
            "classes",
            Obs.Json.Obj
              (List.map
                 (fun (c, n, mn) ->
                   ( c,
                     Obs.Json.Obj
                       [ "findings", Obs.Json.Int n;
                         "min_candidates",
                         (if n = 0 then Obs.Json.Null else Obs.Json.Int mn);
                         "required", Obs.Json.Int (required c) ] ))
                 rows);
            "violations",
            Obs.Json.List
              (List.map
                 (fun (v : Attack.Budget.violation) ->
                   Obs.Json.Obj
                     [ "pass", Obs.Json.Str v.finding.Attack.Passes.pass;
                       "subject", Obs.Json.Str v.finding.Attack.Passes.subject;
                       "candidates",
                       Obs.Json.Int v.finding.Attack.Passes.candidates;
                       "required", Obs.Json.Int v.required;
                       "witness",
                       Obs.Json.List
                         (List.map
                            (fun h -> Obs.Json.Str h)
                            v.finding.Attack.Passes.witness) ])
                 violations) ]
      in
      let text =
        Printf.sprintf
          "leakage audit (%s): %d round(s), %d finding(s), %d violation(s)"
          label (List.length rounds) sc.Attack.Budget.findings
          (List.length violations)
        :: List.map
             (fun (c, n, mn) ->
               if n = 0 then
                 Printf.sprintf "  %-12s no findings (budget >= %d)" c
                   (required c)
               else
                 Printf.sprintf
                   "  %-12s min candidate set %d over %d finding(s) (budget \
                    >= %d)"
                   c mn n (required c))
             rows
        @ List.map
            (fun v -> "  VIOLATION " ^ Attack.Budget.render_violation v)
            violations
      in
      (ok, json, text)
  in
  let live doc_path queries spec rounds seed scs scheme budget_path json =
    if rounds < 1 then begin
      prerr_endline "sxq attack: --rounds must be >= 1";
      exit 1
    end;
    let budget = load_budget budget_path in
    let config = mitigation_config budget spec in
    let doc, constraints, workload =
      match doc_path with
      | Some path ->
        (match queries with
         | [] ->
           prerr_endline
             "sxq attack: at least one --query is required with DOC.xml";
           exit 1
         | qs -> (load_doc path, parse_scs scs, qs))
      | None ->
        let qs =
          if queries = [] then
            [ "//patient/pname"; "//patient[age>=50]/pname"; "//treat/doctor";
              "//SSN" ]
          else queries
        in
        ( Workload.Health.generate ~seed:1L ~patients:6 (),
          Workload.Health.constraints (), qs )
    in
    let batch = Array.of_list (List.map Xpath.Parser.parse workload) in
    let sys, _ =
      Secure.System.setup ~master:"sxq-attack-audit" doc constraints scheme
    in
    Obs.Ledger.set_enabled (Secure.System.ledger sys) true;
    let mit = Attack.Mitigate.create ~seed:(Int64.of_int seed) config in
    for _ = 1 to rounds do
      ignore (Attack.Mitigate.evaluate_batch mit sys batch)
    done;
    let trace = Obs.Ledger.rounds (Secure.System.ledger sys) in
    let ok, jv, text = audit ~label:"live" budget trace in
    if json then print_json_checked jv
    else begin
      Printf.printf "workload: %d batch(es) x %d quer(ies), mitigations: %s\n"
        rounds (Array.length batch)
        (match bought_names config with
         | [] -> "none"
         | l -> String.concat "," l);
      List.iter print_endline text;
      print_endline
        (if ok then "budget met" else "budget VIOLATED (exit 1)")
    end;
    if not ok then exit 1
  in
  let replay file budget_path json =
    let budget = load_budget budget_path in
    let content =
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let root =
      match Obs.Json.of_string content with
      | Ok j -> j
      | Error msg ->
        Printf.eprintf "sxq attack: %s: %s\n" file msg;
        exit 2
    in
    let entries =
      match Obs.Json.member "tenants" root with
      | Some (Obs.Json.List ts) ->
        List.map
          (fun tj ->
            let name =
              match Obs.Json.member "tenant" tj with
              | Some (Obs.Json.Str s) -> s
              | _ ->
                Printf.eprintf "sxq attack: %s: tenant entry without a name\n"
                  file;
                exit 2
            in
            match Obs.Json.member "ledger" tj with
            | Some lj -> (name, lj)
            | None ->
              Printf.eprintf "sxq attack: %s: tenant %S has no ledger\n" file
                name;
              exit 2)
          ts
      | Some _ ->
        Printf.eprintf "sxq attack: %s: \"tenants\" is not a list\n" file;
        exit 2
      | None -> [ (Filename.basename file, root) ]
    in
    let audits =
      List.map
        (fun (name, lj) ->
          match Obs.Ledger.of_json lj with
          | Error msg ->
            Printf.eprintf "sxq attack: %s: ledger %S: %s\n" file name msg;
            exit 2
          | Ok ledger ->
            (* The exported capture must survive our own printer/parser
               round trip, same bar as every JSON sink. *)
            if not (Obs.Json.equal (Obs.Ledger.to_json ledger) lj) then begin
              Printf.eprintf
                "sxq attack: %s: ledger %S failed round-trip validation\n"
                file name;
              exit 2
            end;
            audit ~label:name budget (Obs.Ledger.rounds ledger))
        entries
    in
    if json then
      print_json_checked
        (Obs.Json.Obj
           [ "budget", Obs.Json.Str budget_path;
             "audits", Obs.Json.List (List.map (fun (_, jv, _) -> jv) audits) ])
    else
      List.iter
        (fun (_, _, text) ->
          List.iter print_endline text;
          print_newline ())
        audits;
    if List.exists (fun (ok, _, _) -> not ok) audits then exit 1
  in
  let run doc tag trace budget_path spec queries rounds seed scs scheme json =
    match trace, doc, tag with
    | Some _, Some _, _ | Some _, _, Some _ ->
      prerr_endline "sxq attack: --trace cannot be combined with DOC.xml or --tag";
      exit 1
    | Some file, None, None -> replay file budget_path json
    | None, Some path, Some tag -> legacy_demo path tag
    | None, None, Some _ ->
      prerr_endline "sxq attack: --tag requires DOC.xml";
      exit 1
    | None, doc, None ->
      live doc queries spec rounds seed scs scheme budget_path json
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Simulate the honest-but-curious server: run the inference \
             passes (frequency, size, co-occurrence, linkability) over a \
             leakage trace — live, or replayed from a file — and enforce the \
             declared candidate-set budget; with $(b,--tag), run the legacy \
             OPESS frequency-attack demo.")
    Term.(const run $ doc_arg $ tag_arg $ trace_arg $ budget_arg
          $ mitigate_arg $ query_args $ rounds_arg $ seed_arg $ sc_arg
          $ scheme_arg $ json_flag)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve_cmd =
  let tenants_arg =
    Arg.(value & opt int 4 & info [ "tenants" ] ~docv:"N"
           ~doc:"Number of independent tenant hostings to multiplex.")
  in
  let queries_arg =
    Arg.(value & opt int 4 & info [ "queries" ] ~docv:"N"
           ~doc:"Queries submitted per tenant, drawn round-robin from a fixed \
                 mixed workload.")
  in
  let chaos_flag =
    Arg.(value & flag & info [ "chaos" ]
           ~doc:"Run tenant-1 over a dead link: its circuit breaker trips \
                 while every other tenant keeps serving, then the link is \
                 re-established and a half-open probe closes the breaker.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Enable every tenant's leakage ledger and write the captured \
                 traces to $(docv) as {\"tenants\":[{\"tenant\",\"ledger\"}]} \
                 JSON, replayable offline with sxq attack --trace $(docv).")
  in
  let run tenants queries chaos trace_out domains json =
    if tenants < 1 || queries < 1 then begin
      prerr_endline "sxq serve: --tenants and --queries must be >= 1";
      exit 1
    end;
    with_pool domains @@ fun pool ->
    let workload =
      Array.of_list
        (List.map Xpath.Parser.parse
           [ "//patient/pname"; "//patient[age>=50]/pname"; "//treat/doctor";
             "//SSN" ])
    in
    let config =
      { Serve.default_config with
        Serve.queue_depth = Int.max 8 queries;
        bucket_capacity = 2;
        refill_per_round = 2;
        breaker_threshold = 2;
        breaker_cooldown = 2 }
    in
    let srv = Serve.create ~config ?pool () in
    for i = 1 to tenants do
      let id = Printf.sprintf "tenant-%d" i in
      let doc =
        Workload.Health.generate ~seed:(Int64.of_int i) ~patients:(3 + i) ()
      in
      let sys, _ =
        Secure.System.setup ~master:("master-" ^ id) doc
          (Workload.Health.constraints ()) Secure.Scheme.Opt
      in
      let sys =
        if chaos && i = 1 then
          Secure.System.with_faults ~max_attempts:2
            ~profile:(Secure.Transport.chaos ~drop:1.0 ()) ~seed:3L sys
        else sys
      in
      if trace_out <> None then
        Obs.Ledger.set_enabled (Secure.System.ledger sys) true;
      Serve.register srv ~id sys
    done;
    let submit_for ids =
      List.iter
        (fun id ->
          for k = 0 to queries - 1 do
            match Serve.submit srv ~tenant:id workload.(k mod Array.length workload) with
            | Ok _ -> ()
            | Error r ->
              Printf.printf "  %s: submission rejected (%s)\n" id
                (Serve.reject_to_string r)
          done)
        ids
    in
    let counter name =
      Obs.Metric.value (Obs.Metric.counter (Serve.registry srv) name)
    in
    let tenant_row id =
      let c name = counter (Printf.sprintf "serve.%s.%s" id name) in
      ( id, Serve.shard_of srv id, Serve.generation srv id,
        c "submitted", c "served", c "failed", c "shed", c "rejected",
        Serve.Breaker.state_to_string (Serve.Breaker.state (Serve.breaker srv id)) )
    in
    let print_table header =
      Printf.printf "\n%s\n" header;
      Printf.printf "%-10s %5s %4s %9s %7s %7s %5s %9s %-12s\n" "tenant"
        "shard" "gen" "submitted" "served" "failed" "shed" "rejected" "breaker";
      List.iter
        (fun id ->
          let _, shard, gen, sub, srvd, fld, shd, rej, st = tenant_row id in
          Printf.printf "%-10s %5d %4d %9d %7d %7d %5d %9d %-12s\n" id shard
            gen sub srvd fld shd rej st)
        (Serve.tenants srv)
    in
    submit_for (Serve.tenants srv);
    ignore (Serve.drain srv ());
    if not json then
      print_table
        (Printf.sprintf "after %d round(s), %d tenant(s), %d quer(ies) each:"
           (Serve.rounds srv) tenants queries);
    if chaos then begin
      if not json then
        Printf.printf
          "\ntenant-1's dead link tripped its breaker; re-establishing the \
           link...\n";
      Serve.relink srv ~tenant:"tenant-1" ();
      (* The relink does not close the breaker: it must cool down and
         earn its way back through a half-open probe.  Empty rounds
         still advance breaker time. *)
      let budget = ref 8 in
      while (not (Serve.Breaker.admits (Serve.breaker srv "tenant-1")))
            && !budget > 0 do
        ignore (Serve.run_round srv);
        decr budget
      done;
      submit_for [ "tenant-1" ];
      ignore (Serve.drain srv ());
      if not json then begin
        Printf.printf
          "breaker cooled to half-open, probe admitted (%d probe(s) total), \
           recovery served over the fresh link:\n"
          (counter "serve.probes");
        print_table "after recovery:"
      end
    end;
    if json then
      print_json_checked
        (Obs.Json.Obj
           [ "tenants",
             Obs.Json.List
               (List.map
                  (fun id ->
                    let _, shard, gen, sub, srvd, fld, shd, rej, st =
                      tenant_row id
                    in
                    Obs.Json.Obj
                      [ "tenant", Obs.Json.Str id;
                        "shard", Obs.Json.Int shard;
                        "generation", Obs.Json.Int gen;
                        "submitted", Obs.Json.Int sub;
                        "served", Obs.Json.Int srvd;
                        "failed", Obs.Json.Int fld;
                        "shed", Obs.Json.Int shd;
                        "rejected", Obs.Json.Int rej;
                        "breaker", Obs.Json.Str st ])
                  (Serve.tenants srv));
             "rounds", Obs.Json.Int (counter "serve.rounds");
             "admitted", Obs.Json.Int (counter "serve.admitted");
             "probes", Obs.Json.Int (counter "serve.probes") ])
    else
      Printf.printf
        "\nglobal: %d round(s), %d admitted, %d probe(s)\n"
        (counter "serve.rounds") (counter "serve.admitted")
        (counter "serve.probes");
    match trace_out with
    | None -> ()
    | Some path ->
      (* Same self-validation bar as stdout JSON: the capture must
         survive our own parser before it is allowed on disk, so
         [sxq attack --trace] never chokes on what we wrote. *)
      let capture =
        Obs.Json.Obj
          [ "tenants",
            Obs.Json.List
              (List.map
                 (fun id ->
                   Obs.Json.Obj
                     [ "tenant", Obs.Json.Str id;
                       "ledger",
                       Obs.Ledger.to_json
                         (Secure.System.ledger (Serve.system srv id)) ])
                 (Serve.tenants srv)) ]
      in
      let s = Obs.Json.to_string ~indent:true capture in
      (match Obs.Json.of_string s with
       | Ok j when Obs.Json.equal capture j -> ()
       | Ok _ | Error _ ->
         prerr_endline
           "sxq serve: internal error: trace capture failed round-trip \
            validation";
         exit 2);
      let oc = open_out_bin path in
      output_string oc s;
      output_char oc '\n';
      close_out oc;
      if not json then
        Printf.printf "wrote leakage trace for %d tenant(s) to %s\n" tenants
          path
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Multiplex N independent tenant hostings through the serving tier \
             (admission control, per-tenant circuit breakers) and report \
             per-tenant counters; with $(b,--chaos), demonstrate breaker trip \
             and half-open recovery on a faulty tenant while the others keep \
             serving.")
    Term.(const run $ tenants_arg $ queries_arg $ chaos_flag $ trace_out_arg
          $ domains_arg $ json_flag)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)

let lint_cmd =
  let root_arg =
    Arg.(value & opt dir "." & info [ "root" ] ~docv:"DIR"
           ~doc:"Repository root to lint (lib/, bin/ and test/ under it).")
  in
  let baseline_arg =
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Baseline file (default: \\$(docv) is ROOT/lint.baseline).")
  in
  let finding_json (f : Analysis.Finding.t) =
    Obs.Json.Obj
      [ "rule", Obs.Json.Str f.rule;
        "file", Obs.Json.Str f.file;
        "line", Obs.Json.Int f.line;
        "col", Obs.Json.Int f.col;
        "message", Obs.Json.Str f.message;
        "witness", Obs.Json.List (List.map (fun h -> Obs.Json.Str h) f.witness) ]
  in
  let run root baseline json =
    (* The run's own observability goes through the metrics registry
       like everything else; a local registry keeps the gauge out of
       the process-wide one the serving layers share. *)
    let reg = Obs.Metric.create ~enabled:true () in
    let duration = Obs.Metric.gauge reg ~help:"wall-clock lint time" "lint.duration_ms" in
    let started = Unix.gettimeofday () in
    let findings, baselined =
      Analysis.Lint.run ?baseline ~root ()
    in
    Obs.Metric.set duration ((Unix.gettimeofday () -. started) *. 1000.0);
    let duration_ms = Obs.Metric.gauge_value duration in
    if json then
      print_json_checked
        (Obs.Json.Obj
           [ "findings", Obs.Json.List (List.map finding_json findings);
             "baselined", Obs.Json.Int baselined;
             "duration_ms", Obs.Json.Float duration_ms ])
    else
      List.iter
        (fun (f : Analysis.Finding.t) ->
          print_endline (Analysis.Finding.to_string f);
          List.iter (fun hop -> print_endline ("    " ^ hop)) f.witness)
        findings;
    match findings with
    | [] ->
      Printf.eprintf "sxq lint: clean (%d baselined, %.0f ms)\n" baselined
        duration_ms
    | fs ->
      Printf.eprintf "sxq lint: %d finding(s), %d baselined (%.0f ms)\n"
        (List.length fs) baselined duration_ms;
      exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the trust-boundary, crypto-hygiene and secret-flow static \
             analysis (see docs/STATIC_ANALYSIS.md).")
    Term.(const run $ root_arg $ baseline_arg $ json_flag)

let () =
  (* SXQ_DEBUG=1 turns on debug logging from the secure.* sources. *)
  (match Sys.getenv_opt "SXQ_DEBUG" with
   | Some ("1" | "true") ->
     Logs.set_reporter (Logs_fmt.reporter ());
     Logs.set_level (Some Logs.Debug)
   | Some _ | None -> ());
  let info =
    Cmd.info "sxq" ~version:"1.0.0"
      ~doc:"Secure query evaluation over encrypted XML databases (VLDB 2006 \
            reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; stats_cmd; host_cmd; verify_cmd; query_cmd;
            explain_cmd; trace_cmd; aggregate_cmd; xquery_cmd; attack_cmd;
            serve_cmd; lint_cmd ]))
