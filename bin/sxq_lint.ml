(* sxq-lint — trust-boundary, crypto-hygiene and secret-flow static
   analysis.

   Stdlib-only on purpose: the gate must run anywhere the compiler
   does.  Exit status: 0 clean, 1 findings, 2 usage error.  Findings go
   to stdout (machine-readable, one per line, secret-flow witnesses
   indented under them); the summary to stderr. *)

let usage =
  "usage: sxq_lint [--root DIR] [--baseline FILE] [--update-baseline]\n\
   \n\
   Lints lib/, bin/ and test/ under the root (default: the current\n\
   directory) against the policy in lib/analysis/policy.ml.\n\
   See docs/STATIC_ANALYSIS.md for the rules and how to suppress\n\
   findings."

let () =
  let root = ref "." in
  let baseline = ref None in
  let update = ref false in
  let rec parse = function
    | [] -> ()
    | "--root" :: dir :: rest ->
      root := dir;
      parse rest
    | "--baseline" :: file :: rest ->
      baseline := Some file;
      parse rest
    | "--update-baseline" :: rest ->
      update := true;
      parse rest
    | ("--help" | "-h") :: _ ->
      print_endline usage;
      exit 0
    | arg :: _ ->
      prerr_endline ("sxq_lint: unknown argument " ^ arg);
      prerr_endline usage;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path =
    match !baseline with
    | Some p -> p
    | None -> Filename.concat !root "lint.baseline"
  in
  if !update then begin
    let findings = Analysis.Lint.check_tree ~root:!root () in
    Analysis.Lint.write_baseline baseline_path findings;
    Printf.eprintf "sxq-lint: wrote %d fingerprint(s) to %s\n"
      (List.length findings) baseline_path;
    exit 0
  end;
  let started = Sys.time () in
  let findings, baselined =
    Analysis.Lint.run ~baseline:baseline_path ~root:!root ()
  in
  let duration_ms = (Sys.time () -. started) *. 1000.0 in
  List.iter
    (fun (f : Analysis.Finding.t) ->
      print_endline (Analysis.Finding.to_string f);
      List.iter (fun hop -> print_endline ("    " ^ hop)) f.witness)
    findings;
  match findings with
  | [] ->
    Printf.eprintf "sxq-lint: clean (%d baselined, %.0f ms cpu)\n" baselined
      duration_ms;
    exit 0
  | fs ->
    Printf.eprintf "sxq-lint: %d finding(s), %d baselined (%.0f ms cpu)\n"
      (List.length fs) baselined duration_ms;
    exit 1
