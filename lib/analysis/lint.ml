(* --- Suppression comments ------------------------------------------ *)

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char ',')
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun w -> w <> "")

(* [lint: allow r1 r2] -> Some [r1; r2]; [lint: allow all] -> Some []. *)
let parse_suppression text =
  match split_words (String.trim text) with
  | "lint:" :: "allow" :: rules when rules <> [] ->
    if List.mem "all" rules then Some [] else Some rules
  | _ -> None

let suppressed_by comments (f : Finding.t) =
  List.exists
    (fun (c : Lexer.comment) ->
      match parse_suppression c.text with
      | None -> false
      | Some rules ->
        (rules = [] || List.mem f.Finding.rule rules)
        && f.Finding.line >= c.start_line
        && f.Finding.line <= c.end_line + 1)
    comments

let suppressed (lex : Lexer.t) f = suppressed_by lex.comments f

(* --- Single unit ---------------------------------------------------- *)

(* Everything derivable from one file in isolation: the token-level
   findings (suppressions already applied), the comments (needed to
   apply suppressions to whole-tree taint findings later), and the
   def-use graph for [lib/*.ml] units. *)
type unit_result = {
  u_findings : Finding.t list;
  u_comments : Lexer.comment list;
  u_graph : Flowgraph.t option;
}

let unit_of ?(policy = Policy.default) ~rel content =
  let lex = Lexer.tokenize content in
  let findings =
    Rules.check policy ~rel lex
    |> List.filter (fun f -> not (suppressed lex f))
  in
  let graph =
    match Policy.classify rel with
    | Some (Policy.Library _) when Filename.check_suffix rel ".ml" ->
      Some (Flowgraph.build ~rel ~modpath:(Taint.modpath_of policy rel) lex)
    | _ -> None
  in
  { u_findings = findings; u_comments = lex.comments; u_graph = graph }

let check_source ?(policy = Policy.default) ~rel content =
  (unit_of ~policy ~rel content).u_findings

(* --- Baseline ------------------------------------------------------- *)

let load_baseline path =
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
    let rec loop acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        List.rev acc
      | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop acc else loop (line :: acc)
    in
    loop []

let apply_baseline entries findings =
  let remaining = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let count = Option.value ~default:0 (Hashtbl.find_opt remaining e) in
      Hashtbl.replace remaining e (count + 1))
    entries;
  List.filter
    (fun f ->
      let fp = Finding.fingerprint f in
      match Hashtbl.find_opt remaining fp with
      | Some count when count > 0 ->
        Hashtbl.replace remaining fp (count - 1);
        false
      | _ -> true)
    findings

let write_baseline path findings =
  let oc = open_out_bin path in
  output_string oc
    "# sxq-lint baseline: one fingerprint (rule<TAB>file<TAB>message) per \
     line.\n\
     # Entries absorb existing findings so a new rule can land before every\n\
     # violation is fixed.  Keep this file empty whenever possible.\n";
  List.iter
    (fun f ->
      output_string oc (Finding.fingerprint f);
      output_char oc '\n')
    findings;
  close_out oc

(* --- Tree walk ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let source_files ~root =
  let out = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    (* Broken symlinks or unreadable entries raise Sys_error; skip them
       rather than abort the whole walk. *)
    match Sys.is_directory abs with
    | exception Sys_error _ -> ()
    | true ->
      Array.iter
        (fun entry -> walk (Filename.concat rel entry))
        (Sys.readdir abs)
    | false ->
      if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
      then out := rel :: !out
  in
  List.iter
    (fun top ->
      if Sys.file_exists (Filename.concat root top) then walk top)
    [ "lib"; "bin"; "test" ];
  List.sort String.compare !out

(* Token findings per unit, then the whole-tree taint pass over the
   collected graphs; taint findings honour the same suppression
   comments as everything else. *)
let check_sources ?(policy = Policy.default) files =
  let units =
    List.map (fun (rel, content) -> rel, unit_of ~policy ~rel content) files
  in
  let token = List.concat_map (fun (_, u) -> u.u_findings) units in
  let graphs = List.filter_map (fun (_, u) -> u.u_graph) units in
  let comments_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (rel, u) -> Hashtbl.replace tbl rel u.u_comments) units;
    fun rel ->
      match Hashtbl.find_opt tbl rel with Some c -> c | None -> []
  in
  let taint =
    Taint.check policy graphs
    |> List.filter (fun f -> not (suppressed_by (comments_of f.Finding.file) f))
  in
  List.sort Finding.compare (token @ taint)

let check_tree ?(policy = Policy.default) ~root () =
  check_sources ~policy
    (List.map
       (fun rel -> rel, read_file (Filename.concat root rel))
       (source_files ~root))

let run ?(policy = Policy.default) ?baseline ~root () =
  let baseline_path =
    match baseline with
    | Some p -> p
    | None -> Filename.concat root "lint.baseline"
  in
  let findings = check_tree ~policy ~root () in
  let kept = apply_baseline (load_baseline baseline_path) findings in
  let kept = List.sort Finding.compare kept in
  kept, List.length findings - List.length kept
