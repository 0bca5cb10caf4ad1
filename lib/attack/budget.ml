type t = {
  minimums : (string * int) list;
  mitigations : string list;
}

let classes = [ "frequency"; "size"; "cooccurrence"; "linkability" ]
let mitigation_names = [ "pad"; "dummy"; "shuffle" ]

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' (String.trim (strip_comment line))
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

(* Every malformation is a hard error: a budget that does not parse
   must never let the gate pass. *)
let parse text =
  let err lineno msg = Error (Printf.sprintf "budget line %d: %s" lineno msg) in
  let rec loop lineno minimums mitigations = function
    | [] -> (
      match List.filter (fun c -> not (List.mem_assoc c minimums)) classes with
      | [] ->
        Ok
          { minimums =
              List.map (fun c -> c, List.assoc c minimums) classes;
            mitigations = (match mitigations with Some ms -> ms | None -> []) }
      | missing ->
        Error
          (Printf.sprintf "budget declares no minimum for: %s"
             (String.concat ", " missing)))
    | line :: rest -> (
      match tokens line with
      | [] -> loop (lineno + 1) minimums mitigations rest
      | "mitigations" :: ms ->
        if mitigations <> None then err lineno "duplicate mitigations line"
        else (
          match List.filter (fun m -> not (List.mem m mitigation_names)) ms with
          | [] ->
            let rec dup = function
              | [] -> None
              | m :: more -> if List.mem m more then Some m else dup more
            in
            (match dup ms with
             | Some m -> err lineno (Printf.sprintf "mitigation %S bought twice" m)
             | None -> loop (lineno + 1) minimums (Some ms) rest)
          | unknown ->
            err lineno
              (Printf.sprintf "unknown mitigation(s): %s" (String.concat ", " unknown)))
      | [ cls; min_str ] when List.mem cls classes -> (
        if List.mem_assoc cls minimums then
          err lineno (Printf.sprintf "fact class %S declared twice" cls)
        else
          match int_of_string_opt min_str with
          | Some n when n >= 1 ->
            loop (lineno + 1) ((cls, n) :: minimums) mitigations rest
          | Some _ -> err lineno "minimum candidate-set size must be >= 1"
          | None -> err lineno (Printf.sprintf "%S is not an integer" min_str))
      | [ cls; _ ] -> err lineno (Printf.sprintf "unknown fact class %S" cls)
      | _ -> err lineno "expected '<class> <min>' or 'mitigations <name> ...'")
  in
  loop 1 [] None (String.split_on_char '\n' text)

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let content =
      match really_input_string ic (in_channel_length ic) with
      | exception End_of_file -> ""
      | s -> s
    in
    close_in_noerr ic;
    parse content

type violation = {
  finding : Passes.finding;
  required : int;
}

type score = {
  violations : violation list;
  findings : int;
}

let score t findings =
  let violations =
    List.filter_map
      (fun (f : Passes.finding) ->
        match List.assoc_opt f.Passes.pass t.minimums with
        | Some min ->
          if f.Passes.candidates < min then Some { finding = f; required = min }
          else None
        | None ->
          (* Undeclared fact class: fail closed. *)
          Some { finding = f; required = -1 })
      findings
  in
  { violations; findings = List.length findings }

let check t rounds =
  if rounds = [] then
    Error "empty trace: no rounds observed, nothing to certify (failing closed)"
  else Ok (score t (Passes.run_all rounds))

let render_violation v =
  if v.required < 0 then
    Printf.sprintf "%s\n    budget: fact class %S has no declared minimum (fail closed)"
      (Passes.render v.finding) v.finding.Passes.pass
  else
    Printf.sprintf "%s\n    budget: candidate set %d < declared minimum %d"
      (Passes.render v.finding) v.finding.Passes.candidates v.required
