type mref = {
  path : string list;
  line : int;
  col : int;
}

let all_rule_ids =
  [ "layering"; "trust-boundary"; "mac-compare"; "random-source";
    "secret-print"; "partiality"; "concurrency"; "secret-flow" ]

(* --- Module-reference extraction ----------------------------------- *)

(* A reference starts at a capitalized identifier that is not itself a
   path member ([. Uident]) and not a module binder ([module Uident]).
   The path extends through [.Uident] segments and one final [.lident]
   projection. *)
let raw_refs tokens =
  let n = Array.length tokens in
  let refs = ref [] in
  let aliases = Hashtbl.create 8 in
  let kind i = if i >= 0 && i < n then Some tokens.(i).Lexer.kind else None in
  let path_at i u =
    let comps = ref [ u ] in
    let j = ref i in
    let stop = ref false in
    while not !stop do
      match kind (!j + 1), kind (!j + 2) with
      | Some (Op "."), Some (Uident v) ->
        comps := v :: !comps;
        j := !j + 2
      | Some (Op "."), Some (Lident l) ->
        comps := l :: !comps;
        j := !j + 2;
        stop := true
      | _ -> stop := true
    done;
    List.rev !comps
  in
  for i = 0 to n - 1 do
    match tokens.(i).Lexer.kind with
    | Uident u when kind (i - 1) <> Some (Op ".") ->
      if kind (i - 1) = Some (Keyword "module") then begin
        (* Binder, not a reference; record [module U = V...] aliases so
           later references through the alias still resolve. *)
        match kind (i + 1), kind (i + 2) with
        | Some (Op "="), Some (Uident v) ->
          let rhs = List.filter (fun c -> c.[0] >= 'A' && c.[0] <= 'Z')
              (path_at (i + 2) v)
          in
          Hashtbl.replace aliases u rhs
        | _ -> ()
      end
      else
        refs :=
          { path = path_at i u;
            line = tokens.(i).Lexer.line;
            col = tokens.(i).Lexer.col }
          :: !refs
    | _ -> ()
  done;
  List.rev !refs, aliases

let expand_alias aliases r =
  let rec expand depth path =
    if depth = 0 then path
    else
      match path with
      | root :: rest -> (
        match Hashtbl.find_opt aliases root with
        | Some rhs when rhs <> [ root ] -> expand (depth - 1) (rhs @ rest)
        | _ -> path)
      | [] -> path
  in
  { r with path = expand 4 r.path }

let module_refs (lex : Lexer.t) =
  let refs, aliases = raw_refs lex.tokens in
  List.map (expand_alias aliases) refs

(* --- Identifier classification ------------------------------------- *)

let components ident = String.split_on_char '_' (String.lowercase_ascii ident)

let has_component ident names =
  List.exists (fun c -> List.mem c names) (components ident)

(* Values whose comparison must be constant-time. *)
let timing_sensitive ident =
  has_component ident [ "hmac"; "digest" ]
  || (has_component ident [ "mac" ] && not (String.equal ident "mac_len"))
  || String.equal (String.lowercase_ascii ident) "auth_tag"

(* Values that must never reach a formatter. *)
let print_sensitive ident =
  has_component ident [ "secret"; "password"; "passphrase"; "master" ]
  || (String.length ident > 4
      && String.sub ident (String.length ident - 4) 4 = "_key")
  || String.equal ident "keys"

(* --- Binding vs. comparison [=] ------------------------------------ *)

(* Walk left from the [=], skipping pattern-shaped tokens; the first
   structural token decides.  [let]/[and]/record-[{]/[;]/[with]/[?]
   open a binding position; anything else ([if], [->], another [=],
   [&&], ...) means the [=] compares. *)
let is_binding_eq tokens i =
  (* Jump from a closer to the index before its matching opener, so a
     whole parenthesised group ([?(x = d)], [(a, b)]) reads as one
     pattern atom and an [=] inside it cannot decide for an [=]
     outside it. *)
  let skip_group close open_ j =
    let depth = ref 1 and k = ref (j - 1) in
    while !depth > 0 && !k >= 0 do
      (match tokens.(!k).Lexer.kind with
       | Op c when c = close -> incr depth
       | Op o when o = open_ -> decr depth
       | _ -> ());
      decr k
    done;
    !k
  in
  let rec back j =
    if j < 0 then true
    else
      match tokens.(j).Lexer.kind with
      | Op ")" -> back (skip_group ")" "(" j)
      | Op "]" -> back (skip_group "]" "[" j)
      | Lident _ | Uident _ | Int_lit | String_lit | Char_lit -> back (j - 1)
      | Op ("." | "~" | ":" | "," | "*" | "(" | "[") -> back (j - 1)
      | Keyword
          ( "let" | "and" | "rec" | "nonrec" | "type" | "module" | "val"
          | "method" | "external" | "mutable" | "with" | "for" | "exception"
          | "of" ) -> true
      | Op ("{" | ";" | "?") -> true
      | _ -> false
  in
  back (i - 1)

(* --- Rules ---------------------------------------------------------- *)

let finding rule rel (tok : Lexer.token) message =
  { Finding.rule; file = rel; line = tok.line; col = tok.col; message;
    witness = [] }

let dotted path = String.concat "." path

let starts_with ~prefix s =
  let pl = String.length prefix in
  String.length s >= pl && String.sub s 0 pl = prefix

let layering policy ~rel ~lib refs =
  List.filter_map
    (fun r ->
      match r.path with
      | root :: _ -> (
        match Policy.library_of_root policy root with
        | Some target
          when target <> lib && not (List.mem target (Policy.allowed_deps policy lib))
          ->
          Some
            { Finding.rule = "layering";
              file = rel;
              line = r.line;
              col = r.col;
              message =
                Printf.sprintf
                  "library '%s' may not depend on '%s' (reference to %s)" lib
                  target (dotted r.path);
              witness = [] }
        | _ -> None)
      | [] -> None)
    refs

let trust_boundary policy ~rel refs =
  match List.assoc_opt rel policy.Policy.boundary with
  | None -> []
  | Some forbidden ->
    let forbidden_roots =
      List.sort_uniq String.compare
        (List.filter_map
           (fun p ->
             match String.split_on_char '.' p with r :: _ -> Some r | [] -> None)
           forbidden)
    in
    List.filter_map
      (fun r ->
        let d = dotted r.path in
        let hit =
          List.find_opt
            (fun p -> String.equal d p || starts_with ~prefix:(p ^ ".") d)
            forbidden
        in
        match hit, r.path with
        | Some p, _ ->
          Some
            { Finding.rule = "trust-boundary";
              file = rel;
              line = r.line;
              col = r.col;
              message =
                Printf.sprintf
                  "server-side code may not reference %s (forbidden: %s stays \
                   on the client side of the wire)"
                  d p;
              witness = [] }
        | None, [ root ] when List.mem root forbidden_roots ->
          Some
            { Finding.rule = "trust-boundary";
              file = rel;
              line = r.line;
              col = r.col;
              message =
                Printf.sprintf
                  "bare reference to %s (e.g. via open) defeats the per-module \
                   boundary check; use qualified paths"
                  root;
              witness = [] }
        | _ -> None)
      refs

let random_source policy ~rel refs =
  if List.mem rel policy.Policy.random_ok then []
  else
    List.filter_map
      (fun r ->
        match r.path with
        | "Random" :: _ ->
          Some
            { Finding.rule = "random-source";
              file = rel;
              line = r.line;
              col = r.col;
              message =
                "stdlib Random breaks seeded reproducibility; use Crypto.Prng \
                 (lib/crypto/prng.ml) instead";
              witness = [] }
        | _ -> None)
      refs

(* Raw concurrency primitives are confined behind the Parallel library
   (the policy's [concurrency_ok] prefixes): its pool's deterministic
   merge is the only sanctioned way to fan work across domains, and a
   stray Mutex or Atomic elsewhere would be invisible to that
   argument. *)
let concurrency_roots =
  [ "Domain"; "Mutex"; "Condition"; "Atomic"; "Thread"; "Semaphore" ]

let concurrency policy ~rel refs =
  if
    List.exists
      (fun prefix -> starts_with ~prefix rel)
      policy.Policy.concurrency_ok
  then []
  else
    List.filter_map
      (fun r ->
        let root =
          match r.path with
          | "Stdlib" :: root :: _ -> Some root
          | root :: _ -> Some root
          | [] -> None
        in
        match root with
        | Some root when List.mem root concurrency_roots ->
          Some
            { Finding.rule = "concurrency";
              file = rel;
              line = r.line;
              col = r.col;
              message =
                Printf.sprintf
                  "%s is a raw concurrency primitive; only lib/parallel may \
                   touch it — use Parallel.Pool"
                  (dotted r.path);
              witness = [] }
        | _ -> None)
      refs

(* Token-pattern helpers over the array. *)
let path3 tokens i m f =
  let n = Array.length tokens in
  i + 2 < n
  && tokens.(i).Lexer.kind = Lexer.Uident m
  && tokens.(i + 1).Lexer.kind = Lexer.Op "."
  && (match tokens.(i + 2).Lexer.kind with
     | Lexer.Lident l -> f l
     | _ -> false)

let bare_lident tokens i names =
  (match tokens.(i).Lexer.kind with
   | Lexer.Lident l -> List.mem l names
   | _ -> false)
  && (i = 0 || tokens.(i - 1).Lexer.kind <> Lexer.Op ".")

let mac_compare ~rel (lex : Lexer.t) =
  let tokens = lex.tokens in
  let n = Array.length tokens in
  let window_hit i =
    let t = tokens.(i) in
    let found = ref None in
    for j = max 0 (i - 10) to min (n - 1) (i + 10) do
      (match tokens.(j).Lexer.kind with
       | Lexer.Lident l
         when !found = None
              && abs (tokens.(j).Lexer.line - t.Lexer.line) <= 1
              && timing_sensitive l ->
         found := Some l
       | _ -> ())
    done;
    !found
  in
  let out = ref [] in
  let report i what =
    match window_hit i with
    | Some ident ->
      out :=
        finding "mac-compare" rel tokens.(i)
          (Printf.sprintf
             "%s on '%s' is not constant-time; use Crypto.Eq.constant_time"
             what ident)
        :: !out
    | None -> ()
  in
  for i = 0 to n - 1 do
    match tokens.(i).Lexer.kind with
    | Lexer.Op (("=" | "<>") as op) when not (is_binding_eq tokens i) ->
      report i (Printf.sprintf "structural (%s)" op)
    | _ when path3 tokens i "String" (fun l -> l = "equal" || l = "compare") ->
      report i "String comparison"
    | _ when path3 tokens i "Stdlib" (fun l -> l = "compare") ->
      report i "polymorphic compare"
    | _ when bare_lident tokens i [ "compare" ] -> report i "polymorphic compare"
    | _ -> ()
  done;
  List.rev !out

let secret_print ~rel (lex : Lexer.t) =
  let tokens = lex.tokens in
  let n = Array.length tokens in
  let head i =
    match tokens.(i).Lexer.kind with
    | Lexer.Uident (("Printf" | "Format") as m) -> path3 tokens i m (fun _ -> true)
    | Lexer.Uident (("Log" | "Logs") as m) ->
      path3 tokens i m (fun l ->
          List.mem l [ "debug"; "info"; "warn"; "err"; "app"; "msg" ])
    | Lexer.Lident _ ->
      bare_lident tokens i
        [ "print_string"; "print_endline"; "prerr_string"; "prerr_endline" ]
    | _ -> false
  in
  let out = ref [] in
  for i = 0 to n - 1 do
    if head i then begin
      let t = tokens.(i) in
      let j = ref (i + 1) in
      let hit = ref None in
      let stopped = ref false in
      while
        (not !stopped) && !hit = None && !j < n
        && !j <= i + 40
        && tokens.(!j).Lexer.line <= t.Lexer.line + 2
      do
        (match tokens.(!j).Lexer.kind with
         | Lexer.Lident l when print_sensitive l -> hit := Some l
         | Lexer.Keyword ("let" | "and" | "in" | "module" | "type" | "val") ->
           (* the argument list cannot extend past these *)
           stopped := true
         | _ -> ());
        incr j
      done;
      match !hit with
      | Some ident ->
        out :=
          finding "secret-print" rel t
            (Printf.sprintf
               "formatting call may leak secret-named value '%s'" ident)
          :: !out
      | None -> ()
    end
  done;
  List.rev !out

let partiality policy ~rel (lex : Lexer.t) =
  if not (List.mem rel policy.Policy.total_paths) then []
  else begin
    let tokens = lex.tokens in
    let n = Array.length tokens in
    let out = ref [] in
    let report i msg = out := finding "partiality" rel tokens.(i) msg :: !out in
    for i = 0 to n - 1 do
      match tokens.(i).Lexer.kind with
      | Lexer.Keyword "assert" ->
        (* allow an optional parenthesis: [assert (false)] *)
        let j = if i + 1 < n && tokens.(i + 1).Lexer.kind = Lexer.Op "(" then i + 2 else i + 1 in
        if j < n && tokens.(j).Lexer.kind = Lexer.Keyword "false" then
          report i
            "'assert false' on a hostile-input path; return a typed error or \
             make the match total"
      | _ when bare_lident tokens i [ "failwith" ] ->
        report i
          "'failwith' on a hostile-input path; raise a typed exception from \
           the error taxonomy instead"
      | _ when path3 tokens i "List" (fun l -> l = "hd" || l = "tl") ->
        report i "partial List projection; match on the list shape instead"
      | _ when path3 tokens i "Option" (fun l -> l = "get") ->
        report i "'Option.get' is partial; match on the option instead"
      | _ -> ()
    done;
    List.rev !out
  end

let check policy ~rel (lex : Lexer.t) =
  match Policy.classify rel with
  | None -> []
  | Some kind ->
    let refs = module_refs lex in
    let structural =
      match kind with
      | Policy.Library lib -> layering policy ~rel ~lib refs
      | Policy.Binary | Policy.Test_unit -> []
    in
    structural
    @ trust_boundary policy ~rel refs
    @ random_source policy ~rel refs
    @ concurrency policy ~rel refs
    @ mac_compare ~rel lex
    @ secret_print ~rel lex
    @ partiality policy ~rel lex
