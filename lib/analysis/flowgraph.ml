type slot = {
  label : string option;
  groups : int list;
}

type binding = {
  group : int;
  name : string;
  line : int;
  toplevel : bool;
  is_param : bool;
  slots : slot list;
}

type frame = {
  head : string list;
  arg_index : int;
  arg_label : string option;
}

type use = {
  path : string list;
  line : int;
  col : int;
  binder : int;
  frames : frame list;
}

type t = {
  rel : string;
  modpath : string list;
  bindings : binding list;
  uses : use list;
}

let qualify g path =
  match path with
  | [ x ] when x <> "" && x.[0] >= 'a' && x.[0] <= 'z' ->
    String.concat "." (g.modpath @ [ x ])
  | _ -> String.concat "." path

(* --- Scanner state -------------------------------------------------- *)

(* An open application: [head] applied to the arguments scanned so far.
   [argi] counts unlabelled argument atoms (labelled ones are matched by
   name, so they do not shift positions); [lab] is the label of the
   argument atom currently open, [pending] a label waiting for its
   atom ([~l: expr]). *)
type app = {
  ahead : string list;
  fdepth : int;
  mutable argi : int;
  mutable lab : string option;
  mutable pending : string option;
  mutable in_atom : bool;
}

type scan = {
  toks : Lexer.token array;
  n : int;
  aliases : (string, string list) Hashtbl.t;
  mutable depth : int;
  mutable openers : char list;             (* innermost first *)
  mutable bstack : (int * int) list;       (* (group, depth), innermost first *)
  mutable astack : app list;               (* innermost first *)
  mutable expr_start : bool;
  mutable in_typedecl : bool;
  mutable typedecl_depth : int;
  mutable next_group : int;
  mutable bindings : binding list;
  mutable uses : use list;
}

let kind_at s i = if i >= 0 && i < s.n then Some s.toks.(i).Lexer.kind else None

let is_opener = function
  | Lexer.Op ("(" | "[" | "{") -> true
  | Lexer.Keyword ("begin" | "struct" | "sig" | "object") -> true
  | _ -> false

let is_closer = function
  | Lexer.Op (")" | "]" | "}") -> true
  | Lexer.Keyword "end" -> true
  | _ -> false

(* Does the token start an expression atom (and therefore, right after a
   path in head position, mark that path as applied)? *)
let starts_atom = function
  | Lexer.Lident _ | Lexer.Uident _ | Lexer.Int_lit | Lexer.String_lit
  | Lexer.Char_lit -> true
  | Lexer.Op ("(" | "[" | "{" | "~" | "?" | "!") -> true
  | Lexer.Keyword ("true" | "false" | "fun" | "function" | "begin") -> true
  | _ -> false

let fresh s =
  let g = s.next_group in
  s.next_group <- g + 1;
  g

let pop_frames_deeper s d =
  let rec go = function
    | a :: rest when a.fdepth > d -> go rest
    | rest -> rest
  in
  s.astack <- go s.astack

(* The pseudo-head recorded for anonymous [fun]/[function] bodies: a
   use inside a lambda does not flow into the application the lambda is
   an argument of (the closure does, but tracking that through generic
   runners like [timed] or a pool's [map] would conflate every call
   site).  {!Taint} stops its outward frame walk here; the use still
   taints the binding the lambda body sits under. *)
let lambda_head = [ "(fun)" ]

let lambda_frame s =
  { ahead = lambda_head;
    fdepth = s.depth;
    argi = -1;
    lab = None;
    pending = None;
    in_atom = false }

(* Operators and branch keywords terminate open applications at their
   depth, but a lambda extends past them ([fun () -> a; b] — [b] is
   still inside the lambda), so markers survive until the depth drops
   or an [in]/[let] closes the scope. *)
let pop_frames_at ?(keep_lambdas = false) s d =
  let rec go = function
    | a :: rest when a.fdepth >= d ->
      if keep_lambdas && a.ahead == lambda_head then a :: go rest else go rest
    | rest -> rest
  in
  s.astack <- go s.astack

let pop_bindings_deeper s d =
  let rec go = function
    | (_, bd) :: rest when bd > d -> go rest
    | rest -> rest
  in
  s.bstack <- go s.bstack

(* Mark that an atom is starting at the innermost frame (if it is at the
   frame's own depth): consume a pending label or count a positional
   argument. *)
let begin_atom s =
  match s.astack with
  | a :: _ when a.fdepth = s.depth && not a.in_atom ->
    (match a.pending with
     | Some l ->
       a.lab <- Some l;
       a.pending <- None
     | None ->
       a.argi <- a.argi + 1;
       a.lab <- None);
    a.in_atom <- true
  | _ -> ()

let end_atom s =
  match s.astack with
  | a :: _ when a.fdepth = s.depth -> a.in_atom <- false
  | _ -> ()

let snapshot_frames s =
  List.map
    (fun a -> { head = a.ahead; arg_index = a.argi; arg_label = a.lab })
    s.astack

(* --- Path consumption ----------------------------------------------- *)

(* Starting at an Uident, collect [U(.U)*(.l)?]; starting at an Lident,
   collect just the root and skip trailing projections, module-qualified
   ones ([x.M.field]) included, so the whole projection stays one
   argument atom.  Returns (path, next_index). *)
let consume_path s i =
  match s.toks.(i).Lexer.kind with
  | Lexer.Uident u ->
    let comps = ref [ u ] in
    let j = ref i in
    let stop = ref false in
    while not !stop do
      match kind_at s (!j + 1), kind_at s (!j + 2) with
      | Some (Lexer.Op "."), Some (Lexer.Uident v) ->
        comps := v :: !comps;
        j := !j + 2
      | Some (Lexer.Op "."), Some (Lexer.Lident l) ->
        comps := l :: !comps;
        j := !j + 2;
        stop := true
      | _ -> stop := true
    done;
    List.rev !comps, !j + 1
  | Lexer.Lident x ->
    let j = ref i in
    let stop = ref false in
    while not !stop do
      match kind_at s (!j + 1), kind_at s (!j + 2), kind_at s (!j + 3) with
      | Some (Lexer.Op "."), Some (Lexer.Lident _), _
      | Some (Lexer.Op "."), Some (Lexer.Uident _), Some (Lexer.Op ".") ->
        j := !j + 2
      | _ -> stop := true
    done;
    [ x ], !j + 1
  | _ -> [], i + 1

let expand_alias s path =
  let rec expand depth path =
    if depth = 0 then path
    else
      match path with
      | root :: rest -> (
        match Hashtbl.find_opt s.aliases root with
        | Some rhs when rhs <> [ root ] -> expand (depth - 1) (rhs @ rest)
        | _ -> path)
      | [] -> path
  in
  expand 4 path

(* --- Pattern parsing ------------------------------------------------ *)

(* Collect the Lidents of a pattern token slice that are bound names:
   skip field projections ([.x]) and everything after a [:] type
   annotation (reset at [,] and [;]). *)
let pattern_names toks =
  let names = ref [] in
  let ann = ref false in
  List.iteri
    (fun k tk ->
      match tk with
      | Lexer.Op (":") -> ann := true
      | Lexer.Op ("," | ";") -> ann := false
      | Lexer.Lident x when x <> "_" && not !ann ->
        let prev = if k = 0 then None else Some (List.nth toks (k - 1)) in
        if prev <> Some (Lexer.Op ".") then names := x :: !names
      | _ -> ())
    toks;
  List.rev !names

(* Parse one parameter pattern list (the tokens between a function name
   and [=]).  Returns slots; each slot registers its bound names as
   param bindings. *)
let parse_params s line toks =
  let slots = ref [] in
  let register names =
    List.map
      (fun name ->
        let g = fresh s in
        s.bindings <-
          { group = g; name; line; toplevel = false; is_param = true; slots = [] }
          :: s.bindings;
        g)
      names
  in
  let add label names = slots := { label; groups = register names } :: !slots in
  let arr = Array.of_list toks in
  let n = Array.length arr in
  let i = ref 0 in
  (* skip a parenthesized group, returning the tokens inside *)
  let group_tokens stop_open stop_close =
    (* arr.(!i) is the opener *)
    let d = ref 1 in
    let inner = ref [] in
    incr i;
    while !d > 0 && !i < n do
      (match arr.(!i) with
       | Lexer.Op o when o = stop_open -> incr d
       | Lexer.Op c when c = stop_close -> decr d
       | _ -> ());
      if !d > 0 then inner := arr.(!i) :: !inner;
      incr i
    done;
    List.rev !inner
  in
  let stop = ref false in
  while not !stop && !i < n do
    (match arr.(!i) with
     | Lexer.Op "~" | Lexer.Op "?" -> (
       match (if !i + 1 < n then Some arr.(!i + 1) else None) with
       | Some (Lexer.Lident l) ->
         if !i + 2 < n && arr.(!i + 2) = Lexer.Op ":" then begin
           (* ~l: pattern — one atom follows *)
           i := !i + 3;
           if !i < n then
             match arr.(!i) with
             | Lexer.Lident x ->
               add (Some l) (if x = "_" then [] else [ x ]);
               incr i
             | Lexer.Op "(" ->
               let inner = group_tokens "(" ")" in
               (* ?(x = default): names stop at the [=] *)
               let before_eq =
                 let rec take = function
                   | Lexer.Op "=" :: _ -> []
                   | t :: rest -> t :: take rest
                   | [] -> []
                 in
                 take inner
               in
               add (Some l) (pattern_names before_eq)
             | _ ->
               add (Some l) [];
               incr i
         end
         else begin
           (* pun: ~l binds l *)
           add (Some l) [ l ];
           i := !i + 2
         end
       | Some (Lexer.Op "(") ->
         (* ?(x = default) without label rename *)
         i := !i + 1;
         let inner = group_tokens "(" ")" in
         let before_eq =
           let rec take = function
             | Lexer.Op "=" :: _ -> []
             | t :: rest -> t :: take rest
             | [] -> []
           in
           take inner
         in
         (match pattern_names before_eq with
          | x :: _ -> add (Some x) [ x ]
          | [] -> add None [])
       | _ -> incr i)
     | Lexer.Lident "_" ->
       add None [];
       incr i
     | Lexer.Lident x ->
       add None [ x ];
       incr i
     | Lexer.Op "(" ->
       let inner = group_tokens "(" ")" in
       add None (pattern_names inner)
     | Lexer.Op "{" ->
       let inner = group_tokens "{" "}" in
       add None (pattern_names inner)
     | Lexer.Op "[" ->
       let inner = group_tokens "[" "]" in
       add None (pattern_names inner)
     | Lexer.Op ":" ->
       (* return-type annotation: the rest is a type *)
       stop := true
     | Lexer.Int_lit | Lexer.String_lit | Lexer.Char_lit ->
       add None [];
       incr i
     | _ -> incr i);
    ()
  done;
  List.rev !slots

(* Parse a [let]/[and] binding starting at the keyword at index [i].
   Returns the index just after the [=] (scanning resumes in the RHS),
   or [i + 1] when no binding shape is recognized. *)
let parse_binding s i =
  let line = s.toks.(i).Lexer.line in
  let j = ref (i + 1) in
  (match kind_at s !j with
   | Some (Lexer.Keyword ("rec" | "nonrec")) -> incr j
   | _ -> ());
  match kind_at s !j with
  | Some (Lexer.Keyword ("open" | "module" | "exception")) -> i + 1
  | _ ->
    (* scan to the [=] at pattern depth 0 *)
    let pat = ref [] in
    let pdepth = ref 0 in
    let eq = ref (-1) in
    let k = ref !j in
    let give_up = ref false in
    while !eq < 0 && (not !give_up) && !k < s.n && !k - !j < 200 do
      (match s.toks.(!k).Lexer.kind with
       | Lexer.Op ("(" | "[" | "{") -> incr pdepth
       | Lexer.Op (")" | "]" | "}") ->
         decr pdepth;
         if !pdepth < 0 then give_up := true
       | Lexer.Op "=" when !pdepth = 0 -> eq := !k
       | Lexer.Keyword ("in" | "let" | "and" | "struct" | "end") ->
         give_up := true
       | _ -> ());
      if !eq < 0 && not !give_up then begin
        pat := s.toks.(!k).Lexer.kind :: !pat;
        incr k
      end
    done;
    if !eq < 0 then i + 1
    else begin
      let pat = List.rev !pat in
      let toplevel = s.depth = 0 && s.bstack = [] in
      let g = fresh s in
      let register ?(slots = []) name =
        s.bindings <-
          { group = g; name; line; toplevel; is_param = false; slots }
          :: s.bindings
      in
      (match pat with
       | [] -> register "_"
       | Lexer.Lident name :: rest -> (
         match rest with
         | [] -> register name
         | Lexer.Op "," :: _ | Lexer.Op ":" :: _ ->
           (* tuple pattern or annotated simple binding: co-bound names *)
           List.iter register (pattern_names pat)
         | _ ->
           (* function definition: the rest is the parameter list *)
           let slots = parse_params s line rest in
           register ~slots name)
       | _ ->
         (* destructuring ([let (a, b) = ...], [let { x; y } = ...],
            [let () = ...], operators): all pattern names co-bound *)
         (match pattern_names pat with
          | [] -> register "_"
          | names -> List.iter register names));
      s.bstack <- (g, s.depth) :: s.bstack;
      !eq + 1
    end

(* Skip a [fun]-parameter list: tokens up to the [->] at the same
   nesting depth (the parameters are binders, not uses). *)
let skip_fun_params s i =
  let k = ref (i + 1) in
  let d = ref 0 in
  let stop = ref false in
  while (not !stop) && !k < s.n && !k - i < 120 do
    (match s.toks.(!k).Lexer.kind with
     | Lexer.Op ("(" | "[" | "{") -> incr d
     | Lexer.Op (")" | "]" | "}") -> decr d
     | Lexer.Op "->" when !d <= 0 -> stop := true
     | Lexer.Keyword ("fun" | "function" | "let" | "in") -> stop := true
     | _ -> ());
    if not !stop then incr k
  done;
  if !stop then !k + 1 else i + 1

(* --- Main scan ------------------------------------------------------ *)

let build ~rel ~modpath (lex : Lexer.t) =
  let s =
    { toks = lex.Lexer.tokens;
      n = Array.length lex.Lexer.tokens;
      aliases = Hashtbl.create 8;
      depth = 0;
      openers = [];
      bstack = [];
      astack = [];
      expr_start = true;
      in_typedecl = false;
      typedecl_depth = 0;
      next_group = 0;
      bindings = [];
      uses = [] }
  in
  let i = ref 0 in
  while !i < s.n do
    let tok = s.toks.(!i) in
    let prev = kind_at s (!i - 1) in
    let next = kind_at s (!i + 1) in
    (match tok.Lexer.kind with
     | _ when s.in_typedecl ->
       (* Inside a type declaration only structure is tracked; names in
          type expressions are not value uses. *)
       (match tok.Lexer.kind with
        | k when is_opener k -> s.depth <- s.depth + 1
        | k when is_closer k ->
          s.depth <- max 0 (s.depth - 1);
          if s.depth < s.typedecl_depth then s.in_typedecl <- false
        | Lexer.Keyword ("let" | "module" | "open" | "exception" | "external"
                        | "include" | "val") ->
          s.in_typedecl <- false;
          (* reprocess this token normally, as a structure item *)
          s.expr_start <- false;
          decr i
        | _ -> ());
       incr i
     | Lexer.Keyword "type" when s.bstack = [] ->
       s.in_typedecl <- true;
       s.typedecl_depth <- s.depth;
       incr i
     | Lexer.Keyword "module" ->
       (* record [module X = A.B] aliases; skip the binder *)
       (match kind_at s (!i + 1), kind_at s (!i + 2) with
        | Some (Lexer.Uident u), Some (Lexer.Op "=") -> (
          match kind_at s (!i + 3) with
          | Some (Lexer.Uident _) ->
            let path, after = consume_path s (!i + 3) in
            let rhs = List.filter (fun c -> c <> "" && c.[0] >= 'A' && c.[0] <= 'Z') path in
            Hashtbl.replace s.aliases u rhs;
            i := after
          | _ -> i := !i + 3)
        | _ -> incr i);
       s.expr_start <- false
     | Lexer.Keyword "let" ->
       pop_frames_at ~keep_lambdas:true s s.depth;
       (* A [let] where no expression is expected is a structure item:
          the previous toplevel binding's body just ended, so its scope
          (never closed by [in]) ends here.  Expression [let]s arrive
          with [expr_start] true (after [=], [in], [->], [;], ...) and
          are closed by their own [in]. *)
       if s.depth = 0 && not s.expr_start then begin
         s.bstack <- [];
         s.astack <- []
       end;
       i := parse_binding s !i;
       s.expr_start <- true
     | Lexer.Keyword "and" ->
       (* continuation of a [let]/[let rec] group at this depth: the
          sibling binding's RHS ends here *)
       pop_frames_at ~keep_lambdas:true s s.depth;
       (match s.bstack with
        | (_, bd) :: rest when bd = s.depth -> s.bstack <- rest
        | _ -> ());
       i := parse_binding s !i;
       s.expr_start <- true
     | Lexer.Keyword "in" ->
       (* [let ... in] inside a lambda body does not end the lambda:
          keep the marker, it falls with its opening paren. *)
       pop_frames_at ~keep_lambdas:true s s.depth;
       (match s.bstack with
        | (_, bd) :: rest when bd = s.depth -> s.bstack <- rest
        | _ -> ());
       s.expr_start <- true;
       incr i
     | Lexer.Keyword "fun" ->
       begin_atom s;
       end_atom s;
       s.astack <- lambda_frame s :: s.astack;
       i := skip_fun_params s !i;
       s.expr_start <- true
     | Lexer.Keyword "function" ->
       begin_atom s;
       end_atom s;
       s.astack <- lambda_frame s :: s.astack;
       s.expr_start <- true;
       incr i
     | k when is_opener k ->
       begin_atom s;
       s.depth <- s.depth + 1;
       s.openers <-
         (match k with
          | Lexer.Op "(" -> '('
          | Lexer.Op "[" -> '['
          | Lexer.Op "{" -> '{'
          | _ -> 'b')
         :: s.openers;
       s.expr_start <- true;
       incr i
     | k when is_closer k ->
       (match s.openers with [] -> () | _ :: rest -> s.openers <- rest);
       s.depth <- max 0 (s.depth - 1);
       pop_frames_deeper s s.depth;
       pop_bindings_deeper s s.depth;
       end_atom s;
       s.expr_start <- false;
       incr i
     | Lexer.Op "~" | Lexer.Op "?" -> (
       (* labelled argument: [~l:] marks the next atom, [~l] is a pun *)
       match kind_at s (!i + 1), kind_at s (!i + 2) with
       | Some (Lexer.Lident l), Some (Lexer.Op ":") ->
         (match s.astack with
          | a :: _ when a.fdepth = s.depth ->
            a.pending <- Some l;
            a.in_atom <- false
          | _ -> ());
         i := !i + 3;
         s.expr_start <- false
       | Some (Lexer.Lident l), _ ->
         begin_atom s;
         (match s.astack with
          | a :: _ when a.fdepth = s.depth && a.in_atom && a.lab = None ->
            (* retroactively label the pun atom *)
            a.argi <- a.argi - 1;
            a.lab <- Some l
          | _ -> ());
         s.uses <-
           { path = [ l ];
             line = tok.Lexer.line;
             col = tok.Lexer.col;
             binder = (match s.bstack with (g, _) :: _ -> g | [] -> -1);
             frames = snapshot_frames s }
           :: s.uses;
         end_atom s;
         i := !i + 2;
         s.expr_start <- false
       | _ ->
         incr i)
     | Lexer.Lident x -> (
       let field_label =
         (* [{ f = e }] / [{ r with f = e }]: f is a field name *)
         next = Some (Lexer.Op "=")
         && (match s.openers with '{' :: _ -> true | _ -> false)
         && (match prev with
             | Some (Lexer.Op ("{" | ";")) | Some (Lexer.Keyword "with") -> true
             | _ -> false)
       in
       if prev = Some (Lexer.Op ".") || field_label then begin
         s.expr_start <- false;
         incr i
       end
       else begin
         ignore x;
         begin_atom s;
         let path, after = consume_path s !i in
         let frames = snapshot_frames s in
         s.uses <-
           { path = expand_alias s path;
             line = tok.Lexer.line;
             col = tok.Lexer.col;
             binder = (match s.bstack with (g, _) :: _ -> g | [] -> -1);
             frames }
           :: s.uses;
         (* head position: first atom of an expression, applied to at
            least one following atom *)
         (match kind_at s after with
          | Some k when starts_atom k && s.expr_start ->
            s.astack <-
              { ahead = expand_alias s path;
                fdepth = s.depth;
                argi = -1;
                lab = None;
                pending = None;
                in_atom = false }
              :: s.astack
          | _ -> end_atom s);
         s.expr_start <- false;
         i := after
       end)
     | Lexer.Uident _ -> (
       if prev = Some (Lexer.Keyword "module") then begin
         s.expr_start <- false;
         incr i
       end
       else begin
         begin_atom s;
         let path, after = consume_path s !i in
         let frames = snapshot_frames s in
         s.uses <-
           { path = expand_alias s path;
             line = tok.Lexer.line;
             col = tok.Lexer.col;
             binder = (match s.bstack with (g, _) :: _ -> g | [] -> -1);
             frames }
           :: s.uses;
         (match kind_at s after with
          | Some k when starts_atom k && s.expr_start ->
            s.astack <-
              { ahead = expand_alias s path;
                fdepth = s.depth;
                argi = -1;
                lab = None;
                pending = None;
                in_atom = false }
              :: s.astack
          | _ -> end_atom s);
         s.expr_start <- false;
         i := after
       end)
     | Lexer.Int_lit | Lexer.String_lit | Lexer.Char_lit
     | Lexer.Keyword ("true" | "false") ->
       begin_atom s;
       end_atom s;
       s.expr_start <- false;
       incr i
     | Lexer.Op ("." | "!" | "#") ->
       incr i
     | Lexer.Op ":" ->
       end_atom s;
       incr i
     | Lexer.Op _ ->
       (* operators, [;], [,], [|], [->], [@@], ...: terminate open
          applications at this depth and start a new expression *)
       pop_frames_at ~keep_lambdas:true s s.depth;
       s.expr_start <- true;
       incr i
     | Lexer.Keyword ("if" | "then" | "else" | "match" | "with" | "when"
                     | "try" | "do" | "done" | "while" | "for" | "to"
                     | "downto" | "lazy" | "assert" | "new") ->
       pop_frames_at ~keep_lambdas:true s s.depth;
       s.expr_start <- true;
       incr i
     | Lexer.Keyword _ ->
       s.expr_start <- true;
       incr i)
  done;
  { rel; modpath; bindings = List.rev s.bindings; uses = List.rev s.uses }
