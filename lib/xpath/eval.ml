(* Staged on the literal: when it is not a number, no value needs
   parsing, since the comparison is lexicographic either way. *)
let comparison op literal =
  let holds result =
    match op with
    | Ast.Eq -> result = 0
    | Ast.Neq -> result <> 0
    | Ast.Lt -> result < 0
    | Ast.Le -> result <= 0
    | Ast.Gt -> result > 0
    | Ast.Ge -> result >= 0
  in
  match float_of_string_opt literal with
  | None -> fun v -> holds (String.compare v literal)
  | Some b ->
    fun v ->
      holds
        (match float_of_string_opt v with
         | Some a -> compare a b
         | None -> String.compare v literal)

let compare_values v op literal = comparison op literal v

module Make (N : Nav.S) = struct
  let sort_unique nodes = List.sort_uniq N.compare_node nodes

  (* Set operations on node lists in document order. *)
  let merge keep_a keep_both keep_b a b =
    let rec go acc a b =
      match a, b with
      | [], rest -> List.rev_append acc (if keep_b then rest else [])
      | rest, [] -> List.rev_append acc (if keep_a then rest else [])
      | x :: a', y :: b' ->
        let c = N.compare_node x y in
        if c = 0 then go (if keep_both then x :: acc else acc) a' b'
        else if c < 0 then go (if keep_a then x :: acc else acc) a' b
        else go (if keep_b then y :: acc else acc) a b'
    in
    go [] a b

  let inter = merge false true false
  let union = merge true true true
  let diff = merge true false false

  (* Everything runs set-at-a-time.  [None] origins are the virtual
     document node of an absolute path. *)
  let rec eval_steps doc origins steps =
    match steps with
    | [] -> Option.value origins ~default:[]
    | step :: rest ->
      let selected = N.step doc origins (Nav.forest_axis step.Ast.axis) step.Ast.test in
      eval_steps doc (Some (satisfying doc step selected)) rest

  (* The nodes of [step]'s selection that satisfy its predicates. *)
  and satisfying doc step nodes =
    List.fold_left (fun nodes p -> filter doc step.Ast.test nodes p) nodes step.Ast.predicates

  (* [filter doc test nodes pred]: the [nodes] (all passing [test]) for
     which [pred] holds.  A predicate depends only on the node it is
     evaluated at, so it can be decided for the whole set at once. *)
  and filter doc test nodes = function
    | _ when nodes = [] -> []
    | Ast.And (a, b) -> filter doc test (filter doc test nodes a) b
    | Ast.Or (a, b) -> union (filter doc test nodes a) (filter doc test nodes b)
    | Ast.Not a -> diff nodes (filter doc test nodes a)
    | Ast.Exists p -> reach doc test nodes p.Ast.steps Fun.id
    | Ast.Compare (p, op, literal) ->
      let compare = comparison op literal in
      let holds =
        List.filter (fun m ->
            match N.value doc m with
            | Some v -> compare v
            | None -> false)
      in
      if p.Ast.steps = [] then holds nodes else reach doc test nodes p.Ast.steps holds

  (* The [nodes] from which the relative chain [steps] reaches a node
     that [final] keeps: down the chain one step at a time, then back up
     along each inverse axis, keeping at every level only the members
     with a surviving successor. *)
  and reach doc test nodes steps final =
    match steps with
    | [] -> final nodes
    | step :: rest ->
      let axis = Nav.forest_axis step.Ast.axis in
      let next = satisfying doc step (N.step doc (Some nodes) axis step.Ast.test) in
      let survivors = if next = [] then [] else reach doc step.Ast.test next rest final in
      if survivors = [] then []
      else inter nodes (N.step doc (Some survivors) (Xmlcore.Forest.inverse axis) test)

  let eval_from doc context p =
    if p.Ast.absolute then eval_steps doc None p.Ast.steps
    else eval_steps doc (Some (sort_unique context)) p.Ast.steps

  let eval doc p =
    if p.Ast.absolute then eval_steps doc None p.Ast.steps
    else eval_steps doc (Some [ N.root doc ]) p.Ast.steps

  let reaching doc ~test context p ~keep =
    let context = sort_unique context in
    if p.Ast.absolute then (if List.exists keep (eval doc p) then context else [])
    else reach doc test context p.Ast.steps (List.filter keep)

  let matches doc p = eval doc p <> []

  let eval_union doc paths = sort_unique (List.concat_map (eval doc) paths)
end

module Plain = Make (Nav.Doc_nav)

let eval = Plain.eval
let eval_from = Plain.eval_from
let reaching = Plain.reaching
let matches = Plain.matches
let eval_union = Plain.eval_union
