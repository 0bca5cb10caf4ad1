module Doc = Xmlcore.Doc

type kind = Opt | App | Sub | Top

let kind_to_string = function
  | Opt -> "opt"
  | App -> "app"
  | Sub -> "sub"
  | Top -> "top"

let all_kinds = [ Opt; App; Sub; Top ]

type t = {
  kind : kind;
  block_roots : Doc.node list;
  covered_tags : string list;
}

(* Drop roots nested inside another root's subtree; result is sorted. *)
let normalize_roots doc roots =
  let sorted = List.sort_uniq compare roots in
  let rec keep = function
    | [] -> []
    | r :: rest ->
      r :: keep (List.filter (fun r' -> not (Doc.is_ancestor doc r r')) rest)
  in
  keep sorted

let opt_roots doc scs ~solver =
  let cg = Constraint_graph.build doc scs in
  let cover = solver cg.Constraint_graph.graph in
  let covered_nodes = Constraint_graph.nodes_for_tags cg cover in
  normalize_roots doc (cg.Constraint_graph.mandatory @ covered_nodes), cover

let build doc scs kind =
  match kind with
  | Top -> { kind; block_roots = [ Doc.root doc ]; covered_tags = [] }
  | Opt ->
    let roots, cover = opt_roots doc scs ~solver:Vertex_cover.exact in
    { kind; block_roots = roots; covered_tags = cover }
  | App ->
    let roots, cover = opt_roots doc scs ~solver:Vertex_cover.clarkson_greedy in
    { kind; block_roots = roots; covered_tags = cover }
  | Sub ->
    let roots, cover = opt_roots doc scs ~solver:Vertex_cover.exact in
    let parents =
      List.map (fun r -> Option.value ~default:(Doc.root doc) (Doc.parent doc r)) roots
    in
    { kind; block_roots = normalize_roots doc parents; covered_tags = cover }

let size doc t =
  List.fold_left
    (fun acc r ->
      let decoy = if Doc.is_leaf doc r then 1 else 0 in
      acc + Doc.subtree_node_count doc r + decoy)
    0 t.block_roots

let block_count t = List.length t.block_roots

(* Preorder ids make a subtree one id run, so marking each root's run
   covers every block in O(n) overall (roots are not nested). *)
let coverage doc t =
  let covered = Array.make (Doc.node_count doc) false in
  List.iter
    (fun r -> Array.fill covered r (Doc.subtree_node_count doc r) true)
    t.block_roots;
  covered

let enforces doc t scs =
  let exception Violation of string in
  let covered = coverage doc t in
  let check sc =
    match sc with
    | Sc.Node_type p ->
      List.iter
        (fun x ->
          if not covered.(x) then
            raise
              (Violation
                 (Printf.sprintf "node-type SC %s: binding node %d is not encrypted"
                    (Sc.to_string sc) x)))
        (Xpath.Eval.eval doc p)
    | Sc.Association { context; q1; q2 } ->
      (* A context violates the SC when each side reaches a plaintext
         node: found for all contexts at once, then the first violating
         context's first plaintext pair is named. *)
      let plain n = not covered.(n) in
      let test =
        match List.rev context.Xpath.Ast.steps with
        | last :: _ -> last.Xpath.Ast.test
        | [] -> Xpath.Ast.Wildcard
      in
      let reaching contexts q = Xpath.Eval.reaching doc ~test contexts q ~keep:plain in
      (match reaching (reaching (Xpath.Eval.eval doc context) q1) q2 with
       | [] -> ()
       | x :: _ ->
         let first q = List.find plain (Xpath.Eval.eval_from doc [ x ] q) in
         raise
           (Violation
              (Printf.sprintf
                 "association SC %s: witness pair (%d, %d) has both sides in plaintext"
                 (Sc.to_string sc) (first q1) (first q2))))
  in
  match List.iter check scs with
  | () -> Ok ()
  | exception Violation msg -> Error msg
