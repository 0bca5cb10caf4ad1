(* Shared test utilities: random document generation and qcheck
   wrappers used across the suite. *)

module Tree = Xmlcore.Tree

let tags = [| "a"; "b"; "c"; "d"; "item"; "name"; "price" |]
let values = [| "x"; "y"; "z"; "10"; "20"; "30"; "hello" |]

(* Random tree with no mixed content, matching the system's data
   model.  [size] caps the node count loosely. *)
let rec random_tree rng ~depth ~fanout =
  let tag = tags.(Crypto.Prng.int rng (Array.length tags)) in
  if depth = 0 || Crypto.Prng.int rng 100 < 35 then
    Tree.leaf tag values.(Crypto.Prng.int rng (Array.length values))
  else
    let n = 1 + Crypto.Prng.int rng fanout in
    Tree.element tag
      (List.init n (fun _ -> random_tree rng ~depth:(depth - 1) ~fanout))

let random_doc ?(seed = 99L) ?(depth = 4) ?(fanout = 4) () =
  let rng = Crypto.Prng.create seed in
  (* Force the root to be an element. *)
  let children =
    List.init (1 + Crypto.Prng.int rng fanout) (fun _ ->
        random_tree rng ~depth ~fanout)
  in
  Xmlcore.Doc.of_tree (Tree.element "root" children)

let doc_gen =
  QCheck.Gen.map (fun seed -> random_doc ~seed:(Int64.of_int seed) ())
    (QCheck.Gen.int_range 1 1_000_000)

let arbitrary_doc =
  QCheck.make ~print:(fun d -> Xmlcore.Printer.doc_to_string d) doc_gen

let qsuite name tests = name, List.map QCheck_alcotest.to_alcotest tests

let norm_trees trees =
  List.sort compare (List.map Xmlcore.Printer.tree_to_string trees)

let check_trees_equal msg expected got =
  Alcotest.(check (list string)) msg (norm_trees expected) (norm_trees got)

(* One read on a link that is not expected to fail. *)
let read sys request =
  match Secure.System.read sys request with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "read failed: %s" (Secure.Session.error_to_string e)

(* The value an [Extreme] reply holds, as [System.reference_aggregate]
   returns it. *)
let extreme_value (reply : Secure.System.reply) =
  match reply.Secure.System.answers with
  | [ Tree.Element (_, [ Tree.Text v ]) ] -> Some v
  | _ -> None
