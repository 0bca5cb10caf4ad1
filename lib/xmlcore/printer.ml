let escape_with escape_quote s =
  let needs_escape = function
    | '&' | '<' | '>' -> true
    | '"' -> escape_quote
    | _ -> false
  in
  if String.exists needs_escape s then begin
    let out = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '&' -> Buffer.add_string out "&amp;"
        | '<' -> Buffer.add_string out "&lt;"
        | '>' -> Buffer.add_string out "&gt;"
        | '"' when escape_quote -> Buffer.add_string out "&quot;"
        | c -> Buffer.add_char out c)
      s;
    Buffer.contents out
  end
  else s

let escape_text = escape_with false
let escape_attr = escape_with true

(* Split children into attribute leaves (emitted on the open tag) and
   ordinary children. *)
let partition_attributes children =
  List.partition
    (function
      | Tree.Element (tag, [ Tree.Text _ ]) -> Tree.is_attribute_tag tag
      | Tree.Element _ | Tree.Text _ -> false)
    children

let add_attributes out attrs =
  List.iter
    (function
      | Tree.Element (tag, [ Tree.Text v ]) ->
        Buffer.add_char out ' ';
        Buffer.add_string out (String.sub tag 1 (String.length tag - 1));
        Buffer.add_string out "=\"";
        Buffer.add_string out (escape_attr v);
        Buffer.add_char out '"'
      | Tree.Element _ | Tree.Text _ -> assert false)
    attrs

let rec add_tree ~indent ~level out node =
  let pad () =
    if indent then begin
      if Buffer.length out > 0 then Buffer.add_char out '\n';
      Buffer.add_string out (String.make (2 * level) ' ')
    end
  in
  match node with
  | Tree.Text v ->
    pad ();
    Buffer.add_string out (escape_text v)
  | Tree.Element (tag, children) ->
    let attrs, rest = partition_attributes children in
    pad ();
    Buffer.add_char out '<';
    Buffer.add_string out tag;
    add_attributes out attrs;
    (match rest with
     | [] -> Buffer.add_string out "/>"
     | [ Tree.Text v ] ->
       Buffer.add_char out '>';
       Buffer.add_string out (escape_text v);
       Buffer.add_string out "</";
       Buffer.add_string out tag;
       Buffer.add_char out '>'
     | rest ->
       Buffer.add_char out '>';
       List.iter (add_tree ~indent ~level:(level + 1) out) rest;
       if indent then begin
         Buffer.add_char out '\n';
         Buffer.add_string out (String.make (2 * level) ' ')
       end;
       Buffer.add_string out "</";
       Buffer.add_string out tag;
       Buffer.add_char out '>')

let tree_to_string ?(indent = false) t =
  let out = Buffer.create 1024 in
  add_tree ~indent ~level:0 out t;
  Buffer.contents out

(* Unindented, straight from the document's arrays: the bytes
   [tree_to_string] gives [Doc.to_tree doc], without building the tree.
   A child leaf with an attribute tag goes on its parent's open tag. *)
let doc_to_string ?(indent = false) doc =
  if indent then tree_to_string ~indent (Doc.to_tree doc)
  else begin
    let out = Buffer.create 1024 in
    let children n f =
      let stop = n + Doc.subtree_node_count doc n in
      let rec go c =
        if c < stop then begin
          f c;
          go (c + Doc.subtree_node_count doc c)
        end
      in
      go (n + 1)
    in
    let attribute c = Doc.value doc c <> None && Tree.is_attribute_tag (Doc.tag doc c) in
    let rec add n =
      let tag = Doc.tag doc n in
      let close () =
        Buffer.add_string out "</";
        Buffer.add_string out tag;
        Buffer.add_char out '>'
      in
      Buffer.add_char out '<';
      Buffer.add_string out tag;
      match Doc.value doc n with
      | Some v ->
        Buffer.add_char out '>';
        Buffer.add_string out (escape_text v);
        close ()
      | None ->
        let elements = ref false in
        children n (fun c ->
            match Doc.value doc c with
            | Some v when attribute c ->
              let name = Doc.tag doc c in
              Buffer.add_char out ' ';
              Buffer.add_substring out name 1 (String.length name - 1);
              Buffer.add_string out "=\"";
              Buffer.add_string out (escape_attr v);
              Buffer.add_char out '"'
            | Some _ | None -> elements := true);
        if !elements then begin
          Buffer.add_char out '>';
          children n (fun c -> if not (attribute c) then add c);
          close ()
        end
        else Buffer.add_string out "/>"
    in
    add (Doc.root doc);
    Buffer.contents out
  end

let serialized_size t =
  (* A Buffer-free size computation would duplicate the printer logic;
     measuring through the buffer keeps the two definitions identical. *)
  String.length (tree_to_string t)
