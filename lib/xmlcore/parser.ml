exception Parse_error of { position : int; message : string }

(* One tokenizer, two sinks: [parse] stacks the open elements and
   builds their trees bottom-up, [parse_doc] appends each node to a
   {!Doc.Builder} as it is read. *)
type frame = { tag : string; mutable children : Tree.t list (* reversed *) }

type sink =
  | To_tree of { mutable open_ : frame list; mutable root : Tree.t option }
  | To_doc of Doc.Builder.t

type state = {
  input : string;
  mutable pos : int;
  sink : sink;
  drop : string;  (* the root attribute to leave out, "@"-prefixed; "" for none *)
  mutable text : Buffer.t option;  (* made on first use, shared by every element *)
}

let fail st message = raise (Parse_error { position = st.pos; message })

let at_end st = st.pos >= String.length st.input
let current st = String.unsafe_get st.input st.pos
let advance st n = st.pos <- st.pos + n

(* [prefix] from [i] on against [s] from [at + i]; the caller checks
   the bounds. *)
let rec same s at prefix i n =
  i >= n
  || (String.unsafe_get s (at + i) = String.unsafe_get prefix i && same s at prefix (i + 1) n)

let rec same_span s a b i n =
  i >= n
  || (String.unsafe_get s (a + i) = String.unsafe_get s (b + i) && same_span s a b (i + 1) n)

(* Compared in place: a lookahead allocates nothing. *)
let looking_at st prefix =
  let n = String.length prefix in
  st.pos + n <= String.length st.input && same st.input st.pos prefix 0 n

(* The first [pattern] at or after [from], or -1. *)
let rec find s pattern from =
  let n = String.length pattern in
  if from + n > String.length s then -1
  else if same s from pattern 0 n then from
  else find s pattern (from + 1)

let expect st prefix =
  if looking_at st prefix then advance st (String.length prefix)
  else fail st (Printf.sprintf "expected %S" prefix)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_spaces st =
  while (not (at_end st)) && is_space (current st) do
    advance st 1
  done

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | _ -> false

(* '#' is admitted beyond XML's NameChar because the paper's running
   example uses tags like "policy#". *)
let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' | '#' -> true | _ -> false)

(* Past a name; where it starts is the caller's [st.pos] before. *)
let skip_name st =
  if (not (at_end st)) && is_name_start (current st) then advance st 1
  else fail st "expected a name";
  while (not (at_end st)) && is_name_char (current st) do
    advance st 1
  done

(* Past the characters text runs through: everything but markup and
   entity references. *)
let skip_plain st =
  while (not (at_end st)) && (match current st with '<' | '&' -> false | _ -> true) do
    advance st 1
  done

(* Whether some character of the span is not whitespace (String.trim's
   set): text that is all whitespace is insignificant and dropped. *)
let rec significant s i stop =
  i < stop
  && ((match String.unsafe_get s i with ' ' | '\012' | '\n' | '\r' | '\t' -> false | _ -> true)
     || significant s (i + 1) stop)

let text_buffer st =
  match st.text with
  | Some b ->
    Buffer.clear b;
    b
  | None ->
    let b = Buffer.create 64 in
    st.text <- Some b;
    b

let add_utf8 buf c =
  let byte x = Buffer.add_char buf (Char.unsafe_chr x) in
  if c < 0x80 then byte c
  else if c < 0x800 then begin
    byte (0xC0 lor (c lsr 6));
    byte (0x80 lor (c land 0x3F))
  end
  else if c < 0x10000 then begin
    byte (0xE0 lor (c lsr 12));
    byte (0x80 lor ((c lsr 6) land 0x3F));
    byte (0x80 lor (c land 0x3F))
  end
  else begin
    byte (0xF0 lor (c lsr 18));
    byte (0x80 lor ((c lsr 12) land 0x3F));
    byte (0x80 lor ((c lsr 6) land 0x3F));
    byte (0x80 lor (c land 0x3F))
  end

(* Called just past '&': the decoded reference goes into [buf]. *)
let decode_entity st buf =
  let semi = String.index_from_opt st.input st.pos ';' in
  let semi =
    match semi with
    | Some i when i - st.pos <= 10 -> i
    | Some _ | None -> fail st "unterminated entity reference"
  in
  let len = semi - st.pos in
  let named name = len = String.length name && same st.input st.pos name 0 len in
  (if named "amp" then Buffer.add_char buf '&'
   else if named "lt" then Buffer.add_char buf '<'
   else if named "gt" then Buffer.add_char buf '>'
   else if named "quot" then Buffer.add_char buf '"'
   else if named "apos" then Buffer.add_char buf '\''
   else if len > 1 && st.input.[st.pos] = '#' then begin
     let digits = String.sub st.input (st.pos + 1) (len - 1) in
     let code =
       try
         if digits.[0] = 'x' || digits.[0] = 'X' then
           int_of_string ("0x" ^ String.sub digits 1 (String.length digits - 1))
         else int_of_string digits
       with Failure _ -> fail st "malformed character reference"
     in
     if code < 0 || code > 0x10FFFF then fail st "malformed character reference";
     add_utf8 buf code
   end
   else fail st (Printf.sprintf "unknown entity &%s;" (String.sub st.input st.pos len)));
  st.pos <- semi + 1

(* At the opening quote.  A value without references is one substring
   of the input. *)
let parse_quoted_value st =
  let quote =
    if at_end st then '\000'
    else match current st with '"' | '\'' as q -> q | _ -> '\000'
  in
  if quote = '\000' then fail st "expected a quoted attribute value";
  advance st 1;
  let start = st.pos in
  while (not (at_end st)) && (match current st with '&' -> false | c -> c <> quote) do
    advance st 1
  done;
  if at_end st then fail st "unterminated attribute value";
  if current st = quote then begin
    let v = String.sub st.input start (st.pos - start) in
    advance st 1;
    v
  end
  else begin
    let out = text_buffer st in
    Buffer.add_substring out st.input start (st.pos - start);
    let finished = ref false in
    while not !finished do
      if at_end st then fail st "unterminated attribute value";
      match current st with
      | c when c = quote ->
        advance st 1;
        finished := true
      | '&' ->
        advance st 1;
        decode_entity st out
      | c ->
        advance st 1;
        Buffer.add_char out c
    done;
    Buffer.contents out
  end

(* Skip <!-- ... -->, <? ... ?> and <!DOCTYPE ...>, and the whitespace
   around them. *)
let rec skip_misc st =
  skip_spaces st;
  if looking_at st "<!--" then begin
    let i = find st.input "-->" (st.pos + 4) in
    if i < 0 then fail st "unterminated comment";
    st.pos <- i + 3;
    skip_misc st
  end
  else if looking_at st "<?" then begin
    let i = find st.input "?>" (st.pos + 2) in
    if i < 0 then fail st "unterminated processing instruction";
    st.pos <- i + 2;
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    (* Skip to the matching '>' accounting for an internal subset. *)
    let depth = ref 0 and finished = ref false in
    advance st 9;
    while not !finished do
      if at_end st then fail st "unterminated DOCTYPE";
      (match current st with
       | '[' -> incr depth
       | ']' -> decr depth
       | '>' when !depth = 0 -> finished := true
       | _ -> ());
      advance st 1
    done;
    skip_misc st
  end

(* At "<![CDATA[": its content goes into [buf]; returns whether it is
   significant. *)
let parse_cdata st buf =
  expect st "<![CDATA[";
  let close = find st.input "]]>" st.pos in
  if close < 0 then fail st "unterminated CDATA section";
  Buffer.add_substring buf st.input st.pos (close - st.pos);
  let significant = significant st.input st.pos close in
  st.pos <- close + 3;
  significant

(* --- The sinks ------------------------------------------------------- *)

let open_element st tag =
  match st.sink with
  | To_tree t -> t.open_ <- { tag; children = [] } :: t.open_
  | To_doc b -> Doc.Builder.open_node b tag

let add_attribute st tag v =
  match st.sink with
  | To_tree { open_ = frame :: _; _ } -> frame.children <- Tree.leaf tag v :: frame.children
  | To_tree { open_ = []; _ } -> assert false
  | To_doc b ->
    Doc.Builder.open_node b tag;
    Doc.Builder.close_node b (Some v)

(* A document node holds a value or children, never both: text beside
   attributes has no [Doc] form. *)
let close_element st value =
  match st.sink with
  | To_tree ({ open_ = { tag; children } :: rest; _ } as t) ->
    let children = match value with Some v -> Tree.Text v :: children | None -> children in
    let element = Tree.Element (tag, List.rev children) in
    t.open_ <- rest;
    (match rest with
     | parent :: _ -> parent.children <- element :: parent.children
     | [] -> t.root <- Some element)
  | To_tree { open_ = []; _ } -> assert false
  | To_doc b ->
    if value <> None && Doc.Builder.has_children b then
      fail st "mixed content: text beside attributes";
    Doc.Builder.close_node b value

(* --- Elements -------------------------------------------------------- *)

let name_at st start len = String.sub st.input start len

let attribute_tag st start len =
  let tag = Bytes.create (len + 1) in
  Bytes.set tag 0 '@';
  Bytes.blit_string st.input start tag 1 len;
  Bytes.unsafe_to_string tag

(* Just past "</": the close tag must name the element opened at
   [start]. *)
let parse_close st start len =
  let close = st.pos in
  skip_name st;
  let close_len = st.pos - close in
  skip_spaces st;
  expect st ">";
  if not (close_len = len && same_span st.input start close 0 len) then
    fail st
      (Printf.sprintf "mismatched close tag </%s> for <%s>" (name_at st close close_len)
         (name_at st start len))

let rec parse_element st ~root =
  expect st "<";
  let start = st.pos in
  skip_name st;
  let len = st.pos - start in
  open_element st (name_at st start len);
  parse_attributes st ~root;
  if looking_at st "/>" then begin
    advance st 2;
    close_element st None
  end
  else begin
    expect st ">";
    parse_content st start len
  end

(* Attributes become "@"-tagged leaf children, in source order.  The
   dropped one is matched in place and its value read past. *)
and parse_attributes st ~root =
  skip_spaces st;
  if (not (at_end st)) && is_name_start (current st) then begin
    let start = st.pos in
    skip_name st;
    let len = st.pos - start in
    skip_spaces st;
    expect st "=";
    skip_spaces st;
    let dropped =
      root && len + 1 = String.length st.drop && same st.input (start - 1) st.drop 1 (len + 1)
    in
    let v = parse_quoted_value st in
    if not dropped then add_attribute st (attribute_tag st start len) v;
    parse_attributes st ~root
  end

(* Element content up to the close tag of the element whose name lies
   at [start].  Content that is one run of plain text is a substring of
   the input; anything else goes through the text buffer. *)
and parse_content st start len =
  let from = st.pos in
  skip_plain st;
  if looking_at st "</" then begin
    let stop = st.pos in
    advance st 2;
    parse_close st start len;
    close_element st
      (if significant st.input from stop then Some (String.sub st.input from (stop - from))
       else None)
  end
  else begin
    st.pos <- from;
    parse_pieces st start len
  end

(* Text pieces and child elements.  Only whether text was significant
   matters once a child element appears (text then is mixed content),
   so each child starts the buffer afresh. *)
and parse_pieces st start len =
  let text = text_buffer st in
  let children = ref false and significant_text = ref false and finished = ref false in
  while not !finished do
    if at_end st then
      fail st (Printf.sprintf "unterminated element <%s>" (name_at st start len));
    match current st with
    | '<' ->
      if looking_at st "</" then begin
        advance st 2;
        parse_close st start len;
        finished := true
      end
      else if looking_at st "<![CDATA[" then begin
        if parse_cdata st text then significant_text := true
      end
      else if looking_at st "<!--" || looking_at st "<?" then skip_misc st
      else begin
        children := true;
        parse_element st ~root:false;
        Buffer.clear text
      end
    | '&' ->
      advance st 1;
      let before = Buffer.length text in
      decode_entity st text;
      for i = before to Buffer.length text - 1 do
        match Buffer.nth text i with
        | ' ' | '\012' | '\n' | '\r' | '\t' -> ()
        | _ -> significant_text := true
      done
    | _ ->
      let run = st.pos in
      skip_plain st;
      Buffer.add_substring text st.input run (st.pos - run);
      if significant st.input run st.pos then significant_text := true
  done;
  match !children, !significant_text with
  | false, true -> close_element st (Some (Buffer.contents text))
  | false, false | true, false -> close_element st None
  | true, true -> fail st (Printf.sprintf "mixed content under <%s>" (name_at st start len))

let run ?(drop = "") sink s =
  let st = { input = s; pos = 0; sink; drop; text = None } in
  skip_misc st;
  skip_spaces st;
  if at_end st || current st <> '<' then fail st "expected a root element";
  parse_element st ~root:true;
  skip_misc st;
  skip_spaces st;
  if st.pos <> String.length s then fail st "trailing content after root element"

let parse s =
  let sink = To_tree { open_ = []; root = None } in
  run sink s;
  match sink with
  | To_tree { root = Some root; _ } -> root
  | To_tree { root = None; _ } | To_doc _ -> assert false

(* Every element opens with '<' and a name, every attribute has its
   '=': their count bounds the node count, so the builder's arrays are
   sized once and trimmed at the end. *)
let node_bound s =
  let n = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '=' -> incr n
    | '<' when i + 1 < String.length s && is_name_start (String.unsafe_get s (i + 1)) -> incr n
    | _ -> ()
  done;
  !n

let parse_doc ?drop s =
  let b = Doc.Builder.create ~capacity:(node_bound s) () in
  run ?drop (To_doc b) s;
  Doc.Builder.finish b
