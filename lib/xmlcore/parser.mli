(** XML parser for the document subset used throughout the system.

    Handles: elements, attributes (turned into ["@"]-tagged leaf
    children, before other children, in source order), text content,
    self-closing tags, comments, processing instructions, XML
    declarations and DOCTYPE (all three skipped), CDATA sections and the
    five predefined entities plus decimal/hex character references.

    Rejects (with {!Parse_error}): mismatched tags, mixed content (text
    and elements under one parent — the paper's data model excludes it),
    and malformed markup.  Whitespace-only text between elements is
    treated as insignificant and dropped. *)

exception Parse_error of { position : int; message : string }

val parse : string -> Tree.t
(** [parse s] parses a complete document, returning the root element.
    @raise Parse_error on malformed input. *)

val parse_doc : ?drop:string -> string -> Doc.t
(** [parse_doc s] is [Doc.of_tree (parse s)], read straight into the
    document's arrays by the same tokenizer: no {!Tree.t} is built.
    [drop] names an attribute by its ["@"]-prefixed tag that is left
    out wherever it occurs on the root element (how a decrypted block
    sheds its decoy, which sits beside a leaf root's text).
    @raise Parse_error on malformed input, and on an element that holds
    text beside attributes, which no {!Doc.t} can hold. *)
