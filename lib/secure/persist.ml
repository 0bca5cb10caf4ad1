module Doc = Xmlcore.Doc
module Interval = Dsi.Interval

exception Corrupt of string

(* Format v2: magic, a 64-bit body length (so torn writes are
   distinguishable from tampering before any MAC check), the body, and
   an HMAC-SHA-256 trailer over everything before it. *)
let magic = "SXQHOST2"
let header_len = String.length magic + 8
let mac_len = 32

(* Primitive codecs live in Codec; readers raise Codec.Error, mapped
   to Corrupt at this module's boundary. *)
module W = Codec.W

module R = struct
  include Codec.R
end

(* ------------------------------------------------------------------ *)
(* Section codecs                                                      *)

let w_interval b (iv : Interval.t) =
  W.float b iv.Interval.lo;
  W.float b iv.Interval.hi

let r_interval r =
  let lo = R.float r in
  let hi = R.float r in
  (try Interval.make lo hi with Invalid_argument m -> raise (Corrupt m))

let w_block b (blk : Encrypt.block) =
  W.int b blk.Encrypt.id;
  W.int b blk.Encrypt.root;
  W.string b blk.Encrypt.ciphertext;
  W.int b blk.Encrypt.plaintext_bytes;
  W.int b blk.Encrypt.node_count;
  W.bool b blk.Encrypt.has_decoy;
  W.int b blk.Encrypt.generation

let r_block r =
  let id = R.int r in
  let root = R.int r in
  let ciphertext = R.string r in
  let plaintext_bytes = R.int r in
  let node_count = R.int r in
  let has_decoy = R.bool r in
  let generation = R.int r in
  { Encrypt.id; root; ciphertext; plaintext_bytes; node_count; has_decoy;
    generation }

let w_target b = function
  | Metadata.To_block id ->
    W.bool b true;
    W.int b id
  | Metadata.To_plain iv ->
    W.bool b false;
    w_interval b iv

let r_target r =
  if R.bool r then Metadata.To_block (R.int r) else Metadata.To_plain (r_interval r)

let w_chunk b (c : Opess.chunk) =
  W.i64 b c.Opess.cipher;
  W.int b c.Opess.occurrences

let r_chunk r =
  let cipher = R.i64 r in
  let occurrences = R.int r in
  { Opess.cipher; occurrences }

let w_entry b (e : Opess.value_entry) =
  W.string b e.Opess.value;
  W.float b e.Opess.numeric;
  W.int b e.Opess.count;
  W.list b w_chunk e.Opess.chunks;
  W.int b e.Opess.scale

let r_entry r =
  let value = R.string r in
  let numeric = R.float r in
  let count = R.int r in
  let chunks = R.list r r_chunk in
  let scale = R.int r in
  { Opess.value; numeric; count; chunks; scale }

let w_catalog b (tag, cat) =
  W.string b tag;
  W.int b (Opess.attr_id cat);
  W.int b (Opess.chunk_parameter cat);
  W.int b (Opess.key_count cat);
  W.list b w_entry (Opess.entries cat)

let r_catalog r =
  let tag = R.string r in
  let attr_id = R.int r in
  let m = R.int r in
  let num_keys = R.int r in
  let entries = R.list r r_entry in
  tag, Opess.of_parts ~tag ~attr_id ~m ~num_keys entries

let kind_to_int = function
  | Scheme.Opt -> 0
  | Scheme.App -> 1
  | Scheme.Sub -> 2
  | Scheme.Top -> 3

let kind_of_int = function
  | 0 -> Scheme.Opt
  | 1 -> Scheme.App
  | 2 -> Scheme.Sub
  | 3 -> Scheme.Top
  | n -> raise (Corrupt (Printf.sprintf "unknown scheme kind %d" n))

(* ------------------------------------------------------------------ *)
(* Whole-bundle codec                                                  *)

(* The body is a sequence of named sections; writer and reader walk the
   same list of names so verify can localise a failure (and a tear) to
   one section. *)
let encode_body ?(applied_seq = 0) system =
  let b = Buffer.create 65_536 in
  let sections = ref [] in
  let mark name = sections := (name, Buffer.length b) :: !sections in
  let doc = System.doc system in
  let scheme = System.scheme system in
  let db = System.db system in
  let meta = System.metadata system in
  W.string b (Crypto.Cipher.suite_to_string (System.cipher system));
  mark "cipher-suite";
  W.string b (Xmlcore.Printer.doc_to_string doc);
  mark "document";
  W.list b (fun b sc -> W.string b (Sc.to_string sc)) (System.constraints system);
  mark "constraints";
  W.int b (kind_to_int scheme.Scheme.kind);
  W.list b W.int scheme.Scheme.block_roots;
  W.list b W.string scheme.Scheme.covered_tags;
  mark "scheme";
  W.list b w_block db.Encrypt.blocks;
  mark "blocks";
  W.string b (Xmlcore.Printer.tree_to_string db.Encrypt.skeleton);
  mark "skeleton";
  W.list b W.string db.Encrypt.encrypted_tags;
  W.list b W.string db.Encrypt.plaintext_tags;
  mark "tag-partition";
  W.list b
    (fun b (key, ivs) ->
      W.string b key;
      W.list b w_interval ivs)
    meta.Metadata.dsi_table;
  mark "dsi-table";
  W.list b
    (fun b (id, iv) ->
      W.int b id;
      w_interval b iv)
    meta.Metadata.block_table;
  mark "block-table";
  let entries = ref [] in
  Btree.iter meta.Metadata.btree (fun k v -> entries := (k, v) :: !entries);
  W.list b
    (fun b (k, v) ->
      W.i64 b k;
      w_target b v)
    (List.rev !entries);
  mark "value-btree";
  W.list b w_catalog meta.Metadata.catalogs;
  mark "opess-catalogs";
  W.list b W.string meta.Metadata.indexed_tags;
  mark "indexed-tags";
  (* Stored, not recomputed: incremental deltas patch intervals in
     place (gap draws for inserted subtrees), so the hosted assignment
     is no longer a pure function of the master key. *)
  W.list b w_interval
    (Array.to_list (Dsi.Assign.intervals meta.Metadata.assignment));
  mark "dsi-assignment";
  (* Sequence number of the last delta-log record folded into this
     bundle; replay skips records at or below it. *)
  W.int b applied_seq;
  mark "applied-seq";
  Buffer.contents b, List.rev !sections

let section_offsets system =
  let _, sections = encode_body system in
  List.map (fun (name, off) -> name, header_len + off) sections

let mac_key master =
  Crypto.Keys.derive (Crypto.Keys.create ~master ()) "persist-mac"

let to_string ?applied_seq system =
  let body, _ = encode_body ?applied_seq system in
  let master = System.master system in
  let b = Buffer.create (header_len + String.length body + mac_len) in
  Buffer.add_string b magic;
  W.i64 b (Int64.of_int (String.length body));
  Buffer.add_string b body;
  let prefix = Buffer.contents b in
  prefix ^ Crypto.Hmac.mac ~key:(mac_key master) prefix

(* --- Staged body reader -------------------------------------------- *)

(* Decoded parts accumulate here; [stages] lists (name, thunk) in body
   order.  of_string runs every stage and then assembles; verify runs
   them one at a time, catching per-stage failures. *)
type partial = {
  mutable p_cipher : Crypto.Cipher.suite option;
  mutable p_doc : Doc.t option;
  mutable p_constraints : Sc.t list;
  mutable p_kind : Scheme.kind option;
  mutable p_block_roots : int list;
  mutable p_covered_tags : string list;
  mutable p_blocks : Encrypt.block list;
  mutable p_skeleton : Xmlcore.Tree.t option;
  mutable p_encrypted_tags : string list;
  mutable p_plaintext_tags : string list;
  mutable p_dsi_table : (string * Interval.t list) list;
  mutable p_block_table : (int * Interval.t) list;
  mutable p_btree_entries : (int64 * Metadata.target) list;
  mutable p_catalogs : (string * Opess.t) list;
  mutable p_indexed_tags : string list;
  mutable p_assignment : Interval.t list;
  mutable p_applied_seq : int;
}

let fresh_partial () =
  { p_cipher = None; p_doc = None; p_constraints = []; p_kind = None;
    p_block_roots = []; p_covered_tags = []; p_blocks = []; p_skeleton = None;
    p_encrypted_tags = []; p_plaintext_tags = []; p_dsi_table = [];
    p_block_table = []; p_btree_entries = []; p_catalogs = []; p_indexed_tags = [];
    p_assignment = []; p_applied_seq = 0 }

let parse_or_corrupt what f x =
  try f x with
  | Corrupt _ as e -> raise e
  | Xmlcore.Parser.Parse_error _ | Xpath.Parser.Parse_error _
  | Invalid_argument _ ->
    raise (Corrupt ("malformed " ^ what))

let stages r p =
  [ ( "cipher-suite",
      fun () ->
        match Crypto.Cipher.suite_of_string (R.string r) with
        | Some s -> p.p_cipher <- Some s
        | None -> raise (Corrupt "unknown cipher suite") );
    ( "document",
      fun () ->
        p.p_doc <-
          Some (parse_or_corrupt "document" Xmlcore.Parser.parse_doc (R.string r)) );
    ( "constraints",
      fun () ->
        p.p_constraints <-
          List.map (parse_or_corrupt "constraint" Sc.parse) (R.list r R.string) );
    ( "scheme",
      fun () ->
        p.p_kind <- Some (kind_of_int (R.int r));
        p.p_block_roots <- R.list r R.int;
        p.p_covered_tags <- R.list r R.string );
    ("blocks", fun () -> p.p_blocks <- R.list r r_block);
    ( "skeleton",
      fun () ->
        p.p_skeleton <-
          Some (parse_or_corrupt "skeleton" Xmlcore.Parser.parse (R.string r)) );
    ( "tag-partition",
      fun () ->
        p.p_encrypted_tags <- R.list r R.string;
        p.p_plaintext_tags <- R.list r R.string );
    ( "dsi-table",
      fun () ->
        p.p_dsi_table <-
          R.list r (fun r ->
              let key = R.string r in
              let ivs = R.list r r_interval in
              key, ivs) );
    ( "block-table",
      fun () ->
        p.p_block_table <-
          R.list r (fun r ->
              let id = R.int r in
              let iv = r_interval r in
              id, iv) );
    ( "value-btree",
      fun () ->
        p.p_btree_entries <-
          R.list r (fun r ->
              let k = R.i64 r in
              let v = r_target r in
              k, v) );
    ("opess-catalogs", fun () -> p.p_catalogs <- R.list r r_catalog);
    ("indexed-tags", fun () -> p.p_indexed_tags <- R.list r R.string);
    ("dsi-assignment", fun () -> p.p_assignment <- R.list r r_interval);
    ("applied-seq", fun () -> p.p_applied_seq <- R.int r) ]

(* --- Header / framing checks --------------------------------------- *)

type framing =
  | F_ok of string  (* the body *)
  | F_torn of { expected_bytes : int; actual_bytes : int }
  | F_tampered
  | F_malformed of string

(* [check_mac = false] lets verify inspect sections of a torn file. *)
let check_framing ~master data =
  let n = String.length data in
  let magic_len = String.length magic in
  if n < magic_len then begin
    if String.equal data (String.sub magic 0 n) then
      F_torn { expected_bytes = header_len + mac_len; actual_bytes = n }
    else F_malformed "bad magic"
  end
  else if String.sub data 0 magic_len <> magic then F_malformed "bad magic"
  else if n < header_len then
    F_torn { expected_bytes = header_len + mac_len; actual_bytes = n }
  else begin
    let body_len =
      let r = R.make data magic_len in
      R.i64 r
    in
    if Int64.compare body_len 0L < 0
       || Int64.compare body_len 0x40_0000_0000L > 0 then
      F_malformed "implausible body length"
    else begin
      let body_len = Int64.to_int body_len in
      let expected = header_len + body_len + mac_len in
      if n < expected then F_torn { expected_bytes = expected; actual_bytes = n }
      else if n > expected then F_malformed "trailing bytes"
      else begin
        let prefix = String.sub data 0 (header_len + body_len) in
        let mac = String.sub data (header_len + body_len) mac_len in
        if Crypto.Eq.constant_time (Crypto.Hmac.mac ~key:(mac_key master) prefix) mac
        then
          F_ok (String.sub data header_len body_len)
        else F_tampered
      end
    end
  end

(* --- Full decode --------------------------------------------------- *)

let rec of_string_seq ~master data =
  try of_string_exn ~master data with Codec.Error m -> raise (Corrupt m)

and of_string_exn ~master data =
  let body =
    match check_framing ~master data with
    | F_ok body -> body
    | F_torn { expected_bytes; actual_bytes } ->
      raise
        (Corrupt
           (Printf.sprintf "torn write: expected %d bytes, got %d" expected_bytes
              actual_bytes))
    | F_tampered ->
      raise (Corrupt "MAC check failed (tampered file or wrong master secret)")
    | F_malformed m -> raise (Corrupt m)
  in
  let r = R.make body 0 in
  let p = fresh_partial () in
  List.iter (fun (_, stage) -> stage ()) (stages r p);
  if not (R.at_end r) then raise (Corrupt "trailing bytes");
  let get what = function Some v -> v | None -> raise (Corrupt ("missing " ^ what)) in
  let cipher = get "cipher" p.p_cipher in
  let doc = get "document" p.p_doc in
  let scheme =
    { Scheme.kind = get "scheme kind" p.p_kind;
      block_roots = p.p_block_roots;
      covered_tags = p.p_covered_tags }
  in
  let db =
    Encrypt.make_db ~doc ~scheme ~blocks:p.p_blocks
      ~skeleton:(get "skeleton" p.p_skeleton)
      ~encrypted_tags:p.p_encrypted_tags ~plaintext_tags:p.p_plaintext_tags
  in
  let btree = Btree.create ~min_degree:16 () in
  List.iter (fun (k, v) -> Btree.insert btree k v) p.p_btree_entries;
  (* Use the stored assignment: after an incremental delta it contains
     gap-drawn intervals no key can recompute. *)
  let assignment =
    try Dsi.Assign.of_intervals doc (Array.of_list p.p_assignment)
    with Invalid_argument m -> raise (Corrupt m)
  in
  let metadata =
    { Metadata.assignment;
      dsi_table = p.p_dsi_table;
      block_table = p.p_block_table;
      btree;
      catalogs = p.p_catalogs;
      indexed_tags = p.p_indexed_tags }
  in
  ( System.restore ~master ~cipher ~doc ~constraints:p.p_constraints ~scheme ~db
      ~metadata (),
    p.p_applied_seq )

let of_string ~master data = fst (of_string_seq ~master data)

(* --- Verification (fsck) ------------------------------------------- *)

type verdict =
  | Intact
  | Torn of { expected_bytes : int; actual_bytes : int }
  | Tampered
  | Malformed of string

type section_status = Section_ok | Section_failed of string | Section_unreached

type report = {
  file_bytes : int;
  verdict : verdict;
  sections : (string * section_status) list;
  blocks_total : int;
  blocks_bad : (int * string) list;
}

let verdict_to_string = function
  | Intact -> "intact"
  | Torn { expected_bytes; actual_bytes } ->
    Printf.sprintf "torn write (expected %d bytes, got %d)" expected_bytes
      actual_bytes
  | Tampered -> "tampered (MAC mismatch or wrong master secret)"
  | Malformed m -> "malformed: " ^ m

let verify ~master data =
  let framing = check_framing ~master data in
  (* Section walk: even a torn or tampered body is worth parsing as far
     as it goes, to localise the damage.  The body slice is whatever is
     actually present past the header. *)
  let body =
    match framing with
    | F_ok body -> Some body
    | F_torn _ when String.length data > header_len ->
      Some (String.sub data header_len (String.length data - header_len))
    | F_torn _ | F_tampered | F_malformed _ ->
      if String.length data > header_len + mac_len then
        (* Tampered/malformed files still frame a body-sized slice when
           the declared length is usable; fall back to everything after
           the header minus a MAC-sized tail. *)
        Some (String.sub data header_len (String.length data - header_len - mac_len))
      else None
  in
  let sections_report, blocks, suite =
    match body with
    | None ->
      ( List.map
          (fun n -> n, Section_unreached)
          [ "cipher-suite"; "document"; "constraints"; "scheme"; "blocks";
            "skeleton"; "tag-partition"; "dsi-table"; "block-table";
            "value-btree"; "opess-catalogs"; "indexed-tags"; "dsi-assignment";
            "applied-seq" ],
        [],
        None )
    | Some body ->
      let r = R.make body 0 in
      let p = fresh_partial () in
      let failed = ref false in
      let statuses =
        List.map
          (fun (name, stage) ->
            if !failed then name, Section_unreached
            else
              match stage () with
              | () -> name, Section_ok
              | exception Codec.Error m ->
                failed := true;
                name, Section_failed m
              | exception Corrupt m ->
                failed := true;
                name, Section_failed m)
          (stages r p)
      in
      let statuses =
        if (not !failed) && not (R.at_end r) then
          statuses @ [ "trailer", Section_failed "trailing bytes" ]
        else statuses
      in
      statuses, p.p_blocks, p.p_cipher
  in
  (* Per-block decryptability, under the declared cipher suite when the
     cipher-suite section survived (XTEA otherwise). *)
  let blocks_bad =
    match blocks with
    | [] -> []
    | blocks ->
      let suite = Option.value ~default:Crypto.Cipher.Xtea suite in
      let keys = Crypto.Keys.create ~suite ~master () in
      List.filter_map
        (fun (b : Encrypt.block) ->
          match Encrypt.decrypt_block ~keys b with
          | (_ : Xmlcore.Tree.t) -> None
          | exception Encrypt.Tampered id ->
            Some (id, "authentication tag mismatch")
          | exception _ -> Some (b.Encrypt.id, "undecryptable"))
        blocks
  in
  let verdict =
    match framing with
    | F_ok _ ->
      let section_failure =
        List.find_map
          (function name, Section_failed m -> Some (name ^ ": " ^ m) | _ -> None)
          sections_report
      in
      (match section_failure with
       | Some m -> Malformed m
       | None when blocks_bad <> [] ->
         Malformed (Printf.sprintf "%d undecryptable block(s)" (List.length blocks_bad))
       | None -> Intact)
    | F_torn { expected_bytes; actual_bytes } -> Torn { expected_bytes; actual_bytes }
    | F_tampered -> Tampered
    | F_malformed m -> Malformed m
  in
  { file_bytes = String.length data;
    verdict;
    sections = sections_report;
    blocks_total = List.length blocks;
    blocks_bad }

(* --- File I/O ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Crash-safe: write to a temporary sibling, fsync, then atomically
   rename over the destination.  A crash at any byte offset leaves
   either the complete old bundle or the complete new one at [path];
   the worst survivor is a torn [path ^ ".tmp"], which {!verify}
   identifies as such. *)
let save ?applied_seq system path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc (to_string ?applied_seq system);
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp path

let load ~master path = of_string ~master (read_file path)
let load_seq ~master path = of_string_seq ~master (read_file path)
let verify_file ~master path = verify ~master (read_file path)

(* ------------------------------------------------------------------ *)
(* Append-only delta log                                               *)

(* The log rides next to its bundle as [path ^ ".log"]: a magic header
   followed by self-framed records, each [i64 payload length | payload
   | HMAC-SHA-256 over length+payload].  Appends are flushed and
   fsynced whole, so a crash can only truncate the file — a {e torn}
   tail (recoverable: the records before it are intact and the tail is
   dropped) — while any bit flip inside a complete record fails its MAC
   — {e tampered} (hard error).  Records are never rewritten; the log
   shrinks only by compaction, which folds its effects into a freshly
   saved bundle (stamped with the last applied sequence number) and
   removes the log in one step. *)

let log_magic = "SXQDLOG1"
let log_path path = path ^ ".log"

let log_mac_key master =
  Crypto.Keys.derive (Crypto.Keys.create ~master ()) "persist-log-mac"

let digest_key master =
  Crypto.Keys.derive (Crypto.Keys.create ~master ()) "persist-doc-digest"

(* Keyed digest of the plaintext document after an edit: replay
   validates each applied record against it, so a divergence (wrong
   master, reordered records, a drifted incremental path) is caught
   before the recovered system is ever served. *)
let doc_digest ~master doc =
  Crypto.Hmac.mac ~key:(digest_key master) (Xmlcore.Printer.doc_to_string doc)

type log_record = { seq : int; edit : Update.edit; digest : string }

let w_edit b = function
  | Update.Insert_child { parent; position; subtree } ->
    W.int b 0;
    W.string b (Xpath.Ast.to_string parent);
    (* apply clamps negatives to 0; normalise here so the codec's
       non-negative ints suffice *)
    W.int b (Int.max 0 position);
    W.string b (Xmlcore.Printer.tree_to_string subtree)
  | Update.Delete_nodes path ->
    W.int b 1;
    W.string b (Xpath.Ast.to_string path)
  | Update.Set_value (path, value) ->
    W.int b 2;
    W.string b (Xpath.Ast.to_string path);
    W.string b value

let r_edit r =
  match R.int r with
  | 0 ->
    let parent = parse_or_corrupt "edit path" Xpath.Parser.parse (R.string r) in
    let position = R.int r in
    let subtree =
      parse_or_corrupt "edit subtree" Xmlcore.Parser.parse (R.string r)
    in
    Update.Insert_child { parent; position; subtree }
  | 1 ->
    Update.Delete_nodes
      (parse_or_corrupt "edit path" Xpath.Parser.parse (R.string r))
  | 2 ->
    let path = parse_or_corrupt "edit path" Xpath.Parser.parse (R.string r) in
    let value = R.string r in
    Update.Set_value (path, value)
  | n -> raise (Corrupt (Printf.sprintf "unknown edit kind %d" n))

let encode_record ~master record =
  let payload =
    let b = Buffer.create 256 in
    W.int b record.seq;
    w_edit b record.edit;
    W.string b record.digest;
    Buffer.contents b
  in
  let framed =
    let b = Buffer.create (String.length payload + 8) in
    W.i64 b (Int64.of_int (String.length payload));
    Buffer.add_string b payload;
    Buffer.contents b
  in
  framed ^ Crypto.Hmac.mac ~key:(log_mac_key master) framed

type log_tail =
  | Log_clean
  | Log_torn of { clean_bytes : int; dropped_bytes : int }

type log_scan = {
  scan_records : log_record list;
  scan_tail : log_tail;
  scan_fatal : (int * string) option;
}

(* Walk the log front to back.  Classification rule: a frame the file
   cannot contain in full is torn (our writer appends whole records, so
   truncation is the only way to lose a suffix); a complete frame whose
   MAC or payload decoding fails is tampering.  A flipped length field
   in the last record can masquerade as a tear — conservative in the
   right direction, since torn recovery drops exactly those bytes. *)
let scan_log ~master data =
  let n = String.length data in
  let mlen = String.length log_magic in
  let fatal idx m = { scan_records = []; scan_tail = Log_clean; scan_fatal = Some (idx, m) } in
  if n < mlen then
    if String.equal data (String.sub log_magic 0 n) then
      { scan_records = [];
        scan_tail = Log_torn { clean_bytes = 0; dropped_bytes = n };
        scan_fatal = None }
    else fatal 0 "bad log magic"
  else if String.sub data 0 mlen <> log_magic then fatal 0 "bad log magic"
  else begin
    let key = log_mac_key master in
    let rec go acc idx off =
      let torn () =
        { scan_records = List.rev acc;
          scan_tail = Log_torn { clean_bytes = off; dropped_bytes = n - off };
          scan_fatal = None }
      in
      let fatal m =
        { scan_records = List.rev acc; scan_tail = Log_clean;
          scan_fatal = Some (idx, m) }
      in
      if off = n then
        { scan_records = List.rev acc; scan_tail = Log_clean; scan_fatal = None }
      else if n - off < 8 then torn ()
      else begin
        let len = Int64.to_int (R.i64 (R.make data off)) in
        if len < 0 then fatal "implausible record length"
        else if n - off < 8 + len + mac_len then torn ()
        else begin
          let framed = String.sub data off (8 + len) in
          let mac = String.sub data (off + 8 + len) mac_len in
          if not (Crypto.Eq.constant_time mac (Crypto.Hmac.mac ~key framed))
          then fatal "record MAC mismatch"
          else
            match
              let r = R.make framed 8 in
              let seq = R.int r in
              let edit = r_edit r in
              let digest = R.string r in
              if not (R.at_end r) then
                raise (Corrupt "trailing bytes in record");
              { seq; edit; digest }
            with
            | record -> go (record :: acc) (idx + 1) (off + 8 + len + mac_len)
            | exception Corrupt m -> fatal m
            | exception Codec.Error m -> fatal m
        end
      end
    in
    go [] 0 mlen
  end

let read_log ~master data =
  let s = scan_log ~master data in
  (match s.scan_fatal with
   | Some (idx, m) ->
     raise (Corrupt (Printf.sprintf "delta log record %d: %s" idx m))
   | None -> ());
  s.scan_records, s.scan_tail

(* Append one record: create-with-magic on first use, then a single
   buffered write flushed and fsynced before returning.  No rename
   dance — the append-only discipline makes truncation the only crash
   artifact, and the scanner recovers from that. *)
let append_record ~master path record =
  let lp = log_path path in
  (* A log truncated all the way to zero bytes (tear inside the magic)
     must be re-seeded with the magic, so "fresh" means empty, not
     merely absent. *)
  let fresh =
    (not (Sys.file_exists lp)) || (Unix.stat lp).Unix.st_size = 0
  in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 lp
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      if fresh then output_string oc log_magic;
      output_string oc (encode_record ~master record);
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc))

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd len;
      Unix.fsync fd)

(* In-memory replay of pending records over a restored system.  All
   validation happens before the caller sees the result, so recovery
   never serves a half-applied delta: a gap, divergent digest or
   incremental failure raises and leaves the on-disk state untouched. *)
let replay ~master system applied_seq records =
  let system, _ =
    List.fold_left
      (fun (system, expected) record ->
        if record.seq <> expected then
          raise
            (Corrupt
               (Printf.sprintf "delta log gap: expected seq %d, found %d"
                  expected record.seq));
        let next, (_ : System.delta_cost) = System.apply_delta system record.edit in
        if
          not
            (Crypto.Eq.constant_time
               (doc_digest ~master (System.doc next))
               record.digest)
        then
          raise
            (Corrupt
               (Printf.sprintf "delta log replay diverged at seq %d" record.seq));
        next, expected + 1)
      (system, applied_seq + 1) records
  in
  system

(* --- Journal: bundle + log as one recoverable unit ----------------- *)

type journal = {
  mutable j_system : System.t;
  mutable j_seq : int;
  j_path : string;
  j_master : string;
  j_threshold : int;
}

let journal_system j = j.j_system
let journal_seq j = j.j_seq

let journal_open ?(compact_threshold = 1 lsl 20) ~master path =
  let system, applied = load_seq ~master path in
  let lp = log_path path in
  let system, seq =
    if not (Sys.file_exists lp) then system, applied
    else begin
      let records, tail = read_log ~master (read_file lp) in
      (match tail with
       | Log_clean -> ()
       | Log_torn { clean_bytes; dropped_bytes = _ } ->
         (* Drop the torn tail on disk so subsequent appends extend a
            clean log instead of burying garbage mid-file. *)
         truncate_file lp clean_bytes);
      let pending = List.filter (fun r -> r.seq > applied) records in
      let system = replay ~master system applied pending in
      let seq =
        match List.rev pending with [] -> applied | last :: _ -> last.seq
      in
      system, seq
    end
  in
  { j_system = system; j_seq = seq; j_path = path; j_master = master;
    j_threshold = compact_threshold }

let journal_compact j =
  save ~applied_seq:j.j_seq j.j_system j.j_path;
  let lp = log_path j.j_path in
  if Sys.file_exists lp then Sys.remove lp

(* Plan once, append first, publish after: the plan's edited document
   gives the record its digest and is then applied as is, and the
   record is fsynced before the live system and sequence number move,
   so an append that fails leaves the journal exactly as it was and the
   next update reuses the sequence number — a failed append can never
   open a gap in the log. *)
let journal_update j edit =
  let append edited =
    append_record ~master:j.j_master j.j_path
      { seq = j.j_seq + 1; edit; digest = doc_digest ~master:j.j_master edited }
  in
  let doc = System.doc j.j_system in
  let started = Unix.gettimeofday () in
  let next, cost =
    match Update.delta doc edit with
    | plan ->
      let plan_ms = (Unix.gettimeofday () -. started) *. 1000.0 in
      append plan.Update.edited;
      System.apply_plan j.j_system plan ~plan_ms
    | exception Invalid_argument _ ->
      (* Unplannable: [Update.apply] raises for an invalid edit before
         anything is appended; otherwise [apply_delta] re-hosts. *)
      append (Xmlcore.Doc.of_tree (Update.apply doc edit));
      System.apply_delta j.j_system edit
  in
  j.j_system <- next;
  j.j_seq <- j.j_seq + 1;
  let lp = log_path j.j_path in
  if Sys.file_exists lp && (Unix.stat lp).Unix.st_size > j.j_threshold then
    journal_compact j;
  cost

(* --- Log fsck ------------------------------------------------------ *)

type log_fsck = {
  log_bytes : int;
  log_records : int;
  log_pending : int;
  log_dropped_bytes : int;
  log_fatal : string option;
  log_replay : string option;
}

let fsck_log ~master path =
  let lp = log_path path in
  if not (Sys.file_exists lp) then None
  else begin
    let data = read_file lp in
    let s = scan_log ~master data in
    let dropped =
      match s.scan_tail with
      | Log_clean -> 0
      | Log_torn { dropped_bytes; _ } -> dropped_bytes
    in
    let fatal =
      Option.map
        (fun (idx, m) -> Printf.sprintf "record %d: %s" idx m)
        s.scan_fatal
    in
    let pending, replay_err =
      match fatal with
      | Some _ -> 0, None
      | None ->
        (match load_seq ~master path with
         | exception _ ->
           (* Bundle itself unusable: the bundle verdict carries that
              story; replay is simply not attempted. *)
           List.length s.scan_records, None
         | system, applied ->
           let pending = List.filter (fun r -> r.seq > applied) s.scan_records in
           (match replay ~master system applied pending with
            | (_ : System.t) -> List.length pending, None
            | exception Corrupt m -> List.length pending, Some m
            | exception e -> List.length pending, Some (Printexc.to_string e)))
    in
    Some
      { log_bytes = String.length data;
        log_records = List.length s.scan_records;
        log_pending = pending;
        log_dropped_bytes = dropped;
        log_fatal = fatal;
        log_replay = replay_err }
  end
