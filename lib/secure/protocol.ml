exception Malformed of string

module W = Codec.W
module R = Codec.R

(* --- Request ------------------------------------------------------ *)

let w_token b = function
  | Squery.Clear tag ->
    W.bool b false;
    W.string b tag
  | Squery.Enc hex ->
    W.bool b true;
    W.string b hex

let r_token r =
  if R.bool r then Squery.Enc (R.string r) else Squery.Clear (R.string r)

let w_test b = function
  | Squery.Any -> W.bool b true
  | Squery.Tokens tokens ->
    W.bool b false;
    W.list b w_token tokens

let r_test r =
  if R.bool r then Squery.Any else Squery.Tokens (R.list r r_token)

let axis_to_int = function
  | Xpath.Ast.Child -> 0
  | Xpath.Ast.Descendant_or_self -> 1
  | Xpath.Ast.Parent -> 2
  | Xpath.Ast.Following_sibling -> 3
  | Xpath.Ast.Preceding_sibling -> 4
  | Xpath.Ast.Following -> 5
  | Xpath.Ast.Preceding -> 6

let axis_of_int = function
  | 0 -> Xpath.Ast.Child
  | 1 -> Xpath.Ast.Descendant_or_self
  | 2 -> Xpath.Ast.Parent
  | 3 -> Xpath.Ast.Following_sibling
  | 4 -> Xpath.Ast.Preceding_sibling
  | 5 -> Xpath.Ast.Following
  | 6 -> Xpath.Ast.Preceding
  | n -> raise (Codec.Error (Printf.sprintf "unknown axis %d" n))

let rec w_path b (p : Squery.path) =
  W.bool b p.Squery.absolute;
  W.list b w_step p.Squery.steps

and w_step b (s : Squery.step) =
  W.int b (axis_to_int s.Squery.axis);
  w_test b s.Squery.test;
  W.list b w_predicate s.Squery.predicates

and w_predicate b = function
  | Squery.Exists q ->
    W.int b 0;
    w_path b q
  | Squery.Value (q, range_set) ->
    W.int b 1;
    w_path b q;
    (match range_set with
     | Squery.Unknown -> W.bool b false
     | Squery.Ranges ranges ->
       W.bool b true;
       W.list b
         (fun b (lo, hi) ->
           W.i64 b lo;
           W.i64 b hi)
         ranges)
  | Squery.P_and (x, y) ->
    W.int b 2;
    w_predicate b x;
    w_predicate b y
  | Squery.P_or (x, y) ->
    W.int b 3;
    w_predicate b x;
    w_predicate b y
  | Squery.P_not x ->
    W.int b 4;
    w_predicate b x

(* Adversarial wire bytes could encode predicate towers deep enough to
   overflow the stack; no honest translation nests anywhere near this
   limit. *)
let max_depth = 64

let deeper depth =
  if depth >= max_depth then raise (Codec.Error "nesting too deep");
  depth + 1

let rec r_path depth r =
  let absolute = R.bool r in
  let steps = R.list r (r_step depth) in
  { Squery.absolute; steps }

and r_step depth r =
  let axis = axis_of_int (R.int r) in
  let test = r_test r in
  let predicates = R.list r (r_predicate (deeper depth)) in
  { Squery.axis; test; predicates }

and r_predicate depth r =
  match R.int r with
  | 0 -> Squery.Exists (r_path depth r)
  | 1 ->
    let q = r_path depth r in
    let range_set =
      if R.bool r then
        Squery.Ranges
          (R.list r (fun r ->
               let lo = R.i64 r in
               let hi = R.i64 r in
               lo, hi))
      else Squery.Unknown
    in
    Squery.Value (q, range_set)
  | 2 ->
    let x = r_predicate (deeper depth) r in
    let y = r_predicate (deeper depth) r in
    Squery.P_and (x, y)
  | 3 ->
    let x = r_predicate (deeper depth) r in
    let y = r_predicate (deeper depth) r in
    Squery.P_or (x, y)
  | 4 -> Squery.P_not (r_predicate (deeper depth) r)
  | n -> raise (Codec.Error (Printf.sprintf "unknown predicate tag %d" n))

let encode_request q =
  let b = Buffer.create 256 in
  w_path b q;
  Buffer.contents b

(* The wire path's only escaping exception is Malformed: any Codec
   error, unknown tag, implausible count or over-deep nesting maps
   here, and the readers bounds-check before every access. *)
let decode_request data =
  try
    let r = R.make data 0 in
    let q = r_path 0 r in
    if not (R.at_end r) then raise (Codec.Error "trailing bytes");
    q
  with Codec.Error m -> raise (Malformed m)

(* --- Versioned request variants ----------------------------------- *)

(* A plain query's first byte is the absolute flag, written by [W.bool]
   as '\000' or '\001'.  The mitigation variants claim unused leading
   bytes, so every request encoded before they existed still decodes as
   a [Query] and an old server rejects the new magics as garbage rather
   than misreading them. *)
type request =
  | Query of Squery.path
  | Fetch of int list
  | Padded of Squery.path * int list

let fetch_magic = '\002'
let padded_magic = '\003'
let extreme_magic = '\004'

let encode_fetch ids =
  let b = Buffer.create 64 in
  Buffer.add_char b fetch_magic;
  W.list b W.int ids;
  Buffer.contents b

let encode_padded q extra =
  let b = Buffer.create 256 in
  Buffer.add_char b padded_magic;
  w_path b q;
  W.list b W.int extra;
  Buffer.contents b

let decode_any data =
  try
    if String.length data = 0 then raise (Codec.Error "empty request");
    if data.[0] = extreme_magic then raise (Codec.Error "extreme request");
    if data.[0] = fetch_magic then begin
      let r = R.make data 1 in
      let ids = R.list r R.int in
      if not (R.at_end r) then raise (Codec.Error "trailing bytes");
      Fetch ids
    end
    else if data.[0] = padded_magic then begin
      let r = R.make data 1 in
      let q = r_path 0 r in
      let extra = R.list r R.int in
      if not (R.at_end r) then raise (Codec.Error "trailing bytes");
      Padded (q, extra)
    end
    else Query (decode_request data)
  with Codec.Error m -> raise (Malformed m)

(* The MIN/MAX request (Section 6.4) is not a [request] constructor:
   the benchmark's traced copy of the read path matches [decode_any]
   exhaustively, so a fourth constructor would break it.  The extreme
   request moves into [request] once that copy is deleted and the
   library's own spans time the read path. *)
type extreme = {
  query : Squery.path;
  key_range : int64 * int64;
  direction : [ `Min | `Max ];
}

let encode_extreme e =
  let b = Buffer.create 256 in
  Buffer.add_char b extreme_magic;
  w_path b e.query;
  W.i64 b (fst e.key_range);
  W.i64 b (snd e.key_range);
  W.bool b (e.direction = `Max);
  Buffer.contents b

let decode_extreme data =
  if String.length data = 0 || data.[0] <> extreme_magic then None
  else
    try
      let r = R.make data 1 in
      let query = r_path 0 r in
      let lo = R.i64 r in
      let hi = R.i64 r in
      let direction = if R.bool r then `Max else `Min in
      if not (R.at_end r) then raise (Codec.Error "trailing bytes");
      Some { query; key_range = lo, hi; direction }
    with Codec.Error m -> raise (Malformed m)

(* --- Response ----------------------------------------------------- *)

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

let encode_response (resp : Server.response) =
  let b = Buffer.create 1024 in
  W.list b w_block resp.Server.blocks;
  W.int b resp.Server.bytes;
  W.int b resp.Server.candidate_intervals;
  W.int b resp.Server.btree_hits;
  Buffer.contents b

let decode_response data =
  try
    let r = R.make data 0 in
    let blocks = R.list r r_block in
    let bytes = R.int r in
    let candidate_intervals = R.int r in
    let btree_hits = R.int r in
    if not (R.at_end r) then raise (Codec.Error "trailing bytes");
    { Server.blocks; bytes; candidate_intervals; btree_hits }
  with Codec.Error m -> raise (Malformed m)
