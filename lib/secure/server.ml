module Interval = Dsi.Interval

let log_src = Logs.Src.create "secure.server" ~doc:"Untrusted-server query engine"

module Log = (val Logs.src_log log_src)

(* Everything counted here is already in the server's own view: it
   holds the ciphertext blocks and computes the interval joins itself.
   Nothing client-side (plaintext, keys) is reachable from this file —
   the lint boundary table enforces that. *)
module M = struct
  let reg = Obs.Metric.default
  let answers = Obs.Metric.counter reg "server.answers" ~help:"queries answered"
  let blocks_shipped = Obs.Metric.counter reg "server.blocks_shipped" ~help:"candidate blocks returned"
  let bytes_shipped = Obs.Metric.counter reg "server.bytes_shipped" ~help:"response payload bytes"
  let candidate_intervals = Obs.Metric.counter reg "server.candidate_intervals" ~help:"DSI intervals surviving joins"
  let btree_hits = Obs.Metric.counter reg "server.btree_hits" ~help:"value-index entries touched"
end

module Forest = Xmlcore.Forest

(* The DSI table as a join forest (see {!Dsi.Universe}): every table
   row and block representative is a node set of universe positions,
   built once here.  Every join, filter and block selection of a read
   then runs on {!Forest}, touching its inputs and nothing more of the
   universe.  Nothing in [t] is mutated after [create], so pool workers
   share it freely. *)
type t = {
  table : (string, int array) Hashtbl.t;  (* token key -> its intervals *)
  universe : Dsi.Universe.t;               (* every table interval, once *)
  forest : Forest.t;
  any : int array;                         (* every position: the wildcard *)
  reps : int array;                        (* block representatives, sorted *)
  rep_ids : int array;                     (* block id of each [reps] entry *)
  rep_of_id : (int, int) Hashtbl.t;        (* block id -> representative *)
  blocks_by_id : (int, Encrypt.block) Hashtbl.t;
  index : Metadata.target Btree.t array;  (* value index, one tree per attribute *)
  trace : Obs.Trace.t;   (* disabled no-op tracer unless one is injected *)
}

type response = {
  blocks : Encrypt.block list;
  bytes : int;
  candidate_intervals : int;
  btree_hits : int;
}

let by_id blocks =
  let blocks_by_id = Hashtbl.create (List.length blocks) in
  List.iter (fun b -> Hashtbl.replace blocks_by_id b.Encrypt.id b) blocks;
  blocks_by_id

(* Everything but the token table and its universe: block
   representatives as sorted positions, blocks by id. *)
let assemble ~trace ~table ~universe ~block_table ~index ~blocks =
  let rep_of_id = Hashtbl.create (List.length block_table) in
  (* Block ids follow their roots' document order, so the lookups
     usually climb: each gallops on from the last. *)
  let from = ref 0 in
  let reps =
    Array.of_list
      (List.map
         (fun (id, rep) ->
           match Dsi.Universe.position ~from:!from universe rep with
           | Some p ->
             Hashtbl.replace rep_of_id id p;
             from := p;
             p, id
           | None ->
             invalid_arg "Server.create: a block representative is not a DSI-table interval")
         block_table)
  in
  let climbs = ref true in
  Array.iteri (fun i (p, _) -> if i > 0 && fst reps.(i - 1) > p then climbs := false) reps;
  if not !climbs then Array.sort (fun (p, _) (q, _) -> Int.compare p q) reps;
  { table;
    universe;
    forest = Dsi.Universe.forest universe;
    any = Array.init (Dsi.Universe.size universe) Fun.id;
    reps = Array.map fst reps;
    rep_ids = Array.map snd reps;
    rep_of_id;
    blocks_by_id = by_id blocks;
    index;
    trace }

let create ?trace ~dsi_table ~block_table ~index ~blocks () =
  let trace = match trace with Some t -> t | None -> Obs.Trace.create () in
  let universe, rows = Dsi.Universe.index (Array.of_list (List.map snd dsi_table)) in
  let table = Hashtbl.create (List.length dsi_table) in
  List.iteri (fun r (key, _) -> Hashtbl.replace table key rows.(r)) dsi_table;
  assemble ~trace ~table ~universe ~block_table ~index ~blocks

let of_metadata ?trace meta blocks =
  create ?trace ~dsi_table:meta.Metadata.dsi_table
    ~block_table:meta.Metadata.block_table ~index:meta.Metadata.index
    ~blocks ()

(* A value edit changes no row: the table, its universe and the
   representatives are shared, and only blocks and trees are swapped.
   A structural edit merges its rows into the universe; a row no
   changed row names keeps its members, renumbered. *)
let patch t meta (change : Metadata.change) blocks =
  let index = meta.Metadata.index in
  match change.Metadata.rows_removed, change.Metadata.rows_added with
  | [], [] -> { t with blocks_by_id = by_id blocks; index }
  | removed, added ->
    let universe, remap =
      Dsi.Universe.patch t.universe ~removed:(List.map snd removed)
        ~added:(List.map snd added)
    in
    let touched = Hashtbl.create 16 in
    List.iter (fun (key, _) -> Hashtbl.replace touched key ()) (removed @ added);
    let dsi_table = meta.Metadata.dsi_table in
    let table = Hashtbl.create (List.length dsi_table) in
    List.iter
      (fun (key, ivs) ->
        Hashtbl.replace table key
          (match Hashtbl.find_opt t.table key with
           | Some row when not (Hashtbl.mem touched key) -> Array.map (Array.get remap) row
           | Some _ | None -> Dsi.Universe.members universe ivs))
      dsi_table;
    assemble ~trace:t.trace ~table ~universe ~block_table:meta.Metadata.block_table
      ~index ~blocks

let block_bytes blocks =
  List.fold_left
    (fun acc b -> acc + String.length b.Encrypt.ciphertext + Encrypt.block_header_bytes)
    0 blocks

(* ------------------------------------------------------------------ *)
(* Query evaluation                                                    *)

let row t token =
  Option.value ~default:[||] (Hashtbl.find_opt t.table (Metadata.token_key token))

(* A test's candidates: one stored row, or the union of several
   (attribute Enc over several scramblings). *)
let seed t = function
  | Squery.Any -> t.any
  | Squery.Tokens [ token ] -> row t token
  | Squery.Tokens tokens -> Forest.of_unsorted (Array.concat (List.map (row t) tokens))

(* The kernel axes, widened by the superset rules of grouped hulls: a
   table interval can hide an anchor and its follower, so sibling joins
   keep candidates equal to an origin, and following/preceding keep
   candidates equal to or containing one.  The client filters the
   false positives after decryption. *)
let related t axis origins cands =
  match axis with
  | Forest.Following_sibling | Forest.Preceding_sibling ->
    Forest.join ~self:true t.forest axis origins cands
  | Forest.Following | Forest.Preceding ->
    Forest.union
      (Forest.join t.forest axis origins cands)
      (Forest.join ~self:true t.forest Forest.Ancestor origins cands)
  | Forest.Child | Forest.Parent | Forest.Descendant | Forest.Ancestor ->
    Forest.join t.forest axis origins cands

(* [origin = None] is the virtual document node of an absolute path:
   its children are the top-level intervals. *)
let forward t origin axis cands =
  match origin, axis with
  | None, Xpath.Ast.Descendant_or_self -> cands
  | None, Xpath.Ast.Child ->
    Array.of_seq (Seq.filter (fun p -> Forest.parent t.forest p < 0) (Array.to_seq cands))
  | None, ( Xpath.Ast.Parent | Xpath.Ast.Following_sibling
          | Xpath.Ast.Preceding_sibling | Xpath.Ast.Following
          | Xpath.Ast.Preceding ) ->
    [||]
  | Some origins, _ -> related t (Xpath.Nav.forest_axis axis) origins cands

(* Tighten [origins] to the members with a surviving successor. *)
let backward t origins axis survivors =
  related t (Forest.inverse (Xpath.Nav.forest_axis axis)) survivors origins

(* Allowed targets of a value constraint: union of B-tree range scans. *)
let btree_targets t ranges =
  let hits = ref 0 in
  let targets =
    List.concat_map
      (fun (lo, hi) ->
        let entries = Metadata.index_range t.index ~lo ~hi in
        hits := !hits + List.length entries;
        List.map snd entries)
      ranges
  in
  targets, !hits

(* Keep candidates compatible with at least one allowed target: equal
   to an allowed plaintext leaf, or equal to / inside an allowed
   block's representative.  A plaintext leaf has nothing below it, so
   both are one descendant-or-self join from the targets' positions. *)
let filter t cands targets =
  let roots =
    List.filter_map
      (function
        | Metadata.To_plain iv -> Dsi.Universe.position t.universe iv
        | Metadata.To_block id -> Hashtbl.find_opt t.rep_of_id id)
      targets
  in
  Forest.join ~self:true t.forest Forest.Descendant
    (Forest.of_unsorted (Array.of_list roots)) cands

type step_report = {
  step_index : int;
  axis : Xpath.Ast.axis;
  raw_candidates : int;
  surviving_candidates : int;
}

(* What a pass has seen: surviving intervals summed over query nodes,
   B-tree entries touched, and every surviving set, for block
   selection. *)
type pass = {
  mutable touched : int;
  mutable hits : int;
  mutable seen : int array list;
}

(* The server's forward pass, in query order (§6.2): each step joins
   its seed against the surviving origins, then applies its predicates
   left to right. *)
let rec descend t pass origin i steps =
  match steps with
  | [] -> []
  | step :: rest ->
    let raw = seed t step.Squery.test in
    let filtered =
      List.fold_left (filter_by_predicate t pass)
        (forward t origin step.Squery.axis raw)
        step.Squery.predicates
    in
    pass.touched <- pass.touched + Array.length filtered;
    pass.seen <- filtered :: pass.seen;
    let report =
      { step_index = i;
        axis = step.Squery.axis;
        raw_candidates = Array.length raw;
        surviving_candidates = Array.length filtered }
    in
    (filtered, report) :: descend t pass (Some filtered) (i + 1) rest

and levels t pass origin steps = List.map fst (descend t pass origin 0 steps)

(* Filter a candidate set by one predicate, with back-propagation
   through the predicate's chain. *)
and filter_by_predicate t pass cands = function
  | Squery.P_and (a, b) ->
    filter_by_predicate t pass (filter_by_predicate t pass cands a) b
  | Squery.P_or (a, b) ->
    (* Union of the branch survivors (candidates stay a superset). *)
    Forest.union (filter_by_predicate t pass cands a) (filter_by_predicate t pass cands b)
  | Squery.P_not inner ->
    (* Negation cannot prune soundly when the inner filter is itself a
       superset approximation; walk the inner predicate only for its
       statistics/witnesses and keep every candidate. *)
    ignore (filter_by_predicate t pass cands inner);
    cands
  | Squery.Exists q -> chain t pass cands q None
  | Squery.Value (q, Squery.Unknown) ->
    (* Unindexed attribute: the server cannot prune on the value, but
       the structural part of the chain still applies. *)
    if q.Squery.steps = [] then cands else chain t pass cands q None
  | Squery.Value (q, Squery.Ranges ranges) ->
    let targets, hits = btree_targets t ranges in
    pass.hits <- pass.hits + hits;
    if q.Squery.steps = [] then filter t cands targets
    else chain t pass cands q (Some targets)

(* Keep the candidates that can reach, through q's chain, a final node
   compatible with [targets] (when given): forward pass down the chain,
   target filter at the bottom, backward tightening up to the
   candidates. *)
and chain t pass cands q targets =
  let levels = Array.of_list (cands :: levels t pass (Some cands) q.Squery.steps) in
  let axes = Array.of_list (List.map (fun s -> s.Squery.axis) q.Squery.steps) in
  let k = Array.length axes in
  let deepest =
    match targets with
    | Some ts when k > 0 -> filter t levels.(k) ts
    | Some _ | None -> levels.(k)
  in
  let survivors = ref deepest in
  for i = k downto 1 do
    survivors := backward t levels.(i - 1) axes.(i - 1) !survivors
  done;
  !survivors

let prune t query =
  let pass = { touched = 0; hits = 0; seen = [] } in
  pass, descend t pass None 0 query.Squery.steps

let explain t query = List.map snd (snd (prune t query))

(* Blocks to ship: any block whose representative covers (contains or
   equals) a witness, plus blocks nested inside a distinguished
   interval (needed to rebuild full answer subtrees).  Both are joins
   against the representatives, which are sorted once at {!create}. *)
let select t ~witnesses ~distinguished ~candidate_intervals ~btree_hits =
  Obs.span t.trace "server.select_blocks" @@ fun () ->
  let reps =
    Forest.union
      (Forest.join ~self:true t.forest Forest.Ancestor witnesses t.reps)
      (Forest.join t.forest Forest.Descendant distinguished t.reps)
  in
  let ids = Forest.of_unsorted (Array.map (fun p -> t.rep_ids.(Forest.seek t.reps 0 p)) reps) in
  let blocks = List.filter_map (Hashtbl.find_opt t.blocks_by_id) (Array.to_list ids) in
  let response =
    { blocks; bytes = block_bytes blocks; candidate_intervals; btree_hits }
  in
  if Obs.Trace.enabled t.trace then
    Obs.Trace.event t.trace "selected"
      ~attrs:
        [ "blocks", string_of_int (List.length blocks);
          "bytes", string_of_int response.bytes ];
  Obs.Metric.add M.blocks_shipped (List.length blocks);
  Obs.Metric.add M.bytes_shipped response.bytes;
  response

let last_level levels =
  match List.rev levels with
  | (last, _) :: _ -> last
  | [] -> [||]

let respond t (pass, levels) =
  select t
    ~witnesses:(List.fold_left Forest.union [||] pass.seen)
    ~distinguished:(last_level levels) ~candidate_intervals:pass.touched
    ~btree_hits:pass.hits

let record_answer t response =
  Obs.Metric.incr M.answers;
  Obs.Metric.add M.candidate_intervals response.candidate_intervals;
  Obs.Metric.add M.btree_hits response.btree_hits;
  if Obs.Trace.enabled t.trace then
    Obs.Trace.event t.trace "pruned"
      ~attrs:
        [ "intervals", string_of_int response.candidate_intervals;
          "btree_hits", string_of_int response.btree_hits ]

let answer t query =
  Log.debug (fun m -> m "answer: %s" (Squery.to_string query));
  Obs.span t.trace "server.answer" @@ fun () ->
  let pruned = Obs.span t.trace "server.prune" (fun () -> prune t query) in
  let response = respond t pruned in
  record_answer t response;
  Log.debug (fun m ->
      m "answer: %d candidate intervals, %d btree hits, %d blocks shipped"
        response.candidate_intervals response.btree_hits (List.length response.blocks));
  response

(* MIN/MAX without shipping the whole candidate set (Section 6.4): OPE
   preserves order, so the extreme B-tree entry over the attribute's
   key range whose target is compatible with a distinguished-node
   candidate locates the extreme {e encrypted} occurrence; plaintext
   candidates live in the skeleton the client already holds.  At most
   one block ships. *)
let answer_extreme t query ~key_range ~direction =
  Obs.span t.trace "server.answer_extreme" @@ fun () ->
  let pass, levels = prune t query in
  let distinguished = last_level levels in
  let lo, hi = key_range in
  let entries = Metadata.index_range t.index ~lo ~hi in
  let entries =
    match direction with
    | `Min -> entries
    | `Max -> List.rev entries
  in
  pass.hits <- pass.hits + List.length entries;
  let compatible target = filter t distinguished [ target ] <> [||] in
  let block_of_target = function
    | Metadata.To_block id -> Hashtbl.find_opt t.blocks_by_id id
    | Metadata.To_plain _ -> None
  in
  let rec first_match = function
    | [] -> None
    | (_, target) :: rest ->
      if compatible target then Some (block_of_target target) else first_match rest
  in
  let blocks =
    match first_match entries with
    | Some (Some block) -> [ block ]
    | Some None | None -> []
  in
  let response =
    { blocks;
      bytes = block_bytes blocks;
      candidate_intervals = pass.touched;
      btree_hits = pass.hits }
  in
  Obs.Metric.add M.blocks_shipped (List.length blocks);
  Obs.Metric.add M.bytes_shipped response.bytes;
  record_answer t response;
  response

(* ------------------------------------------------------------------ *)
(* List adaptors: [answer]'s building blocks over interval lists, for  *)
(* re-driving its forward pass from outside (bench/e2e/redrive.ml).    *)
(* Each converts at the boundary and calls the functions above.        *)

let intervals t ps = Array.fold_right (fun p acc -> Dsi.Universe.interval t.universe p :: acc) ps []

let positions t ivs =
  let found = Array.make (List.length ivs) 0 and k = ref 0 in
  List.iter
    (fun iv ->
      match Dsi.Universe.position ~from:(if !k > 0 then found.(!k - 1) else 0) t.universe iv with
      | Some p ->
        found.(!k) <- p;
        incr k
      | None -> ())
    ivs;
  Forest.of_unsorted (Array.sub found 0 !k)

let lookup t test = intervals t (seed t test)

let join_forward t origin axis cands =
  intervals t (forward t (Option.map (positions t) origin) axis (positions t cands))

let join_backward t origins axis survivors =
  intervals t (backward t (positions t origins) axis (positions t survivors))

let filter_by_targets t cands targets = intervals t (filter t (positions t cands) targets)

type eval_state = {
  mutable touched : int;     (* surviving intervals, summed over query nodes *)
  mutable hits : int;        (* B-tree entries touched *)
  mutable witnesses : Interval.t list;  (* all surviving intervals, for block selection *)
}

let new_state () = { touched = 0; hits = 0; witnesses = [] }

let add_hits (state : eval_state) n = state.hits <- state.hits + n

let register (state : eval_state) survivors =
  state.touched <- state.touched + List.length survivors;
  state.witnesses <- List.rev_append survivors state.witnesses

let select_blocks t ~witnesses ~distinguished ~candidate_intervals ~btree_hits =
  select t ~witnesses:(positions t witnesses) ~distinguished:(positions t distinguished)
    ~candidate_intervals ~btree_hits

(* ------------------------------------------------------------------ *)
(* Fetches and padded answers                                         *)

(* Ship the requested blocks verbatim: cover traffic, and the naive
   read of every hosted id.  Unknown ids are skipped — a dishonest
   client probing the id space learns only what the block universe
   already reveals. *)
let fetch t ids =
  Obs.span t.trace "server.fetch" @@ fun () ->
  let blocks =
    List.sort_uniq compare ids
    |> List.filter_map (fun id -> Hashtbl.find_opt t.blocks_by_id id)
  in
  let response =
    { blocks; bytes = block_bytes blocks; candidate_intervals = 0;
      btree_hits = 0 }
  in
  Obs.Metric.add M.blocks_shipped (List.length blocks);
  Obs.Metric.add M.bytes_shipped response.bytes;
  record_answer t response;
  response

(* Answer a query, then widen the shipment with the requested pad
   blocks.  The result stays a superset of the honest answer, so the
   client's filtering still yields byte-identical answers. *)
let answer_padded t query ~extra =
  let real = answer t query in
  let have = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace have b.Encrypt.id ()) real.blocks;
  let pad =
    List.sort_uniq compare extra
    |> List.filter_map (fun id ->
           if Hashtbl.mem have id then None
           else Hashtbl.find_opt t.blocks_by_id id)
  in
  let blocks =
    List.sort (fun a b -> compare a.Encrypt.id b.Encrypt.id) (real.blocks @ pad)
  in
  let pad_bytes = block_bytes pad in
  Obs.Metric.add M.blocks_shipped (List.length pad);
  Obs.Metric.add M.bytes_shipped pad_bytes;
  { real with blocks; bytes = real.bytes + pad_bytes }
