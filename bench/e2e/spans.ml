(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark around its own calls into each
   layer's public functions; nothing under lib/ is instrumented.  A
   span records its name, monotonic start and stop (ns), the id of the
   span that was open when it started (-1 for an operation's top-level
   span), the id of the operation it belongs to, and the minor words
   allocated while it was open — exact, since the benchmark runs on a
   single domain.  A disabled recorder calls straight through. *)

type span = {
  id : int;
  parent : int;
  op : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  alloc_words : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (* most recent first *)
  mutable next_id : int;
  mutable open_ids : int list;  (* innermost first *)
  mutable op : int;
}

let create ~enabled = { enabled; spans = []; next_id = 0; open_ids = []; op = -1 }

let off = create ~enabled:false

let now_ns = Monotonic_clock.now

let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
    t.open_ids <- id :: t.open_ids;
    let words = Gc.minor_words () in
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      let alloc_words = Gc.minor_words () -. words in
      t.open_ids <- (match t.open_ids with _ :: rest -> rest | [] -> []);
      t.spans <-
        { id; parent; op = t.op; name; start_ns; stop_ns; alloc_words } :: t.spans
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

(* An operation's top-level span: every span opened inside it shares
   the operation id [op]. *)
let operation t ~op name f =
  t.op <- op;
  record t name f

let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Summed duration (ns) and allocation (words) of the spans with one of
   the given names. *)
let totals t names =
  List.fold_left
    (fun (ns, words) s ->
      if List.mem s.name names then ns +. duration_ns s, words +. s.alloc_words
      else ns, words)
    (0.0, 0.0) t.spans

(* Share of top-level (operation) span time not covered by the
   operation's direct child spans — time the layer spans miss. *)
let unattributed_frac t =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    t.spans;
  let total, missed =
    List.fold_left
      (fun (total, missed) s ->
        if s.parent >= 0 then total, missed
        else begin
          let d = duration_ns s in
          total +. d, missed +. (d -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id))
        end)
      (0.0, 0.0) t.spans
  in
  if total = 0.0 then 0.0 else missed /. total

let to_json s =
  Obs.Json.Obj
    [ "id", Obs.Json.Int s.id;
      "parent", Obs.Json.Int s.parent;
      "op", Obs.Json.Int s.op;
      "name", Obs.Json.Str s.name;
      "start_ns", Obs.Json.Int (Int64.to_int s.start_ns);
      "stop_ns", Obs.Json.Int (Int64.to_int s.stop_ns);
      "alloc_words", Obs.Json.Float s.alloc_words ]

(* One JSON object per line, in the order the spans closed. *)
let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Obs.Json.to_string (to_json s));
          output_char oc '\n')
        (List.rev t.spans))
