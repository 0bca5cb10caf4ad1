(* sxqbench: four seeded, closed-loop, single-client workloads driven
   through the public API, every answer checked against a plaintext
   oracle.

   A run hosts the workload's document [setups] times (the median is
   [setup_s]), warms up on the first hosting, then replays the
   workload's fixed operation stream in rounds from the last hosting's
   state until at least [seconds] have passed and enough samples are
   in.  Every round starts from the same state, so per-seed counts are
   exact whatever the number of rounds.  With [trace] on, rounds
   alternate between the public entry points (untraced; they give the
   end-to-end metrics) and the span-recording re-drives of [Redrive]
   (traced; they give the per-layer metrics). *)

open Secure

type workload = Sel | Wide | Repeat | Churn

let workloads = [ "sel", Sel; "wide", Wide; "repeat", Repeat; "churn", Churn ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* [Tiny] shrinks documents and operation counts for the self-test. *)
type scale = Full | Tiny

type config = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  scale : scale;
  dir : string;  (* where churn keeps its bundle and delta-log files *)
}

type op = Read of Xpath.Ast.path | Write of Update.edit

let master = "sxqbench-master"

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                      *)

type input = {
  doc : Xmlcore.Doc.t;
  scs : Sc.t list;
  stream : op array;  (* one round; at full scale >= 250 reads, so p95 has >= 12 beyond *)
  setups : int;
  warmup : int;
}

(* Query pools come from one fixed generator seed, so every run seed
   reads the same query mix.  Querygen's seed decides the value literals
   and how many surface forms of each path a pool holds, and across ten
   seeds that swung a run's totals by 13-98% (bytes_per_read on repeat
   varied 2x), more than any useful regression bound.  The run seed
   decides the order of the reads, the edits, and where the edits fall. *)
let pool_seed = 1L

let query_pool doc families ~count =
  Array.of_list
    (List.concat_map (fun f -> Workload.Querygen.generate ~seed:pool_seed doc f ~count) families)

(* Every pool query the same number of times, about [target] reads in
   all, in seeded order. *)
let cycled rng pool ~target =
  let cycles = max 1 (Float.to_int (Float.round (float target /. float (Array.length pool)))) in
  let reads = Array.concat (List.init cycles (fun _ -> pool)) in
  Crypto.Prng.shuffle rng reads;
  reads

(* Zipf (s = 1) with exact counts: the rank-k query is read
   round(n / (k H)) times, at least once.  Ranks are fixed; the run
   seed orders the reads. *)
let zipf rng pool ~n =
  let ranked = Array.copy pool in
  Crypto.Prng.shuffle (Crypto.Prng.create pool_seed) ranked;
  let weight k = 1.0 /. float (k + 1) in
  let h = Array.fold_left ( +. ) 0.0 (Array.mapi (fun k _ -> weight k) ranked) in
  let reads =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun k q -> Array.make (max 1 (Float.to_int (Float.round (float n *. weight k /. h)))) q)
            ranked))
  in
  Crypto.Prng.shuffle rng reads;
  reads

(* Health edits: four [Set_value]s of an encrypted policy#, then a
   remark inserted under a patient and deleted again, cycling; patients
   and values are drawn from [rng].  The writes fall at seeded positions
   among the reads. *)
let churn_stream rng doc reads ~writes =
  let names =
    Array.of_list
      (List.filter_map (Xmlcore.Doc.value doc) (Xmlcore.Doc.nodes_with_tag doc "pname"))
  in
  let any_name () = Crypto.Prng.choice rng names in
  let patient name = Printf.sprintf "//patient[pname='%s']" name in
  let remark = ref names.(0) in
  let edit k =
    match k mod 6 with
    | 4 ->
      remark := any_name ();
      Update.Insert_child
        { parent = Xpath.Parser.parse (patient !remark);
          position = 0;
          subtree = Xmlcore.Tree.leaf "remark" "follow-up" }
    | 5 -> Update.Delete_nodes (Xpath.Parser.parse (patient !remark ^ "/remark"))
    | _ ->
      Update.Set_value
        ( Xpath.Parser.parse (patient (any_name ()) ^ "//policy#"),
          Printf.sprintf "9%04d" (Crypto.Prng.int rng 10_000) )
  in
  let is_write = Array.init (Array.length reads + writes) (fun i -> i < writes) in
  Crypto.Prng.shuffle rng is_write;
  let r = ref 0 and w = ref 0 in
  Array.map
    (fun write ->
      if write then begin
        let e = edit !w in
        incr w;
        Write e
      end
      else begin
        let q = reads.(!r) in
        incr r;
        Read q
      end)
    is_write

let input cfg =
  let rng = Crypto.Prng.create (Int64.of_int cfg.seed) in
  let size ~full ~tiny = match cfg.scale with Full -> full | Tiny -> tiny in
  let setups = size ~full:3 ~tiny:2 and warmup = size ~full:20 ~tiny:3 in
  let reads doc scs queries =
    { doc; scs; stream = Array.map (fun q -> Read q) queries; setups; warmup }
  in
  let xmark () = Workload.Xmark.generate ~persons:(size ~full:1500 ~tiny:60) () in
  let open Workload.Querygen in
  match cfg.workload with
  | Sel ->
    let doc = Workload.Nasa.generate ~datasets:(size ~full:500 ~tiny:20) () in
    let pool = query_pool doc [ Ql; Qv; Qm ] ~count:(size ~full:120 ~tiny:8) in
    reads doc (Workload.Nasa.constraints ()) (cycled rng pool ~target:(size ~full:1200 ~tiny:1))
  | Wide ->
    let doc = xmark () in
    let pool = query_pool doc [ Qs; Qm ] ~count:100 in
    reads doc (Workload.Xmark.constraints ()) (cycled rng pool ~target:(size ~full:504 ~tiny:1))
  | Repeat ->
    let doc = xmark () in
    let pool = query_pool doc [ Ql; Qv ] ~count:(size ~full:100 ~tiny:8) in
    reads doc (Workload.Xmark.constraints ()) (zipf rng pool ~n:(size ~full:1500 ~tiny:24))
  | Churn ->
    let doc = Workload.Health.generate ~seed:5L ~patients:(size ~full:300 ~tiny:20) () in
    let pool = query_pool doc [ Ql; Qv; Qm ] ~count:(size ~full:40 ~tiny:6) in
    let reads = cycled rng pool ~target:(size ~full:350 ~tiny:1) in
    { doc;
      scs = Workload.Health.constraints ();
      stream = churn_stream rng doc reads ~writes:(size ~full:150 ~tiny:6);
      setups = size ~full:5 ~tiny:2;
      warmup }

let describe = function
  | Read q -> "read " ^ Xpath.Ast.to_string q
  | Write (Update.Set_value (p, v)) -> Printf.sprintf "set %s %s" (Xpath.Ast.to_string p) v
  | Write e -> Update.describe e

let stream_digest stream =
  Digest.to_hex
    (Digest.string (String.concat "\n" (Array.to_list (Array.map describe stream))))

(* ------------------------------------------------------------------ *)
(* Run state                                                            *)

exception Mismatch of string

type t = {
  cfg : config;
  input : input;
  spans : Spans.t;
  counters : (string, float) Hashtbl.t;  (* traced rounds only *)
  mutable setup_s : float list;
  mutable setup_costs : System.setup_cost list;
  mutable read_ms : float list;    (* untraced rounds *)
  mutable write_ms : float list;
  mutable recover_s : float list;
  mutable op_ns : float;           (* untraced completed operations *)
  mutable ops : int;
  mutable read_bytes : int;
  mutable traced_op_ns : float;
  mutable traced_ops : int;
  mutable attempted : int;
  mutable failed : int;
  mutable rounds : int;
}

let count b name v =
  Hashtbl.replace b.counters name (v +. Option.value ~default:0.0 (Hashtbl.find_opt b.counters name))

let counter b name = Option.value ~default:0.0 (Hashtbl.find_opt b.counters name)

let now_ns = Spans.now_ns

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* What a round serves from. *)
type serving =
  | Hosted of System.t
  | Cached of Engine.t
  | Journal of Persist.journal  (* untraced churn *)
  | Redriven of Redrive.journal  (* traced churn *)

let system_of = function
  | Hosted s -> s
  | Cached e -> Engine.system e
  | Journal j -> Persist.journal_system j
  | Redriven j -> j.Redrive.system

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let bundle_path b name =
  let dir = Filename.concat b.cfg.dir name in
  mkdir_p dir;
  Filename.concat dir "bundle"

(* ------------------------------------------------------------------ *)
(* Operations                                                           *)

let check_answers oracle ~op query answers =
  if not (Oracle.agrees oracle query answers) then
    raise
      (Mismatch
         (Printf.sprintf "op %d: answers to %s differ from the plaintext oracle" op
            (Xpath.Ast.to_string query)))

(* Untraced rounds and warm-up record no spans. *)
let spans b ~traced = if traced then b.spans else Spans.off

(* One read: its answers, its wire bytes, and bookkeeping to run after
   the timed interval. *)
let read b ~traced ~mac_key ~seq serving query =
  match serving with
  | Cached e ->
    let answers, report =
      Spans.record (spans b ~traced) "engine.evaluate" (fun () ->
          Engine.evaluate_report e query)
    in
    ( answers,
      report.Engine.transmit_bytes,
      fun () ->
        if traced then count b "engine.blocks_decrypted" (float report.Engine.blocks_decrypted) )
  | Hosted _ | Journal _ | Redriven _ when not traced ->
    let answers, cost = System.evaluate (system_of serving) query in
    answers, cost.System.transmit_bytes, ignore
  | Hosted _ | Journal _ | Redriven _ ->
    let system = system_of serving in
    let r = Redrive.read b.spans ~mac_key ~seq system query in
    ( r.Redrive.answers,
      r.Redrive.bytes_up + r.Redrive.bytes_down,
      fun () ->
        let direct = Protocol.encode_response (Server.answer (System.server system) r.Redrive.request) in
        if not (String.equal direct r.Redrive.response_bytes) then
          raise (Mismatch "server re-drive response differs from Server.answer's");
        List.iter
          (fun (name, v) -> count b name (float v))
          [ "server.candidate_intervals", r.Redrive.candidate_intervals;
            "server.btree_hits", r.Redrive.btree_hits;
            "server.blocks_shipped", r.Redrive.blocks;
            "server.distinguished", r.Redrive.distinguished;
            "server.answers", List.length r.Redrive.answers;
            "wire.bytes_up", r.Redrive.bytes_up;
            "wire.bytes_down", r.Redrive.bytes_down;
            "client.decrypt.bytes", r.Redrive.decrypted_bytes ] )

let write b ~oracle serving edit =
  match serving with
  | Journal j ->
    ignore (Persist.journal_update j edit : System.delta_cost);
    ignore
  | Redriven j ->
    let cost, appended = Redrive.write b.spans j edit in
    fun () ->
      (* the oracle still holds the pre-edit document here *)
      let edited = Oracle.edited_bytes oracle edit in
      count b "update.plan_ms" cost.System.plan_ms;
      count b "delta.reencrypt_ms" cost.System.reencrypt_ms;
      count b "delta.patch_ms" cost.System.patch_ms;
      List.iter
        (fun (name, v) -> count b name (float v))
        [ "delta.blocks_touched", cost.System.blocks_touched;
          "delta.reencrypted_bytes", cost.System.reencrypted_bytes;
          "delta.index_entries_touched", cost.System.index_entries_touched;
          "delta.fallbacks", (if cost.System.fell_back then 1 else 0);
          "persist.log_bytes", appended;
          "edited_bytes", edited ]
  | Hosted _ | Cached _ -> invalid_arg "write on a read-only workload"

(* Execute one operation, timing only the call itself; the oracle check
   and bookkeeping run afterwards.  [record] is false during warm-up. *)
let exec b ~traced ~record ~mac_key ~seq ~oracle serving id op =
  if record then b.attempted <- b.attempted + 1;
  let name = match op with Read _ -> "op.read" | Write _ -> "op.write" in
  let t0 = now_ns () in
  match
    Spans.operation (spans b ~traced) ~op:id name (fun () ->
        match op with
        | Read q ->
          let answers, bytes, after = read b ~traced ~mac_key ~seq serving q in
          (fun () ->
            check_answers oracle ~op:id q answers;
            after ();
            if record && not traced then b.read_bytes <- b.read_bytes + bytes)
        | Write e ->
          let after = write b ~oracle serving e in
          (fun () -> after (); Oracle.apply oracle e))
  with
  | exception _ -> if record then b.failed <- b.failed + 1
  | after ->
    let ns = Int64.to_float (Int64.sub (now_ns ()) t0) in
    after ();
    if record then begin
      if traced then begin
        b.traced_op_ns <- b.traced_op_ns +. ns;
        b.traced_ops <- b.traced_ops + 1;
        count b (match op with Read _ -> "traced.reads" | Write _ -> "traced.writes") 1.0
      end
      else begin
        b.op_ns <- b.op_ns +. ns;
        b.ops <- b.ops + 1;
        match op with
        | Read _ -> b.read_ms <- (ns /. 1e6) :: b.read_ms
        | Write _ -> b.write_ms <- (ns /. 1e6) :: b.write_ms
      end
    end

(* Restart from the bundle and its delta log, timed, and check the
   recovered document against the oracle's. *)
let restart b ~traced ~oracle ~id path =
  let t0 = now_ns () in
  let system =
    Spans.operation (spans b ~traced) ~op:id "op.restart" (fun () ->
        if traced then begin
          let system, records = Redrive.restart b.spans ~master path in
          count b "recover.records" (float records);
          count b "traced.restarts" 1.0;
          system
        end
        else Persist.journal_system (Persist.journal_open ~master path))
  in
  let secs = seconds_since t0 in
  let printed = Xmlcore.Printer.doc_to_string in
  if printed (System.doc system) <> printed (Oracle.doc oracle) then
    raise (Mismatch (Printf.sprintf "op %d: recovered document differs from the oracle's" id));
  if not traced then b.recover_s <- secs :: b.recover_s

(* ------------------------------------------------------------------ *)
(* Set-up, warm-up and rounds                                           *)

type hosting = {
  system : System.t;
  serving : serving;  (* what warm-up runs against *)
  bundle : string;    (* churn: the saved bundle, every round's start *)
}

(* Timed: until the first operation can be served. *)
let host b k =
  let t0 = now_ns () in
  let system, cost = System.setup ~master b.input.doc b.input.scs Scheme.Opt in
  let serving, path =
    match b.cfg.workload with
    | Sel | Wide -> Hosted system, None
    | Repeat -> Cached (Engine.create system), None
    | Churn ->
      let path = bundle_path b (Printf.sprintf "setup-%d" k) in
      Persist.save system path;
      Journal (Persist.journal_open ~master path), Some path
  in
  b.setup_s <- seconds_since t0 :: b.setup_s;
  b.setup_costs <- cost :: b.setup_costs;
  let bundle =
    match path with
    | Some p -> In_channel.with_open_bin p In_channel.input_all
    | None -> ""
  in
  { system; serving; bundle }

let run_ops b ~traced ~record ~oracle ~first serving ops =
  let mac_key = Redrive.session_mac_key (system_of serving) in
  Array.iteri
    (fun i op ->
      exec b ~traced ~record ~mac_key ~seq:(Int64.of_int i) ~oracle serving (first + i) op)
    ops

let round b hosting ~traced =
  let oracle = Oracle.create b.input.doc in
  let n = Array.length b.input.stream in
  let first = b.rounds * (n + 1) in
  let serving, path =
    match b.cfg.workload with
    | Sel | Wide -> Hosted hosting.system, None
    | Repeat -> Cached (Engine.create hosting.system), None
    | Churn ->
      let path = bundle_path b (Printf.sprintf "round-%d" b.rounds) in
      Out_channel.with_open_bin path (fun oc -> output_string oc hosting.bundle);
      let j = Persist.journal_open ~master path in
      ( (if traced then
           Redriven
             (Redrive.journal ~master ~path ~seq:(Persist.journal_seq j) (Persist.journal_system j))
         else Journal j),
        Some path )
  in
  run_ops b ~traced ~record:true ~oracle ~first serving b.input.stream;
  (match serving, path with
   | Cached e, _ when traced ->
     let s = Engine.stats e in
     List.iter
       (fun (name, v) -> count b name (float v))
       [ "engine.plan_hits", s.Engine.Stats.plan_hits;
         "engine.plan_misses", s.Engine.Stats.plan_misses;
         "engine.result_hits", s.Engine.Stats.result_hits;
         "engine.result_misses", s.Engine.Stats.result_misses;
         "engine.block_hits", s.Engine.Stats.block_hits;
         "engine.block_misses", s.Engine.Stats.block_misses;
         "engine.result_evictions", s.Engine.Stats.result_evictions;
         "engine.block_evictions", s.Engine.Stats.block_evictions ]
   | _, Some path -> restart b ~traced ~oracle ~id:(first + n) path
   | _, None -> ());
  b.rounds <- b.rounds + 1

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

type metric = {
  name : string;
  unit : string;
  value : float;
  exact : bool;  (* a count that repeats bit for bit for a given seed *)
}

let m ?(exact = false) name unit value = { name; unit; value; exact }

let percentile p samples =
  match List.sort Float.compare samples with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    List.nth sorted (max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let median samples = percentile 0.5 samples

let ratio a b = if b = 0.0 then 0.0 else a /. b

let end_to_end b =
  let cost = List.hd b.setup_costs in
  let plaintext = String.length (Xmlcore.Printer.doc_to_string b.input.doc) in
  [ m "setup_s" "s" (median b.setup_s);
    m "ops_per_s" "1/s" (ratio (float b.ops) (b.op_ns /. 1e9));
    m "read_p50_ms" "ms" (percentile 0.5 b.read_ms);
    m "read_p95_ms" "ms" (percentile 0.95 b.read_ms);
    m "write_p50_ms" "ms" (percentile 0.5 b.write_ms);
    m "write_p90_ms" "ms" (percentile 0.9 b.write_ms);
    m "recover_s" "s" (median b.recover_s);
    m ~exact:true "bytes_per_read" "B"
      (ratio (float b.read_bytes) (float (List.length b.read_ms)));
    m ~exact:true "storage_ratio" "ratio"
      (ratio
         (float (cost.System.server_data_bytes + cost.System.metadata_bytes))
         (float plaintext));
    m "heap_peak_mb" "MB"
      (float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    m "failed_frac" "ratio" (ratio (float b.failed) (float b.attempted)) ]

let per_layer b =
  let reads = counter b "traced.reads" and writes = counter b "traced.writes" in
  let restarts = counter b "traced.restarts" in
  let ms per names = ratio (fst (Spans.totals b.spans names) /. 1e6) per in
  let kw per names = ratio (snd (Spans.totals b.spans names) /. 1e3) per in
  let per_read name = ratio (counter b name) reads in
  let per_write name = ratio (counter b name) writes in
  let hit_rate cache =
    let hits = counter b ("engine." ^ cache ^ "_hits") in
    ratio hits (hits +. counter b ("engine." ^ cache ^ "_misses"))
  in
  let protocol =
    [ "protocol.encode_request"; "protocol.decode_request"; "protocol.encode_response";
      "protocol.decode_response" ]
  in
  let setup f = median (List.map f b.setup_costs) in
  let cost = List.hd b.setup_costs in
  let untraced_mean = ratio b.op_ns (float b.ops) in
  [ m "client.translate.ms" "ms" (ms reads [ "client.translate" ]);
    m "protocol.encode_request.ms" "ms" (ms reads [ "protocol.encode_request" ]);
    m "protocol.decode_request.ms" "ms" (ms reads [ "protocol.decode_request" ]);
    m "protocol.encode_response.ms" "ms" (ms reads [ "protocol.encode_response" ]);
    m "protocol.decode_response.ms" "ms" (ms reads [ "protocol.decode_response" ]);
    m "session.frame.ms" "ms" (ms reads [ "session.frame" ]);
    m "session.verify.ms" "ms" (ms reads [ "session.verify" ]);
    m "server.lookup.ms" "ms" (ms reads [ "server.lookup" ]);
    m "server.join.ms" "ms" (ms reads [ "server.join" ]);
    m "server.btree.ms" "ms" (ms reads [ "server.btree" ]);
    m "server.filter.ms" "ms" (ms reads [ "server.filter" ]);
    m "server.select_blocks.ms" "ms" (ms reads [ "server.select_blocks" ]);
    m ~exact:true "server.candidate_intervals" "count" (per_read "server.candidate_intervals");
    m ~exact:true "server.btree_hits" "count" (per_read "server.btree_hits");
    m ~exact:true "server.blocks_shipped" "count" (per_read "server.blocks_shipped");
    m ~exact:true "server.precision" "ratio"
      (ratio (counter b "server.answers") (counter b "server.distinguished"));
    m ~exact:true "wire.bytes_up" "B" (per_read "wire.bytes_up");
    m ~exact:true "wire.bytes_down" "B" (per_read "wire.bytes_down");
    m "client.decrypt.ms" "ms" (ms reads [ "client.decrypt" ]);
    m ~exact:true "client.decrypt.bytes" "B" (per_read "client.decrypt.bytes");
    m "client.postprocess.ms" "ms" (ms reads [ "client.postprocess" ]);
    m "client.translate.alloc_kw" "kw" (kw reads [ "client.translate" ]);
    m "protocol.alloc_kw" "kw" (kw reads protocol);
    m "session.alloc_kw" "kw" (kw reads [ "session.frame"; "session.verify" ]);
    m "server.alloc_kw" "kw" (kw reads [ "server.answer" ]);
    m "client.decrypt.alloc_kw" "kw" (kw reads [ "client.decrypt" ]);
    m "client.postprocess.alloc_kw" "kw" (kw reads [ "client.postprocess" ]);
    m "engine.evaluate.ms" "ms" (ms reads [ "engine.evaluate" ]);
    m "engine.alloc_kw" "kw" (kw reads [ "engine.evaluate" ]);
    m ~exact:true "engine.plan_hit_rate" "ratio" (hit_rate "plan");
    m ~exact:true "engine.result_hit_rate" "ratio" (hit_rate "result");
    m ~exact:true "engine.block_hit_rate" "ratio" (hit_rate "block");
    m ~exact:true "engine.result_evictions" "count" (per_read "engine.result_evictions");
    m ~exact:true "engine.block_evictions" "count" (per_read "engine.block_evictions");
    m ~exact:true "engine.blocks_decrypted" "count" (per_read "engine.blocks_decrypted");
    m "update.plan.ms" "ms" (per_write "update.plan_ms");
    m "delta.apply.ms" "ms" (ms writes [ "delta.apply" ]);
    m "delta.reencrypt.ms" "ms" (per_write "delta.reencrypt_ms");
    m "delta.patch.ms" "ms" (per_write "delta.patch_ms");
    m ~exact:true "delta.blocks_touched" "count" (per_write "delta.blocks_touched");
    m ~exact:true "delta.reencrypted_bytes" "B" (per_write "delta.reencrypted_bytes");
    m ~exact:true "delta.index_entries_touched" "count" (per_write "delta.index_entries_touched");
    m ~exact:true "delta.fallbacks" "count" (per_write "delta.fallbacks");
    m "delta.alloc_kw" "kw" (kw writes [ "delta.apply" ]);
    m "persist.digest.ms" "ms" (ms writes [ "persist.digest" ]);
    m "persist.append.ms" "ms" (ms writes [ "persist.append" ]);
    m "persist.alloc_kw" "kw" (kw writes [ "persist.digest"; "persist.append"; "persist.compact" ]);
    m ~exact:true "persist.log_bytes_per_write" "B" (per_write "persist.log_bytes");
    m ~exact:true "persist.write_amplification" "ratio"
      (ratio
         (counter b "delta.reencrypted_bytes" +. counter b "persist.log_bytes")
         (counter b "edited_bytes"));
    m "recover.load.ms" "ms" (ms restarts [ "recover.load" ]);
    m "recover.read_log.ms" "ms" (ms restarts [ "recover.read_log" ]);
    m "recover.replay.ms" "ms" (ms restarts [ "recover.replay" ]);
    m ~exact:true "recover.records" "count" (ratio (counter b "recover.records") restarts);
    m "setup.scheme_build_ms" "ms" (setup (fun c -> c.System.scheme_build_ms));
    m "setup.encrypt_ms" "ms" (setup (fun c -> c.System.encrypt_ms));
    m "setup.metadata_ms" "ms" (setup (fun c -> c.System.metadata_ms));
    m ~exact:true "setup.blocks" "count" (float cost.System.block_count);
    m ~exact:true "setup.metadata_bytes" "B" (float cost.System.metadata_bytes);
    m "trace.unattributed_frac" "ratio" (Spans.unattributed_frac b.spans);
    m "trace.overhead_frac" "ratio"
      (ratio (ratio b.traced_op_ns (float b.traced_ops)) untraced_mean -. 1.0) ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

type result = {
  workload : string;
  seed : int;
  traced : bool;
  mismatch : string option;
  attempted : int;
  failed : int;
  samples : (string * int) list;
  stream_digest : string;
  metrics : metric list;
  spans : Spans.t;
}

let run cfg =
  let input = input cfg in
  let b =
    { cfg; input; spans = Spans.create ~enabled:cfg.trace; counters = Hashtbl.create 64;
      setup_s = []; setup_costs = []; read_ms = []; write_ms = []; recover_s = [];
      op_ns = 0.0; ops = 0; read_bytes = 0; traced_op_ns = 0.0; traced_ops = 0;
      attempted = 0; failed = 0; rounds = 0 }
  in
  (* The first hosting serves the warm-up; each is dropped before the
     next is built, and the last one serves every round. *)
  let warm_up () =
    let first = host b 0 in
    let ops = Array.sub input.stream 0 (min input.warmup (Array.length input.stream)) in
    run_ops b ~traced:false ~record:false ~oracle:(Oracle.create input.doc)
      ~first:(-input.warmup) first.serving ops
  in
  let rec last_hosting k =
    let h = host b k in
    if k + 1 < input.setups then last_hosting (k + 1) else h
  in
  let mismatch =
    match
      Fun.protect ~finally:(fun () -> remove_tree cfg.dir) @@ fun () ->
      warm_up ();
      let hosting = last_hosting 1 in
      Gc.compact ();
      let start = now_ns () in
      let enough () = seconds_since start >= cfg.seconds && ((not cfg.trace) || b.rounds >= 2) in
      while not (enough ()) do
        round b hosting ~traced:(cfg.trace && b.rounds mod 2 = 1);
        Gc.compact ()
      done
    with
    | () -> None
    | exception Mismatch msg -> Some msg
  in
  { workload = workload_name cfg.workload;
    seed = cfg.seed;
    traced = cfg.trace;
    mismatch;
    attempted = b.attempted;
    failed = b.failed;
    samples =
      [ "rounds", b.rounds;
        "setups", List.length b.setup_s;
        "reads", List.length b.read_ms;
        "writes", List.length b.write_ms;
        "restarts", List.length b.recover_s;
        "traced_ops", b.traced_ops ];
    stream_digest = stream_digest input.stream;
    metrics = end_to_end b @ (if cfg.trace then per_layer b else []);
    spans = b.spans }

let metric_json m =
  Obs.Json.Obj [ "value", Obs.Json.Float m.value; "unit", Obs.Json.Str m.unit ]

let to_json ?host r =
  Obs.Json.Obj
    ([ "workload", Obs.Json.Str r.workload;
       "seed", Obs.Json.Int r.seed;
       "traced", Obs.Json.Bool r.traced;
       "ok", Obs.Json.Bool (r.mismatch = None);
       "mismatch", (match r.mismatch with Some m -> Obs.Json.Str m | None -> Obs.Json.Null);
       "attempted", Obs.Json.Int r.attempted;
       "failed", Obs.Json.Int r.failed;
       "samples", Obs.Json.Obj (List.map (fun (k, v) -> k, Obs.Json.Int v) r.samples);
       "stream_digest", Obs.Json.Str r.stream_digest ]
    @ (match host with Some h -> [ "host", h ] | None -> [])
    @ [ "metrics", Obs.Json.Obj (List.map (fun m -> m.name, metric_json m) r.metrics) ])
