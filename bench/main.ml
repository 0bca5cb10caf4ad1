(* Benchmark harness: regenerates every experimental artifact of the
   paper's Section 7 (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe                    # all experiments, small scale
     dune exec bench/main.exe -- e2 e3           # selected experiments
     dune exec bench/main.exe -- all --scale medium
     dune exec bench/main.exe -- e10 --scale tiny --json results.json

   Experiments:
     e1  Figure 6    — OPESS distribution flattening
     e2  Figure 9    — query performance per scheme per query family
     e3  Figure 10   — saving ratios of app/opt over top/sub
     e4  Section 7.2 — division of work between client and server
     e5  Section 7.3 — secure protocol vs naive ship-everything
     e6  Section 7.4 — encryption time and encrypted document size
     e7  Theorems 4.1/5.1/5.2/6.1 — candidate counts and attacker belief
     e9              — session-layer overhead under transport faults
     e10             — engine caches: repeated workload, cold vs warm vs off
     e11             — domain-pool scaling of hosting and batched queries
     e12             — disabled-observability overhead bound
     e13             — multi-tenant admission control under offered load
     e14             — leakage mitigations: candidate-set growth vs. price
     e15             — incremental updates: delta cost vs full re-host
     micro           — Bechamel micro-benchmarks of the core primitives

   --json <path> additionally writes every measured row (scheme x
   dataset x family x phase-ms x bytes, plus e10 hit rates and
   speedups) as a flat JSON array for downstream tooling. *)

module System = Secure.System
module Scheme = Secure.Scheme
module Qg = Workload.Querygen

let line = String.make 78 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* ------------------------------------------------------------------ *)
(* Scale                                                               *)

type scale = { label : string; xmark_persons : int; nasa_datasets : int }

(* [tiny] exists for `make bench-smoke`: just enough data for the cache
   experiment's equality assertions to be meaningful while keeping the
   tier-1 gate fast.  Its speedup assertion is skipped (timings at this
   size are noise-dominated). *)
let tiny = { label = "tiny"; xmark_persons = 200; nasa_datasets = 80 }
let small = { label = "small"; xmark_persons = 1500; nasa_datasets = 500 }
let medium = { label = "medium"; xmark_persons = 6000; nasa_datasets = 2000 }
let large = { label = "large"; xmark_persons = 25_000; nasa_datasets = 8_000 }

let queries_per_family = 10

(* The paper's measurement protocol: the average of 5 trials after
   dropping the maximum and the minimum. *)
let trials = 5

(* ------------------------------------------------------------------ *)
(* Machine-readable output (--json <path>)                             *)

type jv =
  | S of string
  | F of float
  | I of int
  | B of bool

let json_rows : (string * jv) list list ref = ref []

(* Every experiment that measures something appends flat rows here; the
   driver serializes them when --json was given (collection is cheap
   enough to do unconditionally). *)
let json_row fields = json_rows := fields :: !json_rows

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_write path =
  let oc = open_out path in
  let field (k, v) =
    Printf.sprintf "\"%s\": %s" (json_escape k)
      (match v with
       | S s -> "\"" ^ json_escape s ^ "\""
       | F f -> if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
       | I i -> string_of_int i
       | B b -> if b then "true" else "false")
  in
  output_string oc "[\n";
  List.iteri
    (fun i row ->
      if i > 0 then output_string oc ",\n";
      output_string oc ("  {" ^ String.concat ", " (List.map field row) ^ "}"))
    (List.rev !json_rows);
  output_string oc "\n]\n";
  close_out oc

(* --- Regression gate ---------------------------------------------- *)

(* [--compare BASELINE.json] re-checks a previous [--json] snapshot
   against this run.  A baseline row participates only when its
   "experiment" value was produced this run, so a full baseline can
   gate a partial invocation.  Rows pair up on their non-float fields
   (ints, strings, bools — the configuration axes and the counters,
   which are deterministic under the fixed seeds); a baseline row with
   no partner means the shape of the output changed or a counter
   drifted, and fails the gate.  Floats are checked per field: [_ms]
   timings may move two orders of magnitude either way (machines and
   load differ; the gate is for blow-ups and shape changes, not
   jitter), every other float must agree to the %.6g precision the
   snapshot was written with. *)

let jv_of_json = function
  | Obs.Json.Int i -> Some (I i)
  | Obs.Json.Float f -> Some (F f)
  | Obs.Json.Str s -> Some (S s)
  | Obs.Json.Bool b -> Some (B b)
  | Obs.Json.Null | Obs.Json.List _ | Obs.Json.Obj _ -> None

let jv_print = function
  | S s -> "\"" ^ json_escape s ^ "\""
  | F f -> Printf.sprintf "%.6g" f
  | I i -> string_of_int i
  | B b -> string_of_bool b

let row_key row =
  List.filter (fun (_, v) -> match v with F _ -> false | _ -> true) row

let key_print key =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ jv_print v) key)

let floats_agree field prev cur =
  match Float.is_finite prev, Float.is_finite cur with
  | false, false -> true
  | false, true | true, false -> false
  | true, true ->
    let suffix = "_ms" in
    let n = String.length suffix and m = String.length field in
    if m >= n && String.sub field (m - n) n = suffix then
      prev = 0.0 || cur = 0.0
      || (let r = cur /. prev in r <= 100.0 && r >= 0.01)
    else Float.abs (cur -. prev) <= 1e-5 *. Float.max 1.0 (Float.abs prev)

let json_compare path =
  let baseline =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Obs.Json.of_string s with
    | Ok (Obs.Json.List rows) ->
      List.filter_map
        (function
          | Obs.Json.Obj fields ->
            Some
              (List.filter_map
                 (fun (k, v) ->
                   match jv_of_json v with
                   | Some jv -> Some (k, jv)
                   | None -> None)
                 fields)
          | _ -> None)
        rows
    | Ok _ ->
      Printf.eprintf "compare: %s is not a JSON array of rows\n" path;
      exit 2
    | Error msg ->
      Printf.eprintf "compare: cannot parse %s: %s\n" path msg;
      exit 2
  in
  let current = List.rev !json_rows in
  (* %.6g prints integral floats without a decimal point, and the
     parser reads those back as ints — so decide float-ness per field
     name from this run's rows and coerce the baseline to match,
     otherwise a row with e.g. a 0.0 rate never finds its partner. *)
  let float_fields =
    List.concat_map
      (fun row ->
        List.filter_map
          (fun (k, v) -> match v with F _ -> Some k | _ -> None)
          row)
      current
  in
  let normalize row =
    List.map
      (fun (k, v) ->
        match v with
        | I i when List.mem k float_fields -> (k, F (float_of_int i))
        | v -> (k, v))
      row
  in
  let baseline = List.map normalize baseline in
  let ran_experiments =
    List.filter_map (fun row -> List.assoc_opt "experiment" row) current
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let checked = ref 0 in
  List.iter
    (fun brow ->
      let relevant =
        match List.assoc_opt "experiment" brow with
        | Some e -> List.mem e ran_experiments
        | None -> true
      in
      if relevant then begin
        incr checked;
        let key = row_key brow in
        match
          List.find_opt (fun crow -> row_key crow = key) current
        with
        | None -> fail "no current row matches baseline row {%s}" (key_print key)
        | Some crow ->
          List.iter
            (fun (field, bv) ->
              match bv, List.assoc_opt field crow with
              | F prev, Some (F cur) ->
                if not (floats_agree field prev cur) then
                  fail "{%s} %s: baseline %.6g, current %.6g" (key_print key)
                    field prev cur
              | F prev, (Some _ | None) ->
                fail "{%s} %s: baseline %.6g, current row lacks the float"
                  (key_print key) field prev
              | (S _ | I _ | B _), _ -> ())
            brow
      end)
    baseline;
  match !failures with
  | [] ->
    Printf.printf "\ncompare: %d baseline row(s) matched against %s\n" !checked
      path;
    if !checked = 0 then
      Printf.printf
        "compare: (no baseline row shares an experiment with this run)\n"
  | fs ->
    List.iter (fun m -> Printf.printf "compare: FAIL %s\n" m) (List.rev fs);
    Printf.printf "compare: %d mismatch(es) against %s\n" (List.length fs) path;
    exit 1

(* ------------------------------------------------------------------ *)
(* Dataset / system cache                                              *)

type dataset = {
  name : string;
  doc : Xmlcore.Doc.t;
  scs : Secure.Sc.t list;
}

let dataset_cache : (string, dataset list) Hashtbl.t = Hashtbl.create 4

let datasets scale =
  match Hashtbl.find_opt dataset_cache scale.label with
  | Some ds -> ds
  | None ->
    let xmark = Workload.Xmark.generate ~persons:scale.xmark_persons () in
    let nasa = Workload.Nasa.generate ~datasets:scale.nasa_datasets () in
    let ds =
      [ { name = "XMark"; doc = xmark; scs = Workload.Xmark.constraints () };
        { name = "NASA"; doc = nasa; scs = Workload.Nasa.constraints () } ]
    in
    Hashtbl.replace dataset_cache scale.label ds;
    ds

let systems = Hashtbl.create 8

let system_of ds kind =
  let key = ds.name, kind in
  match Hashtbl.find_opt systems key with
  | Some entry -> entry
  | None ->
    let sys, cost = System.setup ds.doc ds.scs kind in
    Hashtbl.replace systems key (sys, cost);
    sys, cost

(* Per-phase averages of a query's cost; [p_bytes] is the mean number
   of bytes actually transmitted, for the machine-readable output. *)
type phases = {
  p_server : float;
  p_transmit : float;
  p_decrypt : float;
  p_post : float;
  p_total : float;
  p_bytes : float;
}

let phases_zero =
  { p_server = 0.0;
    p_transmit = 0.0;
    p_decrypt = 0.0;
    p_post = 0.0;
    p_total = 0.0;
    p_bytes = 0.0 }

let phases_add a b =
  { p_server = a.p_server +. b.p_server;
    p_transmit = a.p_transmit +. b.p_transmit;
    p_decrypt = a.p_decrypt +. b.p_decrypt;
    p_post = a.p_post +. b.p_post;
    p_total = a.p_total +. b.p_total;
    p_bytes = a.p_bytes +. b.p_bytes }

let phases_scale p k =
  { p_server = p.p_server /. k;
    p_transmit = p.p_transmit /. k;
    p_decrypt = p.p_decrypt /. k;
    p_post = p.p_post /. k;
    p_total = p.p_total /. k;
    p_bytes = p.p_bytes /. k }

(* Average cost of a query over [trials] runs, dropping the fastest and
   slowest trial (ranked by total time), as in Section 7.1. *)
let avg_cost sys q =
  let runs = List.init trials (fun _ -> snd (System.evaluate sys q)) in
  let runs =
    match
      List.sort (fun a b -> Float.compare (System.total_ms a) (System.total_ms b)) runs
    with
    | _fastest :: (_ :: _ :: _ as middle) ->
      (match List.rev middle with
       | _slowest :: kept -> kept
       | [] -> middle)
    | short -> short
  in
  let n = float_of_int (List.length runs) in
  let avg f = List.fold_left (fun acc c -> acc +. f c) 0.0 runs /. n in
  { p_server = avg (fun c -> c.System.server_ms);
    p_transmit = avg (fun c -> c.System.transmit_ms);
    p_decrypt = avg (fun c -> c.System.decrypt_ms);
    p_post = avg (fun c -> c.System.postprocess_ms);
    p_total = avg System.total_ms;
    p_bytes = avg (fun c -> float_of_int c.System.transmit_bytes) }

(* Per (scheme, family): averages over the query set.  Memoised — E3
   reuses E2's measurements. *)
let family_costs = Hashtbl.create 32

let family_cost name sys doc fam =
  let key = name, fam in
  match Hashtbl.find_opt family_costs key with
  | Some cached -> cached
  | None ->
    let queries = Qg.generate doc fam ~count:queries_per_family in
    let total =
      List.fold_left
        (fun acc q -> phases_add acc (avg_cost sys q))
        phases_zero queries
    in
    let n = float_of_int (max 1 (List.length queries)) in
    let result = List.length queries, phases_scale total n in
    Hashtbl.replace family_costs key result;
    result

(* ------------------------------------------------------------------ *)
(* E1 — Figure 6: OPESS distribution flattening                        *)

let e1 () =
  header "E1 (Figure 6): value distribution before and after OPESS";
  (* The figure's input: six values with skewed occurrence counts (the
     text spells out 34 = 1*6 + 4*7 for value 90). *)
  let input = [ "1001", 21; "932", 8; "23", 26; "77", 7; "90", 34; "12", 14 ] in
  let cat = Secure.Opess.build ~key:"figure6" ~attr_id:0 ~tag:"value" input in
  Printf.printf "chosen m = %d, K = %d split keys\n\n"
    (Secure.Opess.chunk_parameter cat) (Secure.Opess.key_count cat);
  Printf.printf "%-10s %-6s    %s\n" "value" "count" "ciphertext chunk counts";
  List.iter
    (fun entry ->
      Printf.printf "%-10s %-6d -> %d values: [%s]  (index scale x%d)\n"
        entry.Secure.Opess.value entry.Secure.Opess.count
        (List.length entry.Secure.Opess.chunks)
        (String.concat ","
           (List.map
              (fun c -> string_of_int c.Secure.Opess.occurrences)
              entry.Secure.Opess.chunks))
        entry.Secure.Opess.scale)
    (Secure.Opess.entries cat);
  let flatness hist =
    let counts = List.map snd hist in
    let mn = List.fold_left min max_int counts
    and mx = List.fold_left max 0 counts in
    float_of_int mn /. float_of_int mx
  in
  Printf.printf
    "\nflatness (min/max count): plaintext %.3f -> split %.3f -> split+scaled %.3f\n"
    (flatness input)
    (flatness (Secure.Opess.ciphertext_histogram cat))
    (flatness (Secure.Opess.scaled_histogram cat));
  Printf.printf
    "expected shape: split is near-flat (all counts in {m-1,m,m+1}); scaling \
     re-skews\nit without correspondence to the plaintext frequencies.\n";
  (* A larger Zipf domain, as a robustness check. *)
  let rng = Crypto.Prng.create 31L in
  let dist =
    Workload.Distribution.zipf (Array.init 200 (fun i -> Printf.sprintf "%04d" i))
  in
  let counts = Hashtbl.create 256 in
  for _ = 1 to 20_000 do
    let v = Workload.Distribution.sample dist rng in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let hist =
    Hashtbl.fold (fun v c acc -> (v, c) :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let cat2 = Secure.Opess.build ~key:"zipf" ~attr_id:1 ~tag:"zipf" hist in
  Printf.printf
    "\nZipf(1.0) domain, %d distinct / %d total values: m=%d; flatness %.4f -> \
     %.3f after split\n"
    (List.length hist)
    (List.fold_left (fun a (_, c) -> a + c) 0 hist)
    (Secure.Opess.chunk_parameter cat2) (flatness hist)
    (flatness (Secure.Opess.ciphertext_histogram cat2))

(* ------------------------------------------------------------------ *)
(* E2 — Figure 9: query performance per scheme per family              *)

let e2 scale =
  header
    (Printf.sprintf
       "E2 (Figure 9): query performance per encryption scheme (%s scale)"
       scale.label);
  List.iter
    (fun ds ->
      Printf.printf "\n[%s] %d nodes, %d bytes serialized\n" ds.name
        (Xmlcore.Doc.node_count ds.doc)
        (String.length (Xmlcore.Printer.doc_to_string ds.doc));
      (* Figure 9 plots three bars per scheme: server query processing,
         client decryption, client post-processing.  compute-ms is
         their sum; transmit is shown for completeness but is not part
         of the paper's figure (their transmission was negligible). *)
      Printf.printf "%-4s %-4s %2s %10s %10s %10s %10s %10s\n" "qry" "schm" "#q"
        "server-ms" "decrypt" "postproc" "compute-ms" "transmit";
      List.iter
        (fun fam ->
          List.iter
            (fun kind ->
              let sys, _ = system_of ds kind in
              let n, p =
                family_cost (ds.name ^ Scheme.kind_to_string kind) sys ds.doc fam
              in
              Printf.printf "%-4s %-4s %2d %10.2f %10.2f %10.2f %10.2f %10.2f\n"
                (Qg.family_to_string fam) (Scheme.kind_to_string kind) n
                p.p_server p.p_decrypt p.p_post
                (p.p_server +. p.p_decrypt +. p.p_post)
                p.p_transmit;
              json_row
                [ "experiment", S "e2";
                  "dataset", S ds.name;
                  "scheme", S (Scheme.kind_to_string kind);
                  "family", S (Qg.family_to_string fam);
                  "queries", I n;
                  "server_ms", F p.p_server;
                  "transmit_ms", F p.p_transmit;
                  "decrypt_ms", F p.p_decrypt;
                  "postprocess_ms", F p.p_post;
                  "total_ms", F p.p_total;
                  "transmit_bytes", F p.p_bytes ])
            Scheme.all_kinds;
          print_newline ())
        [ Qg.Qs; Qg.Qm; Qg.Ql ])
    (datasets scale);
  Printf.printf
    "expected shape: compute-ms decreases top > sub > app >= opt; decryption \
     dominates\nfor coarse schemes; the opt/top gap widens from Qs to Ql.\n"

(* ------------------------------------------------------------------ *)
(* E3 — Figure 10: saving ratios                                       *)

let e3 scale =
  header (Printf.sprintf "E3 (Figure 10): saving ratios (%s scale)" scale.label);
  List.iter
    (fun ds ->
      Printf.printf "\n[%s]\n%-4s %8s %8s %8s %8s\n" ds.name "qry" "Sa/t" "Sa/s"
        "So/t" "So/s";
      List.iter
        (fun fam ->
          (* Ratios over the Figure 9 quantity: server + decrypt +
             post-process (transmission excluded, as in the paper). *)
          let total kind =
            let sys, _ = system_of ds kind in
            let _, p =
              family_cost (ds.name ^ Scheme.kind_to_string kind) sys ds.doc fam
            in
            p.p_server +. p.p_decrypt +. p.p_post
          in
          let tt = total Scheme.Top and ts = total Scheme.Sub in
          let ta = total Scheme.App and topt = total Scheme.Opt in
          let ratio base t = (base -. t) /. base in
          Printf.printf "%-4s %8.2f %8.2f %8.2f %8.2f\n" (Qg.family_to_string fam)
            (ratio tt ta) (ratio ts ta) (ratio tt topt) (ratio ts topt);
          json_row
            [ "experiment", S "e3";
              "dataset", S ds.name;
              "family", S (Qg.family_to_string fam);
              "saving_app_over_top", F (ratio tt ta);
              "saving_app_over_sub", F (ratio ts ta);
              "saving_opt_over_top", F (ratio tt topt);
              "saving_opt_over_sub", F (ratio ts topt) ])
        [ Qg.Qs; Qg.Qm; Qg.Ql ])
    (datasets scale);
  Printf.printf
    "\nexpected shape: ratios grow as the output node nears the leaves (paper: \
     up to\n~0.64 over top, ~0.53 over sub at Ql); app stays within 1.1-1.3x \
     of opt, keeping\nSa close to So.\n"

(* ------------------------------------------------------------------ *)
(* E4 — Section 7.2: division of work                                  *)

let e4 scale =
  header
    (Printf.sprintf "E4 (Section 7.2): division of work, NASA, opt scheme (%s)"
       scale.label);
  let ds = List.nth (datasets scale) 1 in
  let sys, _ = system_of ds Scheme.Opt in
  Printf.printf "%-4s %12s %12s %12s %12s %12s\n" "qry" "translate" "server-ms"
    "transmit" "decrypt" "postprocess";
  List.iter
    (fun fam ->
      let queries = Qg.generate ds.doc fam ~count:queries_per_family in
      let acc = Array.make 5 0.0 in
      List.iter
        (fun q ->
          let _, c = System.evaluate sys q in
          acc.(0) <- acc.(0) +. c.System.translate_ms;
          acc.(1) <- acc.(1) +. c.System.server_ms;
          acc.(2) <- acc.(2) +. c.System.transmit_ms;
          acc.(3) <- acc.(3) +. c.System.decrypt_ms;
          acc.(4) <- acc.(4) +. c.System.postprocess_ms)
        queries;
      let n = float_of_int (max 1 (List.length queries)) in
      Printf.printf "%-4s %12.3f %12.3f %12.3f %12.3f %12.3f\n"
        (Qg.family_to_string fam) (acc.(0) /. n) (acc.(1) /. n) (acc.(2) /. n)
        (acc.(3) /. n) (acc.(4) /. n))
    [ Qg.Qs; Qg.Qm; Qg.Ql; Qg.Qv ];
  Printf.printf
    "\nexpected shape: translation negligible on both sides (paper: <5 ms \
     client,\n~13 ms server at 50 MB); transmission negligible on a fast link.\n"

(* ------------------------------------------------------------------ *)
(* E5 — Section 7.3: secure protocol vs naive method                   *)

let e5 scale =
  header (Printf.sprintf "E5 (Section 7.3): our approach vs naive (%s)" scale.label);
  List.iter
    (fun ds ->
      Printf.printf "\n[%s] ratio = secure total / naive total (lower is better)\n"
        ds.name;
      Printf.printf "%-4s %12s %12s %10s\n" "schm" "secure-ms" "naive-ms" "ratio";
      List.iter
        (fun kind ->
          let sys, _ = system_of ds kind in
          (* Mixed workload across the three paper families. *)
          let queries =
            List.concat_map
              (fun fam -> Qg.generate ds.doc fam ~count:4)
              [ Qg.Qs; Qg.Qm; Qg.Ql ]
          in
          let secure, naive =
            List.fold_left
              (fun (s, nv) q ->
                let _, cs = System.evaluate sys q in
                let _, cn = System.naive_evaluate sys q in
                s +. System.total_ms cs, nv +. System.total_ms cn)
              (0.0, 0.0) queries
          in
          Printf.printf "%-4s %12.1f %12.1f %10.2f\n" (Scheme.kind_to_string kind)
            secure naive (secure /. naive))
        Scheme.all_kinds)
    (datasets scale);
  Printf.printf
    "\nexpected shape: opt/app/sub evaluate in a fraction of naive time \
     (paper: 11%%-28%%);\ntop equals naive (everything ships regardless).\n"

(* ------------------------------------------------------------------ *)
(* E6 — Section 7.4: encryption time and size                          *)

let e6 scale =
  header
    (Printf.sprintf "E6 (Section 7.4): encryption time and encrypted size (%s)"
       scale.label);
  List.iter
    (fun ds ->
      let plain_bytes = String.length (Xmlcore.Printer.doc_to_string ds.doc) in
      Printf.printf "\n[%s] plaintext %d bytes\n" ds.name plain_bytes;
      Printf.printf "%-4s %8s %12s %12s %12s %12s\n" "schm" "blocks" "enc-ms"
        "cipher-B" "server-B" "metadata-B";
      List.iter
        (fun kind ->
          let sys, cost = system_of ds kind in
          Printf.printf "%-4s %8d %12.1f %12d %12d %12d\n"
            (Scheme.kind_to_string kind) cost.System.block_count
            cost.System.encrypt_ms
            (Secure.Encrypt.encrypted_bytes (System.db sys))
            cost.System.server_data_bytes cost.System.metadata_bytes)
        Scheme.all_kinds)
    (datasets scale);
  Printf.printf
    "\nexpected shape: app encrypts the most elements when its cover is \
     larger; sub\nproduces the largest ciphertext (per-block headers on big \
     blocks); opt is best\non both axes; top has one big block.\n"

(* ------------------------------------------------------------------ *)
(* E7 — theorem validation                                             *)

let e7 () =
  header "E7: candidate counts and attacker belief (Theorems 4.1/5.1/5.2/6.1)";
  let doc = Workload.Health.generate ~patients:300 () in
  Printf.printf "300-patient hospital database\n\n";
  Printf.printf "Theorem 4.1 — per-attribute candidate databases (multinomial):\n";
  List.iter
    (fun (tag, hist) ->
      let ks = List.map snd hist in
      let log10 = Secure.Counting.log_multinomial ks /. log 10.0 in
      Printf.printf "  %-12s k=%-3d total=%-5d candidates ~ 10^%.0f\n" tag
        (List.length ks)
        (List.fold_left ( + ) 0 ks)
        log10)
    (Xmlcore.Stats.all_histograms doc);
  Printf.printf "\nTheorem 5.2 — value-index candidate mappings C(n-1, k-1):\n";
  List.iter
    (fun (tag, hist) ->
      let cat = Secure.Opess.build ~key:"e7" ~attr_id:0 ~tag hist in
      let k = List.length hist in
      let n = List.length (Secure.Opess.ciphertext_histogram cat) in
      Printf.printf "  %-12s k=%-3d n=%-4d candidates ~ 10^%.1f\n" tag k n
        (Secure.Counting.log_compositions_count ~n ~k /. log 10.0))
    (Xmlcore.Stats.all_histograms doc);
  (* Theorem 5.1: structural candidates from block grouping under the
     coarse sub scheme (whole patient records encrypted). *)
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Scheme.Sub in
  let db = System.db sys in
  let log10_structural =
    List.fold_left
      (fun acc b ->
        let root = b.Secure.Encrypt.root in
        let leaves =
          List.filter
            (fun n -> Xmlcore.Doc.is_leaf doc n)
            (Xmlcore.Doc.descendant_or_self doc root)
        in
        let n = List.length leaves in
        (* Grouping makes k < n intervals visible for the block. *)
        let k = max 1 (n - 2) in
        if n >= 2 then
          acc +. (Secure.Counting.log_compositions_count ~n ~k /. log 10.0)
        else acc)
      0.0 db.Secure.Encrypt.blocks
  in
  Printf.printf
    "\nTheorem 5.1 — structural candidates over %d sub-scheme blocks: ~10^%.0f\n"
    (List.length db.Secure.Encrypt.blocks)
    log10_structural;
  (* Constructive check on the paper's running example: enumerate the
     actual candidate databases and compare what the attacker sees. *)
  let hdoc = Workload.Health.doc () in
  let report =
    Secure.Candidates.indistinguishability_report ~master:"e7"
      ~constraints:(Workload.Health.constraints ()) ~kind:Scheme.Opt
      ~tag:"disease" ~limit:12 hdoc
  in
  Printf.printf
    "\nDefinition 3.1/3.3, constructively (Figure 2 database, disease \
     attribute):\n\
    \  %d candidate databases enumerated; schema-conformant: %b;\n\
    \  equal encrypted sizes: %b; equal index histograms: %b;\n\
    \  candidates containing every protected association: %d (must be 1)\n"
    report.Secure.Candidates.candidates report.Secure.Candidates.all_conform
    report.Secure.Candidates.equal_sizes
    report.Secure.Candidates.equal_index_histograms
    report.Secure.Candidates.satisfying_original;
  Printf.printf "\nTheorem 6.1 — attacker belief per association after q queries:\n";
  let hist = Xmlcore.Stats.value_histogram doc ~tag:"disease" in
  let cat = Secure.Opess.build ~key:"e7b" ~attr_id:0 ~tag:"disease" hist in
  let k = List.length hist in
  let n = List.length (Secure.Opess.ciphertext_histogram cat) in
  Printf.printf "  disease: k=%d n=%d: %s\n" k n
    (String.concat " -> "
       (List.map (Printf.sprintf "%.2e")
          (Secure.Attack.belief_sequence ~k ~n ~queries:4)));
  Printf.printf "\nFrequency attack crack rates (Section 4.1's motivation):\n";
  List.iter
    (fun tag ->
      let known = Xmlcore.Stats.value_histogram doc ~tag in
      if known <> [] then begin
        let broken =
          Secure.Attack.frequency_attack ~known
            ~observed:(Secure.Attack.deterministic_leaf_histogram known)
        in
        let cat = Secure.Opess.build ~key:"e7c" ~attr_id:0 ~tag known in
        let secured =
          Secure.Attack.frequency_attack ~known
            ~observed:(Secure.Opess.scaled_histogram cat)
        in
        Printf.printf "  %-12s naive %3.0f%%  opess %3.0f%%\n" tag
          (100.0 *. broken.Secure.Attack.crack_rate)
          (100.0 *. secured.Secure.Attack.crack_rate)
      end)
    [ "disease"; "doctor"; "pname"; "@coverage"; "age" ];
  Printf.printf
    "\nexpected shape: candidate counts exponentially large; belief never \
     increases;\nnaive crack rates high, OPESS crack rates ~0.\n"

(* ------------------------------------------------------------------ *)
(* E8 — ablations of the design choices DESIGN.md calls out            *)

let e8 () =
  header "E8 (ablations): what each mechanism buys";
  (* (a) Scaling: the re-aggregation (coalescing) attack against
     split-only vs split+scaled index distributions. *)
  Printf.printf "(a) scaling vs the coalescing attack\n";
  Printf.printf "%-22s %14s %14s\n" "attribute" "split-only" "split+scale";
  let doc = Workload.Health.generate ~patients:300 () in
  List.iter
    (fun tag ->
      let hist = Xmlcore.Stats.value_histogram doc ~tag in
      if hist <> [] then begin
        let cat = Secure.Opess.build ~key:"e8" ~attr_id:0 ~tag hist in
        (* known frequencies in the index's (numeric) order *)
        let known_ordered =
          List.map
            (fun e -> e.Secure.Opess.value, e.Secure.Opess.count)
            (Secure.Opess.entries cat)
        in
        let describe observed =
          let r = Secure.Attack.coalescing_attack ~known:known_ordered ~observed in
          if r.Secure.Attack.unique then "CRACKED"
          else Printf.sprintf "%d partitions" r.Secure.Attack.valid_partitions
        in
        Printf.printf "%-22s %14s %14s\n" tag
          (describe (Secure.Opess.ciphertext_histogram cat))
          (describe (Secure.Opess.scaled_histogram cat))
      end)
    [ "disease"; "doctor"; "@coverage"; "age" ];
  (* (b) Decoys: byte overhead they add to the encrypted database. *)
  Printf.printf "\n(b) decoy overhead (opt scheme, healthcare doc)\n";
  let scs = Workload.Health.constraints () in
  let keys = Crypto.Keys.create ~master:"e8" () in
  let scheme = Scheme.build doc scs Scheme.Opt in
  let db = Secure.Encrypt.encrypt ~keys doc scheme in
  let decoy_blocks =
    List.length (List.filter (fun b -> b.Secure.Encrypt.has_decoy) db.Secure.Encrypt.blocks)
  in
  Printf.printf
    "  %d of %d blocks carry decoys; ciphertext total %d bytes (~%d decoy bytes)\n"
    decoy_blocks
    (List.length db.Secure.Encrypt.blocks)
    (Secure.Encrypt.encrypted_bytes db)
    (decoy_blocks * 16);
  (* (c) DSI grouping: index-size effect.  Grouping collapses runs of
     adjacent same-tag siblings inside one block, so it only bites for
     coarse schemes (opt's single-leaf blocks have nothing to group). *)
  Printf.printf "\n(c) DSI grouping (table intervals; %d nodes in the document)\n"
    (Xmlcore.Doc.node_count doc);
  List.iter
    (fun kind ->
      let scheme = Scheme.build doc scs kind in
      let db = Secure.Encrypt.encrypt ~keys doc scheme in
      let meta = Secure.Metadata.build ~keys db in
      Printf.printf "  %-4s %6d intervals\n" (Scheme.kind_to_string kind)
        (Secure.Metadata.table_entry_count meta))
    Scheme.all_kinds;
  (* (d) B-tree min_degree sweep. *)
  Printf.printf "\n(d) B-tree min_degree sweep (100k inserts + 1k range scans)\n";
  Printf.printf "  %6s %10s %8s %12s %12s\n" "t" "height" "nodes" "build-ms" "scan-ms";
  List.iter
    (fun degree ->
      let tree = Btree.create ~min_degree:degree () in
      let rng = Crypto.Prng.create 5L in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to 100_000 do
        Btree.insert tree (Int64.of_int (Crypto.Prng.int rng 1_000_000)) 0
      done;
      let t1 = Unix.gettimeofday () in
      for i = 1 to 1_000 do
        ignore (Btree.range tree ~lo:(Int64.of_int (i * 500)) ~hi:(Int64.of_int ((i * 500) + 2_000)))
      done;
      let t2 = Unix.gettimeofday () in
      Printf.printf "  %6d %10d %8d %12.1f %12.1f\n" degree (Btree.height tree)
        (Btree.node_count tree)
        ((t1 -. t0) *. 1000.0)
        ((t2 -. t1) *. 1000.0))
    [ 2; 4; 8; 16; 32; 64 ];
  (* (e) Per-block header size: where sub overtakes top in stored bytes. *)
  Printf.printf "\n(e) per-block header overhead (XMark, stored ciphertext bytes)\n";
  let xdoc = Workload.Xmark.generate ~persons:800 () in
  let xscs = Workload.Xmark.constraints () in
  let payload_bytes kind =
    let scheme = Scheme.build xdoc xscs kind in
    let db = Secure.Encrypt.encrypt ~keys xdoc scheme in
    let raw =
      List.fold_left
        (fun acc b -> acc + String.length b.Secure.Encrypt.ciphertext)
        0 db.Secure.Encrypt.blocks
    in
    raw, List.length db.Secure.Encrypt.blocks
  in
  let raw_opt, n_opt = payload_bytes Scheme.Opt in
  let raw_sub, n_sub = payload_bytes Scheme.Sub in
  let raw_top, n_top = payload_bytes Scheme.Top in
  Printf.printf "  %8s %6s %6s %6s\n" "header-B" "opt" "sub" "top";
  List.iter
    (fun h ->
      Printf.printf "  %8d %6d %6d %6d\n" h
        ((raw_opt + (n_opt * h)) / 1024)
        ((raw_sub + (n_sub * h)) / 1024)
        ((raw_top + (n_top * h)) / 1024))
    [ 0; 30; 60; 120; 240; 480 ];
  Printf.printf
    "  (KiB; opt's many tiny blocks pay the header, sub's big blocks carry \
     duplicate\n   subtree bytes, top pays neither — the paper's size ordering \
     emerges from the\n   header term)\n";
  (* (f) DSI vs the continuous interval baseline (Section 5.1.1): does
     grouping leak? *)
  Printf.printf "\n(f) grouping leakage: continuous index vs DSI\n";
  let hdoc = Workload.Health.doc () in
  let cont = Dsi.Continuous.assign hdoc in
  let dsi = Dsi.Assign.assign ~key:"e8f" hdoc in
  let insurance =
    List.find
      (fun n -> List.length (Xmlcore.Doc.children hdoc n) = 3)
      (Xmlcore.Doc.nodes_with_tag hdoc "insurance")
  in
  let children = Xmlcore.Doc.children hdoc insurance in
  let policies = List.filter (fun n -> Xmlcore.Doc.tag hdoc n = "policy#") children in
  let others = List.filter (fun n -> Xmlcore.Doc.tag hdoc n <> "policy#") children in
  let leak interval_of parent_iv =
    let hull =
      List.fold_left
        (fun acc n -> Dsi.Interval.hull acc (interval_of n))
        (interval_of (List.hd policies))
        policies
    in
    Dsi.Continuous.grouping_leak ~parent:parent_iv
      ~child_intervals:(hull :: List.map interval_of others)
  in
  Printf.printf "  continuous index: grouping detected = %b\n"
    (leak (Dsi.Continuous.interval cont) (Dsi.Continuous.interval cont insurance));
  Printf.printf "  DSI index:        grouping detected = %b\n"
    (leak (Dsi.Assign.interval dsi) (Dsi.Assign.interval dsi insurance));
  (* (g) tag-distribution attacker (the paper's stated non-goal). *)
  Printf.printf "\n(g) tag-distribution attack (outside the threat model, Section 8)\n";
  let meta2 = Secure.Metadata.build ~keys db in
  let observed =
    List.map (fun (token, ivs) -> token, List.length ivs) meta2.Secure.Metadata.dsi_table
  in
  let r =
    Secure.Attack.tag_distribution_attack
      ~known_census:(Xmlcore.Stats.tag_census doc) ~observed
  in
  Printf.printf
    "  %d/%d tags re-identified by a census-equipped attacker — confirming \
     the paper's\n  declared limitation (grouping only partially erodes the \
     signal)\n"
    (List.length r.Secure.Attack.identified)
    r.Secure.Attack.tag_domain;
  (* (h) update cost: the re-host strategy pays full setup per edit. *)
  Printf.printf "\n(h) update cost (re-host strategy)\n";
  let scs_h = Workload.Health.constraints () in
  List.iter
    (fun patients ->
      let doc = Workload.Health.generate ~patients () in
      let sys, setup0 = System.setup doc scs_h Scheme.Opt in
      let t0 = Unix.gettimeofday () in
      let _sys2, _ =
        System.update sys
          (Secure.Update.Set_value (Xpath.Parser.parse "//patient/age", "50"))
      in
      ignore setup0;
      Printf.printf "  %6d patients: re-host %.0f ms\n" patients
        ((Unix.gettimeofday () -. t0) *. 1000.0))
    [ 50; 200; 800 ];
  Printf.printf
    "  (linear in document size — the cost an incremental protocol built on \
     the DSI\n   gaps, cf. Dsi.Assign.interval_in_gap, would avoid)\n";
  (* (i) cipher suites: XTEA (paper-era stand-in) vs AES-128 (what W3C
     XML-Encryption deployments used). *)
  Printf.printf "\n(i) block-cipher suite comparison (1 MiB CBC)\n";
  let payload = String.init (1024 * 1024) (fun i -> Char.chr (i land 0xFF)) in
  List.iter
    (fun suite ->
      let prepared = Crypto.Cipher.prepare suite "bench-key" in
      let t0 = Unix.gettimeofday () in
      let ct = Crypto.Cipher.encrypt prepared ~nonce:"n" payload in
      let t1 = Unix.gettimeofday () in
      ignore (Crypto.Cipher.decrypt prepared ~nonce:"n" ct);
      let t2 = Unix.gettimeofday () in
      Printf.printf "  %-5s encrypt %6.1f MB/s   decrypt %6.1f MB/s\n"
        (Crypto.Cipher.suite_to_string suite)
        (1.0 /. (t1 -. t0))
        (1.0 /. (t2 -. t1)))
    [ Crypto.Cipher.Xtea; Crypto.Cipher.Aes ];
  let hdoc2 = Workload.Health.generate ~patients:200 () in
  List.iter
    (fun suite ->
      let _, cost =
        System.setup ~master:"e8i" ~cipher:suite hdoc2
          (Workload.Health.constraints ()) Scheme.Opt
      in
      Printf.printf "  %-5s full setup: encrypt %.1f ms, server data %d bytes\n"
        (Crypto.Cipher.suite_to_string suite) cost.System.encrypt_ms
        cost.System.server_data_bytes)
    [ Crypto.Cipher.Xtea; Crypto.Cipher.Aes ];
  (* (j) value-index policy: metadata size vs value-query cost. *)
  Printf.printf "\n(j) value-index policy (200-patient hospital, opt scheme)\n";
  let scs_j = Workload.Health.constraints () in
  let q = Xpath.Parser.parse "//patient[age>=60]/pname" in
  List.iter
    (fun (label, policy) ->
      let sys, cost = System.setup ~master:"e8j" ~value_index:policy hdoc2 scs_j Scheme.Opt in
      let answers, qcost = System.evaluate sys q in
      Printf.printf
        "  %-14s metadata %8d B, btree %6d entries; age>=60 query %6.2f ms \
         (%d blocks, %d answers)\n"
        label cost.System.metadata_bytes
        (Secure.Metadata.btree_entry_count (System.metadata sys))
        (System.total_ms qcost) qcost.System.blocks_returned
        (List.length answers))
    [ "all-leaves", Secure.Metadata.All_leaves;
      "encrypted-only", Secure.Metadata.Encrypted_only ]

(* ------------------------------------------------------------------ *)
(* E9: robustness — the protocol under transport faults                *)

(* Runs the same seeded query workload across a grid of fault profiles
   and reports what the session layer paid to keep answers exact:
   attempts per call, retransmitted bytes, faults absorbed, replay-cache
   hits, and how often the metadata path degraded to the naive
   fallback. *)
let e9 () =
  header "e9: robustness under transport faults (session layer overhead)";
  let doc = Workload.Health.generate ~patients:120 () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup ~master:"e9" doc scs Scheme.Opt in
  let queries =
    List.concat_map
      (fun fam -> Qg.generate ~seed:9L doc fam ~count:15)
      Qg.all_families
  in
  Printf.printf "workload: %d queries over a %d-patient hospital document\n\n"
    (List.length queries) 120;
  Printf.printf "%-28s %8s %9s %9s %8s %8s %9s\n" "profile" "attempts"
    "retx B" "absorbed" "replays" "degraded" "overhead";
  let baseline_ms = ref 0.0 in
  List.iter
    (fun (label, profile) ->
      let faulty =
        System.with_faults ~profile ~seed:99L sys
      in
      let t0 = Unix.gettimeofday () in
      let costs = List.map (fun q -> snd (System.evaluate faulty q)) queries in
      let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      if !baseline_ms = 0.0 then baseline_ms := elapsed_ms;
      let sum f = List.fold_left (fun acc c -> acc + f c) 0 costs in
      let attempts = sum (fun c -> c.System.attempts) in
      let retx = sum (fun c -> c.System.retransmitted_bytes) in
      let absorbed = sum (fun c -> c.System.faults_absorbed) in
      let degraded =
        List.length (List.filter (fun c -> c.System.degraded) costs)
      in
      let replays = (System.endpoint_stats faulty).Secure.Session.replayed in
      Printf.printf "%-28s %8.2f %9d %9d %8d %7d%% %8.2fx\n" label
        (float_of_int attempts /. float_of_int (List.length costs))
        retx absorbed replays
        (100 * degraded / List.length costs)
        (elapsed_ms /. !baseline_ms))
    [ "calm", Secure.Transport.calm;
      "drop 5%", Secure.Transport.chaos ~drop:0.05 ();
      "drop 20%", Secure.Transport.chaos ~drop:0.20 ();
      ( "corrupt 5%",
        Secure.Transport.chaos ~flip:0.05 ~truncate:0.05 () );
      ( "corrupt 20%",
        Secure.Transport.chaos ~flip:0.20 ~truncate:0.20 () );
      "duplicate 20%", Secure.Transport.chaos ~duplicate:0.20 ();
      ( "lossy mix (5% each)",
        Secure.Transport.chaos ~drop:0.05 ~flip:0.05 ~truncate:0.05
          ~duplicate:0.05 ~reorder:0.05 () );
      ( "hostile mix (20% each)",
        Secure.Transport.chaos ~drop:0.20 ~flip:0.20 ~truncate:0.20
          ~duplicate:0.20 ~reorder:0.20 () ) ];
  (* Exactness is asserted in test_chaos; here we just confirm it held
     on the hostile profile for the benchmark workload too. *)
  let hostile =
    System.with_faults
      ~profile:
        (Secure.Transport.chaos ~drop:0.20 ~flip:0.20 ~truncate:0.20
           ~duplicate:0.20 ~reorder:0.20 ())
      ~seed:7L sys
  in
  let exact =
    List.for_all
      (fun q ->
        fst (System.evaluate hostile q) = fst (System.evaluate sys q))
      queries
  in
  Printf.printf "\nanswers under hostile mix byte-exact vs calm run: %b\n" exact

(* ------------------------------------------------------------------ *)
(* E10: the engine's plan/result/block caches on a repeated workload    *)

(* A client that re-issues the same queries is the cache's natural
   workload.  Measures server+decrypt ms cold (first touch of each
   distinct query) vs warm (four further passes), checks answers are
   identical across warm engine / caches-disabled engine /
   System.evaluate reference, and exercises update invalidation: after
   a System.update of the engine's hosting the first query must miss
   and still agree with the reference on the re-hosted system. *)
let e10 scale =
  header
    (Printf.sprintf
       "E10: engine caches on a repeated workload, opt scheme (%s scale)"
       scale.label);
  List.iter
    (fun ds ->
      (* Fresh hosting (not [system_of]'s cache): the invalidation leg
         re-hosts, and other experiments must keep their snapshot. *)
      let sys, _ = System.setup ds.doc ds.scs Scheme.Opt in
      let distinct =
        List.sort_uniq compare
          (List.concat_map
             (fun fam -> Qg.generate ~seed:10L ds.doc fam ~count:4)
             [ Qg.Qs; Qg.Qm; Qg.Ql; Qg.Qv ])
      in
      (* The block working set of this workload exceeds the default
         256-entry client cache (opt blocks are single leaves), which
         would turn every warm pass into LRU thrashing; model a client
         whose cache holds the working set. *)
      let engine =
        Engine.create
          ~config:{ Engine.default_config with Engine.block_capacity = 65_536 }
          sys
      in
      let off =
        Engine.create
          ~config:{ Engine.default_config with Engine.caches = false } sys
      in
      let pass eng = List.map (fun q -> snd (Engine.evaluate_report eng q)) distinct in
      let cold = pass engine in
      let warm_passes = 4 in
      let warm = List.concat (List.init warm_passes (fun _ -> pass engine)) in
      let mean rs f =
        List.fold_left (fun a r -> a +. f r) 0.0 rs
        /. float_of_int (max 1 (List.length rs))
      in
      let cold_ms = mean cold Engine.server_decrypt_ms in
      let warm_ms = mean warm Engine.server_decrypt_ms in
      let cold_bytes = mean cold (fun r -> float_of_int r.Engine.transmit_bytes) in
      let warm_bytes = mean warm (fun r -> float_of_int r.Engine.transmit_bytes) in
      let speedup = cold_ms /. Float.max warm_ms 1e-6 in
      (* Answer equality: warm engine = caches-off engine = reference. *)
      let exact =
        List.for_all
          (fun q ->
            let reference = fst (System.evaluate sys q) in
            Engine.evaluate engine q = reference
            && Engine.evaluate off q = reference)
          distinct
      in
      if not exact then
        failwith (Printf.sprintf "e10 [%s]: engine answers differ from reference" ds.name);
      (* Invalidation: re-host the engine's hosting (the engine follows
         it), then the very next query must be a result-cache miss and
         still exact. *)
      let before = (Engine.stats engine).Engine.Stats.invalidations in
      let root_tag = Xmlcore.Doc.tag ds.doc (Xmlcore.Doc.root ds.doc) in
      let _next, _cost =
        System.update sys
          (Secure.Update.Insert_child
             { parent = Xpath.Parser.parse ("/" ^ root_tag);
               position = 0;
               subtree =
                 Xmlcore.Tree.element "probe" [ Xmlcore.Tree.leaf "stamp" "1" ] })
      in
      let post_q = List.hd distinct in
      let post_answers, post_report = Engine.evaluate_report engine post_q in
      let stats = Engine.stats engine in
      if stats.Engine.Stats.invalidations <= before then
        failwith (Printf.sprintf "e10 [%s]: update did not invalidate the caches" ds.name);
      if post_report.Engine.result_outcome <> Engine.Miss then
        failwith
          (Printf.sprintf "e10 [%s]: first post-update query served from cache" ds.name);
      if post_answers <> fst (System.evaluate (Engine.system engine) post_q) then
        failwith
          (Printf.sprintf "e10 [%s]: post-update answers differ from reference" ds.name);
      Printf.printf
        "[%s] %d distinct queries x (1 cold + %d warm passes)\n\
        \  server+decrypt: cold %8.3f ms -> warm %8.3f ms   (speedup %.1fx)\n\
        \  transmitted:    cold %8.0f B  -> warm %8.0f B\n\
        \  hit rates: plan %.2f  result %.2f  block %.2f; invalidations %d; \
         post-update exact: yes\n\n"
        ds.name (List.length distinct) warm_passes cold_ms warm_ms speedup
        cold_bytes warm_bytes
        (Engine.Stats.plan_hit_rate stats)
        (Engine.Stats.result_hit_rate stats)
        (Engine.Stats.block_hit_rate stats)
        stats.Engine.Stats.invalidations;
      json_row
        [ "experiment", S "e10";
          "dataset", S ds.name;
          "scheme", S (Scheme.kind_to_string Scheme.Opt);
          "distinct_queries", I (List.length distinct);
          "warm_passes", I warm_passes;
          "cold_server_decrypt_ms", F cold_ms;
          "warm_server_decrypt_ms", F warm_ms;
          "speedup", F speedup;
          "cold_transmit_bytes", F cold_bytes;
          "warm_transmit_bytes", F warm_bytes;
          "plan_hit_rate", F (Engine.Stats.plan_hit_rate stats);
          "result_hit_rate", F (Engine.Stats.result_hit_rate stats);
          "block_hit_rate", F (Engine.Stats.block_hit_rate stats);
          "answers_exact", B exact ];
      (* The ISSUE's acceptance bar; tiny runs are noise-dominated, so
         only the equality assertions gate there. *)
      if scale.label <> "tiny" && speedup < 2.0 then
        failwith
          (Printf.sprintf "e10 [%s]: warm speedup %.2fx below the 2x bar" ds.name
             speedup))
    (datasets scale);
  Printf.printf
    "expected shape: warm passes hit the result memo and block cache, so \
     server+decrypt\nms and shipped bytes collapse; an update flushes \
     everything and answers stay exact.\n"

(* ------------------------------------------------------------------ *)
(* E11: domain-pool scaling                                            *)

(* Hosting (block encryption + OPESS/B-tree bulk load) and a batched
   query workload, sequential vs a 1/2/4-domain pool.  Parallelism must
   be invisible in everything but wall-clock: ciphertext bytes,
   serialized answers, transmitted bytes and blocks returned are
   asserted byte-identical to the sequential reference at every pool
   size. *)
let e11 scale =
  header
    (Printf.sprintf
       "E11: domain-pool scaling of hosting and batched queries (%s scale)"
       scale.label);
  List.iter
    (fun ds ->
      (* Sequential reference: fresh hosting (not [system_of]'s cache)
         so the cold host time is honest and other experiments keep
         their snapshot. *)
      let t0 = Unix.gettimeofday () in
      let ref_sys, _ = System.setup ds.doc ds.scs Scheme.Opt in
      let seq_host_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let queries =
        Array.of_list
          (List.concat_map
             (fun fam -> Qg.generate ~seed:11L ds.doc fam ~count:4)
             [ Qg.Qs; Qg.Qm; Qg.Ql; Qg.Qv ])
      in
      let serialize trees = List.map Xmlcore.Printer.tree_to_string trees in
      let ciphertexts sys =
        List.map
          (fun b -> b.Secure.Encrypt.ciphertext)
          (System.db sys).Secure.Encrypt.blocks
      in
      let t0 = Unix.gettimeofday () in
      let reference = Array.map (System.evaluate ref_sys) queries in
      let seq_batch_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let ref_cipher = ciphertexts ref_sys in
      let host_ms_1 = ref Float.nan in
      List.iter
        (fun domains ->
          let pool = Parallel.Pool.create ~domains () in
          Fun.protect
            ~finally:(fun () -> Parallel.Pool.shutdown pool)
            (fun () ->
              let t0 = Unix.gettimeofday () in
              let sys, _ = System.setup ~pool ds.doc ds.scs Scheme.Opt in
              let host_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
              if domains = 1 then host_ms_1 := host_ms;
              if ciphertexts sys <> ref_cipher then
                failwith
                  (Printf.sprintf
                     "e11 [%s, %d domains]: ciphertext bytes differ from \
                      sequential hosting"
                     ds.name domains);
              let t0 = Unix.gettimeofday () in
              let batch = System.evaluate_batch sys queries in
              let batch_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
              Array.iteri
                (fun i (answers, cost) ->
                  let ref_answers, ref_cost = reference.(i) in
                  if serialize answers <> serialize ref_answers then
                    failwith
                      (Printf.sprintf
                         "e11 [%s, %d domains]: answers differ from the \
                          sequential reference (query %d)"
                         ds.name domains i);
                  if cost.System.transmit_bytes <> ref_cost.System.transmit_bytes
                  then
                    failwith
                      (Printf.sprintf
                         "e11 [%s, %d domains]: wire traffic differs from the \
                          sequential reference (query %d)"
                         ds.name domains i);
                  if
                    cost.System.blocks_returned
                    <> ref_cost.System.blocks_returned
                  then
                    failwith
                      (Printf.sprintf
                         "e11 [%s, %d domains]: blocks returned differ from \
                          the sequential reference (query %d)"
                         ds.name domains i);
                  if cost.System.degraded then
                    failwith
                      (Printf.sprintf
                         "e11 [%s, %d domains]: batch lane degraded (query %d)"
                         ds.name domains i))
                batch;
              let host_speedup = !host_ms_1 /. Float.max host_ms 1e-6 in
              let batch_speedup = seq_batch_ms /. Float.max batch_ms 1e-6 in
              Printf.printf
                "[%s] %d domain(s): host %8.1f ms (%.2fx vs 1 domain)   \
                 batch of %d queries %8.1f ms (%.2fx vs sequential)   exact: \
                 yes\n"
                ds.name domains host_ms host_speedup (Array.length queries)
                batch_ms batch_speedup;
              json_row
                [ "experiment", S "e11";
                  "dataset", S ds.name;
                  "scheme", S (Scheme.kind_to_string Scheme.Opt);
                  "domains", I domains;
                  "queries", I (Array.length queries);
                  "seq_host_ms", F seq_host_ms;
                  "host_ms", F host_ms;
                  "host_speedup", F host_speedup;
                  "seq_batch_ms", F seq_batch_ms;
                  "batch_ms", F batch_ms;
                  "batch_speedup", F batch_speedup;
                  "answers_exact", B true ];
              (* The ISSUE's acceptance bar.  Tiny runs are
                 noise-dominated, and on machines without at least four
                 cores extra domains only add scheduling overhead, so
                 only the equality assertions gate there. *)
              if
                scale.label <> "tiny" && domains >= 4
                && Parallel.Pool.recommended_domains () >= 4
                && host_speedup < 1.5
              then
                failwith
                  (Printf.sprintf
                     "e11 [%s]: %d-domain host speedup %.2fx below the 1.5x bar"
                     ds.name domains host_speedup)))
        [ 1; 2; 4 ])
    (datasets scale);
  Printf.printf
    "expected shape: hosting and batch times shrink with the domain count \
     while every\nbyte the server sees or returns stays identical to the \
     sequential run.\n"

(* ------------------------------------------------------------------ *)
(* E12: observability overhead when disabled                           *)

(* The obs instrumentation is compiled in unconditionally; the whole
   budget of a disabled sink is one boolean test per site.  This
   experiment measures that per-site cost directly, counts the sites a
   real query actually crosses (every instrument update, span, event
   and ledger round corresponds to exactly one always-on guard), and
   asserts the product stays under 3% of the measured e2/e3 query path
   with all sinks off. *)
let e12 scale =
  header
    (Printf.sprintf "E12: disabled-observability overhead bound (%s scale)"
       scale.label);
  (* 1. Per-site cost: a tight loop of [incr] on a disabled registry,
     long enough to defeat timer granularity. *)
  let reg = Obs.Metric.create () in
  let site = Obs.Metric.counter reg "e12.site" in
  let iters = 20_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    Obs.Metric.incr site
  done;
  let per_site_ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
  Printf.printf "disabled instrument site: %.2f ns (loop of %dM)\n\n" per_site_ns
    (iters / 1_000_000);
  List.iter
    (fun ds ->
      let sys, _ = system_of ds Scheme.Opt in
      let queries =
        List.concat_map
          (fun fam -> Qg.generate ds.doc fam ~count:queries_per_family)
          [ Qg.Qs; Qg.Qm; Qg.Ql ]
      in
      let nq = List.length queries in
      (* 2. Sites per query: turn every sink on, replay the workload
         once, and count what they saw. *)
      let tracer = System.tracer sys and ledger = System.ledger sys in
      Obs.Metric.set_enabled Obs.Metric.default true;
      Obs.Metric.reset Obs.Metric.default;
      Obs.Trace.set_enabled tracer true;
      Obs.Trace.clear tracer;
      Obs.Ledger.set_enabled ledger true;
      Obs.Ledger.clear ledger;
      List.iter (fun q -> ignore (System.evaluate sys q)) queries;
      let rec nodes (n : Obs.Trace.node) =
        1 + List.fold_left (fun acc c -> acc + nodes c) 0 n.Obs.Trace.children
      in
      let spans =
        List.fold_left (fun acc r -> acc + nodes r) 0 (Obs.Trace.roots tracer)
      in
      let sites =
        Obs.Metric.ops Obs.Metric.default + spans + Obs.Ledger.count ledger
      in
      Obs.Metric.set_enabled Obs.Metric.default false;
      Obs.Metric.reset Obs.Metric.default;
      Obs.Trace.set_enabled tracer false;
      Obs.Trace.clear tracer;
      Obs.Ledger.set_enabled ledger false;
      Obs.Ledger.clear ledger;
      let sites_per_query = float_of_int sites /. float_of_int (max 1 nq) in
      (* 3. The instrumented path with every sink off — exactly what e2
         and e3 measure: median compute-ms (server + decrypt +
         post-process) per query. *)
      let compute =
        List.sort Float.compare
          (List.map
             (fun q ->
               let p = avg_cost sys q in
               p.p_server +. p.p_decrypt +. p.p_post)
             queries)
      in
      let median_ms = List.nth compute (nq / 2) in
      let overhead_ms = sites_per_query *. per_site_ns /. 1e6 in
      let pct = 100.0 *. overhead_ms /. Float.max median_ms 1e-9 in
      Printf.printf
        "[%s] %d queries: %.0f sites/query x %.2f ns = %.6f ms overhead vs \
         median compute %.3f ms (%.4f%%)\n"
        ds.name nq sites_per_query per_site_ns overhead_ms median_ms pct;
      json_row
        [ "experiment", S "e12";
          "dataset", S ds.name;
          "scheme", S (Scheme.kind_to_string Scheme.Opt);
          "queries", I nq;
          "sites_per_query", F sites_per_query;
          "per_site_ns", F per_site_ns;
          "overhead_ms", F overhead_ms;
          "median_compute_ms", F median_ms;
          "overhead_pct", F pct ];
      if overhead_ms >= 0.03 *. median_ms then
        failwith
          (Printf.sprintf
             "e12 [%s]: disabled-instrumentation overhead %.4f%% breaches the \
              3%% bound"
             ds.name pct))
    (datasets scale);
  Printf.printf
    "expected shape: a handful of nanoseconds per query against a \
     millisecond-scale\npath — three orders of magnitude inside the 3%% \
     acceptance bound.\n"

(* ------------------------------------------------------------------ *)
(* E13: multi-tenant serving tier under an offered-load sweep          *)

(* N independent hostings behind one serving tier, mixed workload per
   tenant, offered load (submissions per tenant per round) swept across
   the admission limit (the token bucket's sustained refill rate).  At
   or below the limit every submission is admitted and served; above
   it the bounded queue pushes back with typed Overloaded rejections
   while per-tenant latency stays flat — the tier sheds load instead of
   queueing without bound.  Both halves are asserted, and the sweep is
   the repo's first serving-tier baseline (BENCH_1.json). *)
let e13 scale =
  header
    (Printf.sprintf
       "E13: multi-tenant admission control under offered load (%s scale)"
       scale.label);
  let patients = if scale.label = "tiny" then 4 else 10 in
  let ids = [ "tenant-a"; "tenant-b"; "tenant-c"; "tenant-d" ] in
  let hostings =
    List.map
      (fun id ->
        let doc = Workload.Health.generate ~patients () in
        let scs = Workload.Health.constraints () in
        id, fst (System.setup ~master:("e13-" ^ id) doc scs Scheme.Opt))
      ids
  in
  let queries =
    Array.of_list
      (List.map Xpath.Parser.parse
         [ "//patient/pname"; "//patient[age>=50]/pname"; "//treat/doctor";
           "//SSN" ])
  in
  let rounds = 8 in
  let refill = 2 and queue_depth = 4 in
  Printf.printf
    "%d tenants, %d rounds; bucket refill %d/round (the admission limit), \
     queue depth %d\n\n"
    (List.length ids) rounds refill queue_depth;
  Printf.printf "%-10s %-10s %9s %9s %9s %9s %9s %9s\n" "offered/rd" "tenant"
    "accepted" "served" "rejected" "rej_rate" "p50_ms" "p95_ms";
  List.iter
    (fun offered ->
      let config =
        { Serve.default_config with
          Serve.queue_depth;
          bucket_capacity = refill;
          refill_per_round = refill;
          max_inflight = 64 }
      in
      let srv = Serve.create ~config () in
      List.iter (fun (id, sys) -> Serve.register srv ~id sys) hostings;
      let latencies = Hashtbl.create 8 in
      let accepted = Hashtbl.create 8 and rejected = Hashtbl.create 8 in
      let bump tbl id =
        Hashtbl.replace tbl id
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id))
      in
      let count tbl id = Option.value ~default:0 (Hashtbl.find_opt tbl id) in
      let note completions =
        List.iter
          (fun c ->
            match c.Serve.outcome with
            | Serve.Answered { cost; _ } ->
              let prev =
                Option.value ~default:[]
                  (Hashtbl.find_opt latencies c.Serve.tenant)
              in
              Hashtbl.replace latencies c.Serve.tenant
                (System.total_ms cost :: prev)
            | Serve.Failed _ | Serve.Shed _ ->
              failwith "e13: fault-free workload lost a query")
          completions
      in
      for round = 0 to rounds - 1 do
        List.iteri
          (fun ti (id, _) ->
            for k = 0 to offered - 1 do
              let q = queries.((ti + k + round) mod Array.length queries) in
              match Serve.submit srv ~tenant:id q with
              | Ok _ -> bump accepted id
              | Error Serve.Overloaded -> bump rejected id
              | Error r ->
                failwith ("e13: unexpected reject " ^ Serve.reject_to_string r)
            done)
          hostings;
        note (Serve.run_round srv)
      done;
      note (Serve.drain srv ());
      List.iter
        (fun (id, _) ->
          let served =
            List.sort Float.compare
              (Option.value ~default:[] (Hashtbl.find_opt latencies id))
          in
          let n = List.length served in
          let pct p =
            if n = 0 then 0.0
            else List.nth served (min (n - 1) (int_of_float (p *. float_of_int n)))
          in
          let acc = count accepted id and rej = count rejected id in
          let offered_total = offered * rounds in
          let rej_rate = float_of_int rej /. float_of_int offered_total in
          Printf.printf "%-10d %-10s %9d %9d %9d %9.3f %9.3f %9.3f\n" offered
            id acc n rej rej_rate (pct 0.50) (pct 0.95);
          json_row
            [ "experiment", S "e13";
              "tenant", S id;
              "tenants", I (List.length ids);
              "rounds", I rounds;
              "offered_per_round", I offered;
              "admission_limit", I refill;
              "queue_depth", I queue_depth;
              "accepted", I acc;
              "served", I n;
              "rejected", I rej;
              "rejection_rate", F rej_rate;
              "p50_ms", F (pct 0.50);
              "p95_ms", F (pct 0.95) ];
          (* The gate: backpressure appears exactly when offered load
             crosses the admission limit, and nothing is ever lost —
             every accepted query is served. *)
          if acc <> n then
            failwith
              (Printf.sprintf "e13 [%s]: accepted %d but served %d" id acc n);
          if offered <= refill && rej > 0 then
            failwith
              (Printf.sprintf
                 "e13 [%s]: rejected %d below the admission limit" id rej);
          if offered > refill + queue_depth && rej = 0 then
            failwith
              (Printf.sprintf
                 "e13 [%s]: offered %d/round crossed the limit without a \
                  single Overloaded rejection"
                 id offered))
        hostings)
    [ 1; 2; 4; 8 ];
  Printf.printf
    "\nexpected shape: zero rejections at or below the bucket's refill rate; \
     past it the\nbounded queue rejects the overflow (typed, never silent) \
     while p50/p95 stay flat.\n"

(* ------------------------------------------------------------------ *)
(* E14: leakage mitigations — candidate-set growth vs. price           *)

let e14 scale =
  header
    (Printf.sprintf
       "E14: leakage mitigations — candidate-set growth and its price (%s \
        scale)"
       scale.label);
  let patients = if scale.label = "tiny" then 5 else 12 in
  let doc = Workload.Health.generate ~seed:1L ~patients () in
  let scs = Workload.Health.constraints () in
  let queries =
    Array.of_list
      (List.map Xpath.Parser.parse
         [ "//patient/pname"; "//patient[age>=50]/pname"; "//treat/doctor";
           "//SSN" ])
  in
  let batches = 2 in
  let budget =
    match Attack.Budget.load "attack.budget" with
    | Ok b -> b
    | Error msg -> failwith ("e14: attack.budget: " ^ msg)
  in
  let configs =
    [ "off", Attack.Mitigate.off;
      "shuffle", { Attack.Mitigate.pad = false; dummies = 0; shuffle = true };
      "dummy", { Attack.Mitigate.pad = false; dummies = 4; shuffle = false };
      "pad", { Attack.Mitigate.pad = true; dummies = 0; shuffle = false };
      "pad+dummy+shuffle",
      { Attack.Mitigate.pad = true; dummies = 4; shuffle = true } ]
  in
  (* One fresh hosting per configuration: the leakage ledger must see
     only this configuration's wire traffic. *)
  let run_config config =
    let sys, _ = System.setup ~master:"e14" doc scs Scheme.Opt in
    Obs.Ledger.set_enabled (System.ledger sys) true;
    let mit = Attack.Mitigate.create ~seed:11L config in
    let answers = ref [] and ms = ref 0.0 and bytes = ref 0 in
    for _ = 1 to batches do
      Array.iter
        (fun (ans, cost) ->
          answers := List.map Xmlcore.Printer.tree_to_string ans :: !answers;
          ms := !ms +. System.total_ms cost;
          bytes := !bytes + cost.System.transmit_bytes)
        (Attack.Mitigate.evaluate_batch mit sys queries)
    done;
    (List.rev !answers, !ms, !bytes, Attack.Trace.of_ledger (System.ledger sys))
  in
  let min_class findings c =
    match
      List.filter_map
        (fun (f : Attack.Passes.finding) ->
          if f.Attack.Passes.pass = c then Some f.Attack.Passes.candidates
          else None)
        findings
    with
    | [] -> None
    | sizes -> Some (List.fold_left min max_int sizes)
  in
  Printf.printf
    "%d batch(es) x %d quer(ies) per configuration; budget: attack.budget\n\n"
    batches (Array.length queries);
  Printf.printf "%-18s %9s %9s %9s %11s %9s %9s %9s\n" "mitigations"
    "freq_min" "size_min" "cooc_min" "violations" "ms" "bytes" "overhead";
  let baseline = ref None in
  List.iter
    (fun (name, config) ->
      let answers, ms, bytes, trace = run_config config in
      (* The differential gate: whatever the mitigation spends, the
         answers must be byte-identical to the unmitigated run. *)
      (match !baseline with
       | None -> baseline := Some (answers, ms, bytes)
       | Some (base_answers, _, _) ->
         if answers <> base_answers then
           failwith
             (Printf.sprintf
                "e14 [%s]: mitigated answers differ from the unmitigated \
                 baseline"
                name));
      let findings = Attack.Passes.run_all trace in
      let sc = Attack.Budget.score budget findings in
      let violations = List.length sc.Attack.Budget.violations in
      let _, _, base_bytes =
        match !baseline with Some b -> b | None -> assert false
      in
      let overhead =
        if base_bytes = 0 then 0.0
        else float_of_int (bytes - base_bytes) /. float_of_int base_bytes
      in
      let show c =
        match min_class findings c with
        | None -> "-"
        | Some n -> string_of_int n
      in
      Printf.printf "%-18s %9s %9s %9s %11d %9.2f %9d %8.1f%%\n" name
        (show "frequency") (show "size") (show "cooccurrence") violations ms
        bytes (100.0 *. overhead);
      json_row
        [ "experiment", S "e14";
          "mitigations", S name;
          "frequency_min",
          I (Option.value ~default:0 (min_class findings "frequency"));
          "size_min", I (Option.value ~default:0 (min_class findings "size"));
          "cooccurrence_min",
          I (Option.value ~default:0 (min_class findings "cooccurrence"));
          "violations", I violations;
          "ms", F ms;
          "transmit_bytes", I bytes;
          "bytes_overhead", F overhead ];
      (* The budget gates: the unmitigated run must exhibit the leakage
         the adversary passes exist to find, and the declaration's
         bought mitigation must actually buy it back. *)
      if name = "off" && violations = 0 then
        failwith
          "e14 [off]: unmitigated workload shows no budget violation — the \
           adversary channels vanished";
      if name = "pad" && violations > 0 then
        failwith
          (Printf.sprintf
             "e14 [pad]: the bought mitigation left %d budget violation(s)"
             violations))
    configs;
  Printf.printf
    "\nexpected shape: off pins blocks (candidate sets of 1); pad collapses \
     every\nresponse to the block-universe envelope (one frequency/size \
     class), priced in\nbytes and ms; dummy costs bandwidth but buys nothing \
     against this adversary (the\nserver decodes requests, so it discards \
     distinguishable cover fetches); shuffle\nalone changes nothing the \
     passes see (order is not an input).  Answers are\nbyte-identical \
     throughout.\n"

(* ------------------------------------------------------------------ *)
(* E15: incremental updates under mixed read/write churn               *)

(* The incremental-update claim: applying an edit through
   System.apply_delta costs proportionally to the delta (the touched
   blocks), not to the database, while a full re-host pays the whole
   setup again.  A churn workload of targeted value edits plus one
   insert/delete pair runs down two systems in lockstep — one
   maintained incrementally, one re-hosted per edit — interleaved with
   reads; answers must stay byte-identical throughout, and at non-tiny
   scale the incremental path must be at least 5x cheaper. *)
let e15 scale =
  header
    (Printf.sprintf
       "E15: incremental updates — delta cost vs full re-host under churn \
        (%s scale)"
       scale.label);
  let patients = if scale.label = "tiny" then 40 else 300 in
  let churn = 4 in
  let doc = Workload.Health.generate ~seed:5L ~patients () in
  let scs = Workload.Health.constraints () in
  (* Targeted edits address patients by name; names are unique in the
     generated database, so each Set_value touches one patient record
     (~1 block of the hosting). *)
  let pnames =
    Array.of_list
      (List.filter_map
         (Xmlcore.Doc.value doc)
         (Xmlcore.Doc.nodes_with_tag doc "pname"))
  in
  let pname i = pnames.(i * 7 mod Array.length pnames) in
  let edits =
    (* policy# leaves live inside the insurance encryption blocks (SC1
       encrypts //insurance wholesale), so each value edit re-encrypts
       the touched patient's insurance block — the delta re-encryption
       path, not just metadata surgery. *)
    List.init churn (fun i ->
        Secure.Update.Set_value
          ( Xpath.Parser.parse
              (Printf.sprintf "//patient[pname='%s']//policy#" (pname i)),
            Printf.sprintf "9%04d" i ))
    @ [ Secure.Update.Insert_child
          { parent =
              Xpath.Parser.parse
                (Printf.sprintf "//patient[pname='%s']" (pname churn));
            position = 0;
            subtree = Xmlcore.Tree.leaf "remark" "follow-up" };
        Secure.Update.Delete_nodes
          (Xpath.Parser.parse
             (Printf.sprintf "//patient[pname='%s']/remark" (pname churn))) ]
  in
  let queries =
    List.map Xpath.Parser.parse
      [ "//patient/pname"; "//insurance/policy#"; "//treat/doctor" ]
  in
  let answers sys =
    List.map
      (fun q ->
        List.map Xmlcore.Printer.tree_to_string (fst (System.evaluate sys q)))
      queries
  in
  let incremental = ref (fst (System.setup ~master:"e15" doc scs Scheme.Opt)) in
  let rehosted = ref (fst (System.setup ~master:"e15" doc scs Scheme.Opt)) in
  let delta_ms = ref 0.0 and rehost_ms = ref 0.0 in
  let touched = ref 0 and dropped = ref 0 and fell_back = ref 0 in
  let blocks_total = ref 0 in
  Printf.printf "%d patients, %d edit(s) (%d value, 1 insert, 1 delete)\n\n"
    patients (List.length edits) churn;
  Printf.printf "%-10s %9s %9s %9s %9s %9s %11s\n" "edit" "plan_ms"
    "reenc_ms" "patch_ms" "touched" "blocks" "rehost_ms";
  List.iteri
    (fun i edit ->
      let next, (dc : System.delta_cost) = System.apply_delta !incremental edit in
      incremental := next;
      let rnext, (sc : System.setup_cost) = System.update !rehosted edit in
      rehosted := rnext;
      let d = dc.System.plan_ms +. dc.System.reencrypt_ms +. dc.System.patch_ms in
      let r = sc.System.scheme_build_ms +. sc.System.encrypt_ms
              +. sc.System.metadata_ms in
      delta_ms := !delta_ms +. d;
      rehost_ms := !rehost_ms +. r;
      touched := !touched + dc.System.blocks_touched;
      dropped := !dropped + dc.System.blocks_dropped;
      if dc.System.fell_back then incr fell_back;
      blocks_total := dc.System.blocks_total;
      Printf.printf "%-10s %9.3f %9.3f %9.3f %9d %9d %11.3f\n"
        (Printf.sprintf "#%d" (i + 1))
        dc.System.plan_ms dc.System.reencrypt_ms dc.System.patch_ms
        dc.System.blocks_touched dc.System.blocks_total r;
      (* A read between every write keeps the churn honest: the
         incrementally maintained hosting must answer like the
         re-hosted one at every intermediate state, not just at the
         end. *)
      if answers !incremental <> answers !rehosted then
        failwith
          (Printf.sprintf
             "e15: answers diverged from the re-hosted baseline after edit %d"
             (i + 1)))
    edits;
  let speedup = if !delta_ms = 0.0 then 0.0 else !rehost_ms /. !delta_ms in
  Printf.printf
    "\ntotal: delta %.2f ms vs re-host %.2f ms (%.1fx); %d block(s) touched, \
     %d dropped, %d fallback(s)\n"
    !delta_ms !rehost_ms speedup !touched !dropped !fell_back;
  json_row
    [ "experiment", S "e15";
      "patients", I patients;
      "edits", I (List.length edits);
      "blocks_touched", I !touched;
      "blocks_dropped", I !dropped;
      "blocks_total", I !blocks_total;
      "fallbacks", I !fell_back;
      "delta_ms", F !delta_ms;
      "rehost_ms", F !rehost_ms ];
  (* The value edits must stay incremental: a silent fallback would
     make the comparison measure the re-host path against itself. *)
  if !fell_back > 0 then
    failwith (Printf.sprintf "e15: %d edit(s) fell back to a full re-host" !fell_back);
  if !touched > List.length edits * 2 then
    failwith
      (Printf.sprintf "e15: %d blocks touched for %d edits — delta is not \
                       proportional to the edit" !touched (List.length edits));
  (* Timing assertion only where timings mean something. *)
  if scale.label <> "tiny" && !delta_ms *. 5.0 > !rehost_ms then
    failwith
      (Printf.sprintf
         "e15: incremental updates only %.1fx cheaper than re-hosting \
          (expected >= 5x)"
         speedup);
  Printf.printf
    "expected shape: per-edit delta cost tracks the touched block count \
     (1-2 of\n%d blocks), not the database; the re-host column pays full \
     setup every time.\nAnswers are byte-identical to the re-hosted baseline \
     after every edit.\n"
    !blocks_total

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                         *)

let micro () =
  header "micro: Bechamel micro-benchmarks of the core primitives";
  let open Bechamel in
  let open Toolkit in
  (* Fixtures. *)
  let doc_10k = Workload.Xmark.generate ~persons:700 () in
  let assignment = Dsi.Assign.assign ~key:"bench" doc_10k in
  let intervals =
    List.init (Xmlcore.Doc.node_count doc_10k) (Dsi.Assign.interval assignment)
  in
  let people = List.filteri (fun i _ -> i mod 13 = 0) intervals in
  let big_hist =
    List.init 300 (fun i -> Printf.sprintf "%05d" i, 3 + (i mod 40))
  in
  let cat = Secure.Opess.build ~key:"bench" ~attr_id:0 ~tag:"v" big_hist in
  let btree = Btree.create () in
  List.iteri (fun i (_, c) -> Btree.insert btree (Int64.of_int (i * 7)) c) big_hist;
  let payload = String.init 65_536 (fun i -> Char.chr (i mod 256)) in
  let cbc_key = Crypto.Cbc.prepare "bench-key" in
  let ope = Crypto.Ope.create ~key:"bench" ~domain_bits:32 in
  let query = Xpath.Parser.parse "//person[address/city='Seoul']/name" in
  let tests =
    Test.make_grouped ~name:"primitives"
      [ Test.make ~name:"dsi-assign-10k-nodes"
          (Staged.stage (fun () -> Dsi.Assign.assign ~key:"x" doc_10k));
        Test.make ~name:"structural-join-10k"
          (Staged.stage (fun () ->
               Dsi.Join.descendants_within ~ancestors:people intervals));
        Test.make ~name:"opess-build-300-values"
          (Staged.stage (fun () ->
               Secure.Opess.build ~key:"b" ~attr_id:0 ~tag:"v" big_hist));
        Test.make ~name:"opess-translate-range"
          (Staged.stage (fun () -> Secure.Opess.translate cat Xpath.Ast.Ge "00150"));
        Test.make ~name:"btree-range-scan"
          (Staged.stage (fun () -> Btree.range btree ~lo:100L ~hi:1500L));
        Test.make ~name:"cbc-encrypt-64KiB"
          (Staged.stage (fun () ->
               Crypto.Cbc.encrypt_prepared cbc_key ~nonce:"n" payload));
        Test.make ~name:"ope-encrypt"
          (Staged.stage (fun () -> Crypto.Ope.encrypt ope 123_456_789L));
        Test.make ~name:"vernam-tag-token"
          (Staged.stage (fun () ->
               Crypto.Vernam.encrypt_hex ~key:"k" ~pad_id:"tag" "insurance"));
        Test.make ~name:"xpath-eval-10k-doc"
          (Staged.stage (fun () -> Xpath.Eval.eval doc_10k query));
        Test.make ~name:"sha256-4KiB"
          (Staged.stage
             (let block = String.make 4096 'x' in
              fun () -> Crypto.Sha256.digest block));
        Test.make ~name:"btree-insert-delete"
          (Staged.stage (fun () ->
               Btree.insert btree 424242L 1;
               ignore (Btree.delete btree 424242L (fun _ -> true))));
        Test.make ~name:"protocol-encode-request"
          (Staged.stage
             (let squery =
                { Secure.Squery.absolute = true;
                  steps =
                    [ { Secure.Squery.axis = Xpath.Ast.Descendant_or_self;
                        test = Secure.Squery.Tokens [ Secure.Squery.Clear "person" ];
                        predicates =
                          [ Secure.Squery.Value
                              ( { Secure.Squery.absolute = false;
                                  steps =
                                    [ { Secure.Squery.axis = Xpath.Ast.Child;
                                        test =
                                          Secure.Squery.Tokens
                                            [ Secure.Squery.Clear "age" ];
                                        predicates = [] } ] },
                                Secure.Squery.Ranges [ (1L, 99L) ] ) ] } ] }
              in
              fun () -> Secure.Protocol.encode_request squery));
        Test.make ~name:"xquery-parse"
          (Staged.stage (fun () ->
               Xquery.Parser.parse
                 "for $p in //person where $p/age >= 40 order by $p/age return \
                  <r>{$p/name}</r>")) ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> (name, est) :: acc
        | Some [] | None -> acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "%-52s %14s\n" "benchmark" "ns/run";
  List.iter (fun (name, ns) -> Printf.printf "%-52s %14.0f\n" name ns) rows

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec flag_value name = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> flag_value name rest
    | [] -> None
  in
  let scale =
    match flag_value "--scale" args with
    | Some "tiny" -> tiny
    | Some "medium" -> medium
    | Some "large" -> large
    | Some _ | None -> small
  in
  let json_path = flag_value "--json" args in
  let compare_path = flag_value "--compare" args in
  let wanted =
    (* Flags and their operands are not experiment names. *)
    let rec positional = function
      | ("--scale" | "--json" | "--compare") :: _ :: rest -> positional rest
      | a :: rest when String.length a >= 2 && String.sub a 0 2 = "--" ->
        positional rest
      | a :: rest -> a :: positional rest
      | [] -> []
    in
    List.filter
      (fun a -> a <> "tiny" && a <> "small" && a <> "medium" && a <> "large")
      (positional args)
  in
  let all =
    [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11";
      "e12"; "e13"; "e14"; "e15"; "micro" ]
  in
  let wanted = if wanted = [] || List.mem "all" wanted then all else wanted in
  Printf.printf "secure-xml bench harness (scale: %s)\n" scale.label;
  List.iter
    (fun name ->
      match name with
      | "e1" -> e1 ()
      | "e2" -> e2 scale
      | "e3" -> e3 scale
      | "e4" -> e4 scale
      | "e5" -> e5 scale
      | "e6" -> e6 scale
      | "e7" -> e7 ()
      | "e8" -> e8 ()
      | "e9" -> e9 ()
      | "e10" -> e10 scale
      | "e11" -> e11 scale
      | "e12" -> e12 scale
      | "e13" -> e13 scale
      | "e14" -> e14 scale
      | "e15" -> e15 scale
      | "micro" -> micro ()
      | other -> Printf.printf "unknown experiment %S (skipped)\n" other)
    wanted;
  (match json_path with
   | None -> ()
   | Some path ->
     json_write path;
     Printf.printf "\njson: %d rows -> %s\n" (List.length !json_rows) path);
  match compare_path with
  | None -> ()
  | Some path -> json_compare path
