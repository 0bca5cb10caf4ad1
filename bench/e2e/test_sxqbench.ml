(* Self-test of the sxqbench harness: every workload at the tiny scale,
   with the oracle and tracing on. *)

open Sxq_e2e

let run workload seed =
  let dir =
    Filename.concat (Sys.getcwd ())
      (Printf.sprintf "sxqbench-selftest-%s-%d" (Bench.workload_name workload) seed)
  in
  Bench.run { Bench.workload; seed; seconds = 0.0; trace = true; scale = Bench.Tiny; dir }

let metric (r : Bench.result) name =
  List.find_opt (fun m -> m.Bench.name = name) r.Bench.metrics

(* Every metric BENCHMARK.json names, with its unit. *)
let declared =
  lazy
    (let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
     let json =
       match Obs.Json.of_string text with
       | Ok j -> j
       | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
     in
     let field name j =
       match Option.bind (Obs.Json.member name j) Obs.Json.to_str with
       | Some s -> s
       | None -> Alcotest.failf "BENCHMARK.json: metric without %s" name
     in
     List.concat_map
       (fun section ->
         match Option.bind (Obs.Json.member section json) Obs.Json.to_list with
         | Some ms -> List.map (fun m -> field "name" m, field "unit" m) ms
         | None -> Alcotest.failf "BENCHMARK.json: no %s list" section)
       [ "end_to_end"; "per_layer" ])

let check_workload workload () =
  let r = run workload 1 in
  Alcotest.(check (option string)) "answers match the oracle" None r.Bench.mismatch;
  Alcotest.(check int) "no operation failed" 0 r.Bench.failed;
  (* the per-run JSON round-trips *)
  let json = Bench.to_json r in
  (match Obs.Json.of_string (Obs.Json.to_string json) with
   | Ok back -> Alcotest.(check bool) "JSON round-trips" true (Obs.Json.equal json back)
   | Error e -> Alcotest.failf "report does not parse: %s" e);
  List.iter
    (fun (name, unit) ->
      match metric r name with
      | Some m -> Alcotest.(check string) (name ^ " unit") unit m.Bench.unit
      | None -> Alcotest.failf "metric %s missing" name)
    (Lazy.force declared);
  (* equal seeds repeat every exact metric bit for bit *)
  let again = run workload 1 in
  List.iter
    (fun m ->
      if m.Bench.exact then
        match metric again m.Bench.name with
        | Some m' ->
          if not (Float.equal m.Bench.value m'.Bench.value) then
            Alcotest.failf "%s: %h then %h for the same seed" m.Bench.name m.Bench.value
              m'.Bench.value
        | None -> Alcotest.failf "%s missing on the second run" m.Bench.name)
    r.Bench.metrics;
  Alcotest.(check string) "same seed, same stream" r.Bench.stream_digest again.Bench.stream_digest;
  let other = run workload 2 in
  Alcotest.(check bool) "another seed, another stream" true
    (r.Bench.stream_digest <> other.Bench.stream_digest);
  match metric r "trace.unattributed_frac" with
  | Some m ->
    if m.Bench.value > 0.10 then
      Alcotest.failf "layer spans leave %.1f%% of operation time unattributed"
        (100.0 *. m.Bench.value)
  | None -> Alcotest.fail "trace.unattributed_frac missing"

let () =
  Alcotest.run "sxqbench"
    [ ( "workloads",
        List.map
          (fun (name, w) -> Alcotest.test_case name `Quick (check_workload w))
          Bench.workloads ) ]
