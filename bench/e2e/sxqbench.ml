(* sxqbench — end-to-end benchmark of the secure XML query system.

     sxqbench --workload sel|wide|repeat|churn --seed N
              [--seconds S] [--trace 0|1|FILE]

   [--trace 1] adds the per-layer metrics of a traced re-drive;
   [--trace FILE] does the same and also writes every span to FILE as
   JSON lines.  The last line on stdout is one JSON object describing
   the run; a human-readable table goes to stderr.  Exit status: 0 on a
   completed run, 1 when an answer differs from the plaintext oracle,
   2 on a usage error. *)

open Sxq_e2e

let usage () =
  prerr_endline
    "usage: sxqbench --workload sel|wide|repeat|churn --seed N [--seconds S] [--trace 0|1|FILE]";
  exit 2

let print_table (r : Bench.result) =
  Printf.eprintf "sxqbench %s seed %d%s: %d ops attempted, %d failed%s\n" r.Bench.workload
    r.Bench.seed (if r.Bench.traced then " (traced)" else "") r.Bench.attempted r.Bench.failed
    (match r.Bench.mismatch with Some m -> "; MISMATCH " ^ m | None -> "");
  Printf.eprintf "  samples: %s\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) r.Bench.samples));
  List.iter
    (fun m -> Printf.eprintf "  %-32s %14.4f %s\n" m.Bench.name m.Bench.value m.Bench.unit)
    r.Bench.metrics

let () =
  let rec parse (w, seed, secs, trace) = function
    | "--workload" :: v :: rest -> parse (Some v, seed, secs, trace) rest
    | "--seed" :: v :: rest -> parse (w, int_of_string_opt v, secs, trace) rest
    | "--seconds" :: v :: rest -> parse (w, seed, float_of_string_opt v, trace) rest
    | "--trace" :: v :: rest -> parse (w, seed, secs, v) rest
    | [] -> w, seed, secs, trace
    | _ -> usage ()
  in
  let w, seed, secs, trace =
    parse (None, None, Some 10.0, "0") (List.tl (Array.to_list Sys.argv))
  in
  let workload =
    match Option.bind w (fun w -> List.assoc_opt w Bench.workloads) with
    | Some w -> w
    | None -> usage ()
  in
  let seed, seconds = match seed, secs with Some s, Some t -> s, t | _ -> usage () in
  let trace, spans_file =
    match trace with
    | "0" -> false, None
    | "1" -> true, None
    | file -> true, Some file
  in
  let dir = Filename.concat (Sys.getcwd ()) (Printf.sprintf ".sxqbench-%d" (Unix.getpid ())) in
  let cfg = { Bench.workload; seed; seconds; trace; scale = Bench.Full; dir } in
  let result = Bench.run cfg in
  Option.iter (fun file -> Spans.write result.Bench.spans file) spans_file;
  print_table result;
  print_endline
    (Obs.Json.to_string (Bench.to_json ~host:(Host.fingerprint ~journal_dir:(Sys.getcwd ())) result));
  if result.Bench.mismatch <> None then exit 1
