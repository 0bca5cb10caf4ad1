type finding = {
  pass : string;
  subject : string;
  candidates : int;
  witness : string list;
}

type round = Obs.Ledger.round

(* Witnesses cite the observed rounds hop by hop; long citation lists
   are elided past this many entries to keep findings readable. *)
let max_cited = 4

let cite_rounds verb rounds =
  let shown = List.filteri (fun i _ -> i < max_cited) rounds in
  let elided = List.length rounds - List.length shown in
  Printf.sprintf "%s %s%s" verb
    (String.concat ", "
       (List.map (fun (r : round) -> Printf.sprintf "round %d [%s]" r.seq r.label) shown))
    (if elided > 0 then Printf.sprintf " (+%d more)" elided else "")

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let class_size tbl key = Option.value ~default:1 (Hashtbl.find_opt tbl key)

(* The simulated server decodes every request, so it can always tell a
   cover [Fetch] round from a real query round (the ledger label
   records that) and a rational adversary discards the cover traffic
   before computing statistics.  Every pass therefore works from the
   query rounds only — which is also what keeps the scorer monotone:
   under a distinctness-based candidate-set measure, noise folded into
   the histogram could only split classes, never merge them, and buying
   dummy traffic would (absurdly) score worse than buying nothing. *)
let is_query (r : round) = r.label <> "fetch"

(* --- Frequency analysis (Theorem 4.1 channel) ---------------------- *)

let frequency ?census rounds =
  let rs = List.filter is_query rounds in
  let total = List.length rs in
  let tally = Hashtbl.create 64 in
  List.iter
    (fun (r : round) ->
      List.iter (fun id -> bump tally id) (List.sort_uniq compare r.block_ids))
    rs;
  let counts =
    List.sort compare (Hashtbl.fold (fun id c acc -> (id, c) :: acc) tally [])
  in
  let classes = Hashtbl.create 16 in
  List.iter (fun (_, c) -> bump classes c) counts;
  List.map
    (fun (id, c) ->
      let cls = class_size classes c in
      let sightings = List.filter (fun (r : round) -> List.mem id r.block_ids) rs in
      let base =
        [ cite_rounds (Printf.sprintf "block %d shipped in" id) sightings;
          Printf.sprintf "histogram: %d fetch%s across %d rounds" c
            (if c = 1 then "" else "es")
            total;
          Printf.sprintf
            "frequency class: %d block%s share%s fetch count %d -> candidate set %d" cls
            (if cls = 1 then "" else "s")
            (if cls = 1 then "s" else "")
            c cls ]
      in
      let candidates, witness =
        match census with
        | None -> cls, base
        | Some tags ->
          let matching = List.filter (fun (_, n) -> n = c) tags in
          (match matching with
           | [] ->
             ( cls,
               base
               @ [ Printf.sprintf
                     "known census: no tag with occurrence %d — class size stands" c ] )
           | ms ->
             ( List.length ms,
               base
               @ [ Printf.sprintf "known census: tags with occurrence %d = {%s} -> candidate set %d"
                     c
                     (String.concat ", " (List.map fst ms))
                     (List.length ms) ] ))
      in
      { pass = "frequency"; subject = Printf.sprintf "block %d" id; candidates; witness })
    counts

(* --- Size/interval analysis (Theorem 5.1/5.2 channel) -------------- *)

(* Pair each round with its 1-based rank by response size among all
   rounds, largest first, ties by sequence number then position: at a
   fixed link speed this is the latency order a wall-clock observer
   sees, computed without a wall clock so replays are deterministic. *)
let timing_ranks rounds =
  let ranks = Array.make (List.length rounds) 0 in
  List.mapi (fun i r -> r, i) rounds
  |> List.stable_sort (fun ((a : round), _) ((b : round), _) ->
         match compare b.bytes_down a.bytes_down with
         | 0 -> compare a.seq b.seq
         | c -> c)
  |> List.iteri (fun rank (_, i) -> ranks.(i) <- rank + 1);
  List.mapi (fun i r -> r, ranks.(i)) rounds

let size rounds =
  let total = List.length rounds in
  let ranked = List.filter (fun (r, _) -> is_query r) (timing_ranks rounds) in
  let fingerprint (r : round) = r.bytes_down, r.blocks_returned in
  let classes = Hashtbl.create 16 in
  List.iter (fun (r, _) -> bump classes (fingerprint r)) ranked;
  List.map
    (fun ((r : round), rank) ->
      let cls = class_size classes (fingerprint r) in
      { pass = "size";
        subject = Printf.sprintf "round %d" r.seq;
        candidates = cls;
        witness =
          [ Printf.sprintf
              "round %d [%s]: %d bytes down, %d blocks — the OPESS-displaced response shape"
              r.seq r.label r.bytes_down r.blocks_returned;
            Printf.sprintf "timing rank %d/%d (transmission-dominated latency order)"
              rank total;
            Printf.sprintf
              "size class: %d round%s share%s this (bytes, blocks) fingerprint -> candidate set %d"
              cls
              (if cls = 1 then "" else "s")
            (if cls = 1 then "s" else "")
              cls ] })
    ranked

(* --- Co-occurrence clustering -------------------------------------- *)

let cooccurrence rounds =
  let membership = Hashtbl.create 64 in
  List.iter
    (fun (r : round) ->
      List.iter
        (fun id ->
          Hashtbl.replace membership id
            (r.seq :: Option.value ~default:[] (Hashtbl.find_opt membership id)))
        (List.sort_uniq compare r.block_ids))
    (List.filter is_query rounds);
  let vector id =
    List.sort compare (Option.value ~default:[] (Hashtbl.find_opt membership id))
  in
  let classes = Hashtbl.create 64 in
  let ids =
    List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) membership [])
  in
  List.iter (fun id -> bump classes (vector id)) ids;
  List.map
    (fun id ->
      let v = vector id in
      let cls = class_size classes v in
      let cited = List.filteri (fun i _ -> i < max_cited) v in
      let elided = List.length v - List.length cited in
      { pass = "cooccurrence";
        subject = Printf.sprintf "block %d" id;
        candidates = cls;
        witness =
          [ Printf.sprintf "block %d co-occurs in rounds %s%s" id
              (String.concat ", " (List.map string_of_int cited))
              (if elided > 0 then Printf.sprintf " (+%d more)" elided else "");
            Printf.sprintf
              "co-occurrence class: %d block%s share%s this round-membership vector -> candidate set %d"
              cls
              (if cls = 1 then "" else "s")
            (if cls = 1 then "s" else "")
              cls ] })
    ids

(* --- Replay linkability -------------------------------------------- *)

let linkability rounds =
  List.filter (fun (r : round) -> r.replays > 0) rounds
  |> List.map (fun (r : round) ->
         { pass = "linkability";
           subject = Printf.sprintf "round %d" r.seq;
           candidates = 1;
           witness =
             [ Printf.sprintf "round %d [%s]: %d replay-cache hit%s" r.seq
                 r.label r.replays
                 (if r.replays = 1 then "" else "s");
               "retransmitted frames are byte-identical — the server links them to \
                their original with certainty -> candidate set 1" ] })

let run_all rounds =
  frequency rounds @ size rounds @ cooccurrence rounds @ linkability rounds

let render f =
  Printf.sprintf "[%s] %s: candidate set %d\n    %s" f.pass f.subject f.candidates
    (String.concat "\n    " f.witness)
