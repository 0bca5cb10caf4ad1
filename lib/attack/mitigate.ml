type config = {
  pad : bool;
  dummies : int;
  shuffle : bool;
}

let off = { pad = false; dummies = 0; shuffle = false }

let of_budget ?(dummies = 4) (budget : Budget.t) =
  { pad = List.mem "pad" budget.Budget.mitigations;
    dummies = (if List.mem "dummy" budget.Budget.mitigations then dummies else 0);
    shuffle = List.mem "shuffle" budget.Budget.mitigations }

type t = {
  config : config;
  rng : Crypto.Prng.t;
}

let create ~seed config = { config; rng = Crypto.Prng.create seed }
let config t = t.config

(* The cover fetch's wire facts charged onto the query it shadows.
   Everything added is a transmission or robustness quantity — answers,
   decryption and post-processing belong to the query alone. *)
let add_cover (c : Secure.System.cost) (f : Secure.System.cost) =
  { c with
    Secure.System.server_ms = c.Secure.System.server_ms +. f.Secure.System.server_ms;
    transmit_bytes = c.Secure.System.transmit_bytes + f.Secure.System.transmit_bytes;
    transmit_ms = c.Secure.System.transmit_ms +. f.Secure.System.transmit_ms;
    retransmitted_bytes =
      c.Secure.System.retransmitted_bytes + f.Secure.System.retransmitted_bytes;
    faults_absorbed = c.Secure.System.faults_absorbed + f.Secure.System.faults_absorbed;
    replays = c.Secure.System.replays + f.Secure.System.replays }

(* PRNG-chosen cover blocks, deduplicated so the fetch's size is what
   the dedup-ing server will actually ship. *)
let draw_dummies t universe n =
  if universe = [| |] then []
  else
    List.init n (fun _ -> Crypto.Prng.choice t.rng universe)
    |> List.sort_uniq compare

let evaluate t sys query =
  let answers, cost =
    if t.config.pad then (
      let reply =
        match
          Secure.System.read sys
            (Secure.System.Padded (query, Secure.System.block_ids sys))
        with
        | Ok reply -> reply
        | Error _ -> (
          (* A naive read ships every block — the full padding envelope
             — and shows the server no query, so the fallback stays
             padded; a plain query round would not. *)
          match Secure.System.read sys (Secure.System.Naive query) with
          | Ok reply ->
            { reply with
              Secure.System.cost = { reply.Secure.System.cost with degraded = true } }
          | Error e -> raise (Secure.System.Unavailable e))
      in
      reply.Secure.System.answers, reply.Secure.System.cost)
    else Secure.System.evaluate sys query
  in
  let cost =
    if t.config.dummies <= 0 then cost
    else (
      let universe = Array.of_list (Secure.System.block_ids sys) in
      match draw_dummies t universe t.config.dummies with
      | [] -> cost
      | ids -> (
        match Secure.System.read sys (Secure.System.Fetch ids) with
        | Ok fetch -> add_cover cost fetch.Secure.System.cost
        | Error _ -> cost (* cover traffic is best-effort *)))
  in
  answers, cost

(* Sequentially, in wire order, so the PRNG stream (and thus the trace)
   is deterministic. *)
let evaluate_batch t sys queries =
  let order = Array.init (Array.length queries) Fun.id in
  if t.config.shuffle && Array.length queries > 1 then Crypto.Prng.shuffle t.rng order;
  let indexed = Array.map (fun i -> i, evaluate t sys queries.(i)) order in
  Array.sort (fun (a, _) (b, _) -> compare a b) indexed;
  Array.map snd indexed
