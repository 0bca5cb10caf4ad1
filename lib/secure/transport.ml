exception Dropped

(* Process-wide wire counters; no-ops until Obs.Metric.default is
   enabled.  Per-link accounting stays in the closure-local [stats]. *)
module M = struct
  let reg = Obs.Metric.default
  let exchanges = Obs.Metric.counter reg "transport.exchanges" ~help:"wire exchanges attempted"
  let delivered = Obs.Metric.counter reg "transport.delivered" ~help:"responses delivered intact"
  let bytes_up = Obs.Metric.counter reg "transport.bytes_up" ~help:"request bytes on the wire"
  let bytes_down = Obs.Metric.counter reg "transport.bytes_down" ~help:"response bytes off the wire"
  let dropped = Obs.Metric.counter reg "transport.dropped" ~help:"frames dropped (either direction)"
  let duplicated = Obs.Metric.counter reg "transport.duplicated" ~help:"requests delivered twice"
  let truncated = Obs.Metric.counter reg "transport.truncated" ~help:"frames truncated in flight"
  let flipped = Obs.Metric.counter reg "transport.flipped" ~help:"frames with a flipped bit"
  let reordered = Obs.Metric.counter reg "transport.reordered" ~help:"responses swapped with a stale one"
end

type profile = {
  drop : float;
  duplicate : float;
  truncate : float;
  flip : float;
  reorder : float;
  delay_ms : float * float;
}

let calm =
  { drop = 0.0; duplicate = 0.0; truncate = 0.0; flip = 0.0; reorder = 0.0;
    delay_ms = 0.0, 0.0 }

let chaos ?(drop = 0.0) ?(duplicate = 0.0) ?(truncate = 0.0) ?(flip = 0.0)
    ?(reorder = 0.0) ?(delay_ms = (0.0, 0.0)) () =
  { drop; duplicate; truncate; flip; reorder; delay_ms }

type stats = {
  exchanges : int;
  delivered : int;
  dropped_requests : int;
  dropped_responses : int;
  duplicated : int;
  truncated : int;
  flipped : int;
  reordered : int;
  bytes_up : int;
  bytes_down : int;
  delay_ms : float;
}

let zero_stats =
  { exchanges = 0; delivered = 0; dropped_requests = 0; dropped_responses = 0;
    duplicated = 0; truncated = 0; flipped = 0; reordered = 0; bytes_up = 0;
    bytes_down = 0; delay_ms = 0.0 }

type t = { exchange : string -> string; stats : unit -> stats }

let exchange t msg = t.exchange msg
let stats t = t.stats ()

let loopback handler =
  let s = ref zero_stats in
  let exchange msg =
    s := { !s with exchanges = !s.exchanges + 1;
                   bytes_up = !s.bytes_up + String.length msg };
    Obs.Metric.incr M.exchanges;
    Obs.Metric.add M.bytes_up (String.length msg);
    let resp = handler msg in
    s := { !s with delivered = !s.delivered + 1;
                   bytes_down = !s.bytes_down + String.length resp };
    Obs.Metric.incr M.delivered;
    Obs.Metric.add M.bytes_down (String.length resp);
    resp
  in
  { exchange; stats = (fun () -> !s) }

(* --- Fault injection ----------------------------------------------- *)

type faulty_state = {
  prng : Crypto.Prng.t;
  mutable st : stats;
  (* A response knocked out of order: it was due on an earlier exchange
     and will be delivered (stale) on the next reorder event. *)
  mutable in_flight : string option;
}

let hit f p = p > 0.0 && Crypto.Prng.float f.prng 1.0 < p

(* Mangling never produces the empty string from a non-empty one in a
   way that hides the fault class: truncation keeps a strict prefix,
   flipping touches exactly one bit. *)
let truncate_msg f msg =
  if String.length msg = 0 then msg
  else String.sub msg 0 (Crypto.Prng.int f.prng (String.length msg))

let flip_msg f msg =
  if String.length msg = 0 then msg
  else begin
    let b = Bytes.of_string msg in
    let i = Crypto.Prng.int f.prng (Bytes.length b) in
    let bit = Crypto.Prng.int f.prng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b
  end

(* Per-direction mangling: truncate, then flip, then drop.  Order does
   not matter much — the session layer must absorb any combination. *)
let mangle f profile msg =
  let msg, trunc = if hit f profile.truncate then truncate_msg f msg, 1 else msg, 0 in
  let msg, flips = if hit f profile.flip then flip_msg f msg, 1 else msg, 0 in
  f.st <- { f.st with truncated = f.st.truncated + trunc;
                      flipped = f.st.flipped + flips };
  Obs.Metric.add M.truncated trunc;
  Obs.Metric.add M.flipped flips;
  msg, hit f profile.drop

let faulty ?(profile = calm) ~seed inner =
  let f = { prng = Crypto.Prng.create seed; st = zero_stats; in_flight = None } in
  let exchange msg =
    f.st <- { f.st with exchanges = f.st.exchanges + 1;
                        bytes_up = f.st.bytes_up + String.length msg };
    Obs.Metric.incr M.exchanges;
    Obs.Metric.add M.bytes_up (String.length msg);
    let lo, hi = profile.delay_ms in
    if hi > lo then
      f.st <- { f.st with delay_ms = f.st.delay_ms +. Crypto.Prng.float_in f.prng lo hi };
    (* Uplink. *)
    let msg, dropped_up = mangle f profile msg in
    if dropped_up then begin
      f.st <- { f.st with dropped_requests = f.st.dropped_requests + 1 };
      Obs.Metric.incr M.dropped;
      raise Dropped
    end;
    let deliver () = inner.exchange msg in
    (* Duplicate delivery: the server receives the request twice (the
       second time it replays its stored answer); the client hears one
       answer. *)
    let resp =
      if hit f profile.duplicate then begin
        f.st <- { f.st with duplicated = f.st.duplicated + 1 };
        Obs.Metric.incr M.duplicated;
        (match deliver () with
         | (_ : string) -> ()
         | exception Dropped -> ());
        deliver ()
      end
      else deliver ()
    in
    (* Downlink. *)
    let resp, dropped_down = mangle f profile resp in
    if dropped_down then begin
      f.st <- { f.st with dropped_responses = f.st.dropped_responses + 1 };
      Obs.Metric.incr M.dropped;
      raise Dropped
    end;
    (* Reordering: swap with a response still in flight.  The first
       reorder event stashes the fresh response (the caller times out);
       later ones deliver the stale stash instead. *)
    let resp =
      if hit f profile.reorder then begin
        f.st <- { f.st with reordered = f.st.reordered + 1 };
        Obs.Metric.incr M.reordered;
        match f.in_flight with
        | Some stale ->
          f.in_flight <- Some resp;
          stale
        | None ->
          f.in_flight <- Some resp;
          f.st <- { f.st with dropped_responses = f.st.dropped_responses + 1 };
          Obs.Metric.incr M.dropped;
          raise Dropped
      end
      else resp
    in
    f.st <- { f.st with delivered = f.st.delivered + 1;
                        bytes_down = f.st.bytes_down + String.length resp };
    Obs.Metric.incr M.delivered;
    Obs.Metric.add M.bytes_down (String.length resp);
    resp
  in
  let stats () =
    let inner_st = inner.stats () in
    { f.st with delay_ms = f.st.delay_ms +. inner_st.delay_ms }
  in
  { exchange; stats }
