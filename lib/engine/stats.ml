type t = {
  queries : int;
  invalidations : int;
  plan_hits : int;
  plan_misses : int;
  result_hits : int;
  result_misses : int;
  result_evictions : int;
  block_hits : int;
  block_misses : int;
  block_evictions : int;
}

let rate hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let result_hit_rate t = rate t.result_hits t.result_misses
let block_hit_rate t = rate t.block_hits t.block_misses

let to_string t =
  Printf.sprintf
    "queries %d, invalidations %d | result %d/%d (evict %d) | block %d/%d (evict %d)"
    t.queries t.invalidations t.result_hits t.result_misses t.result_evictions
    t.block_hits t.block_misses t.block_evictions
