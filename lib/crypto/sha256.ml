(* FIPS 180-4 SHA-256.  Words are native ints masked to 32 bits —
   unboxed arithmetic matters because HMAC (hence key derivation, DSI
   weights, OPESS randomness, block MACs and session frames) sits on
   hot paths.  Absorbing and finalizing allocate nothing; only the
   32-byte digest {!finalize} returns is fresh. *)

let mask = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;            (* 8 chaining words *)
  buf : Bytes.t;            (* 64-byte block buffer *)
  mutable buf_len : int;    (* bytes currently in [buf] *)
  mutable total : int;      (* total message bytes absorbed *)
  w : int array;            (* message schedule scratch *)
}

let init () =
  { h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
           0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0 }

let copy ctx =
  { h = Array.copy ctx.h;
    buf = Bytes.copy ctx.buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
    w = Array.make 64 0 }

let reset ctx ~from =
  Array.blit from.h 0 ctx.h 0 8;
  Bytes.blit from.buf 0 ctx.buf 0 from.buf_len;
  ctx.buf_len <- from.buf_len;
  ctx.total <- from.total

(* Rotations of a 32-bit word [x] by 1..31 are read off the doubled
   word [x lor (x lsl 32)]: a 63-bit int keeps bits 0-62 of it, which
   is every bit such a rotation needs.  The sigmas leave the bits above
   32 as they fall: every use is a sum that is masked afterwards, and
   the low 32 bits of a sum depend only on the low 32 bits of its
   terms. *)
let[@inline] big_sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)

let[@inline] big_sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)

let[@inline] small_sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 17) lxor (xx lsr 19) lxor (x lsr 10)

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land b) lor (c land (a lor b))
let[@inline] kw w i = Array.unsafe_get k i + Array.unsafe_get w i

(* Compress the 64-byte block of [block] at [off]. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be block (off + (i * 4))) land mask)
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16)
        + small_sigma0 (Array.unsafe_get w (i - 15))
        + Array.unsafe_get w (i - 7)
        + small_sigma1 (Array.unsafe_get w (i - 2)))
       land mask)
  done;
  let h0 = ctx.h in
  let a = ref h0.(0) and b = ref h0.(1) and c = ref h0.(2) and d = ref h0.(3)
  and e = ref h0.(4) and f = ref h0.(5) and g = ref h0.(6) and h = ref h0.(7) in
  (* Eight rounds per step.  A round only rewrites the words in the
     roles of d and h; instead of shifting all eight words along, the
     roles rotate one place per round and are back home after eight. *)
  for step = 0 to 7 do
    let i = step * 8 in
    let t1 = !h + big_sigma1 !e + ch !e !f !g + kw w i in
    d := (!d + t1) land mask;
    h := (t1 + big_sigma0 !a + maj !a !b !c) land mask;
    let t1 = !g + big_sigma1 !d + ch !d !e !f + kw w (i + 1) in
    c := (!c + t1) land mask;
    g := (t1 + big_sigma0 !h + maj !h !a !b) land mask;
    let t1 = !f + big_sigma1 !c + ch !c !d !e + kw w (i + 2) in
    b := (!b + t1) land mask;
    f := (t1 + big_sigma0 !g + maj !g !h !a) land mask;
    let t1 = !e + big_sigma1 !b + ch !b !c !d + kw w (i + 3) in
    a := (!a + t1) land mask;
    e := (t1 + big_sigma0 !f + maj !f !g !h) land mask;
    let t1 = !d + big_sigma1 !a + ch !a !b !c + kw w (i + 4) in
    h := (!h + t1) land mask;
    d := (t1 + big_sigma0 !e + maj !e !f !g) land mask;
    let t1 = !c + big_sigma1 !h + ch !h !a !b + kw w (i + 5) in
    g := (!g + t1) land mask;
    c := (t1 + big_sigma0 !d + maj !d !e !f) land mask;
    let t1 = !b + big_sigma1 !g + ch !g !h !a + kw w (i + 6) in
    f := (!f + t1) land mask;
    b := (t1 + big_sigma0 !c + maj !c !d !e) land mask;
    let t1 = !a + big_sigma1 !f + ch !f !g !h + kw w (i + 7) in
    e := (!e + t1) land mask;
    a := (t1 + big_sigma0 !b + maj !b !c !d) land mask
  done;
  h0.(0) <- (h0.(0) + !a) land mask;
  h0.(1) <- (h0.(1) + !b) land mask;
  h0.(2) <- (h0.(2) + !c) land mask;
  h0.(3) <- (h0.(3) + !d) land mask;
  h0.(4) <- (h0.(4) + !e) land mask;
  h0.(5) <- (h0.(5) + !f) land mask;
  h0.(6) <- (h0.(6) + !g) land mask;
  h0.(7) <- (h0.(7) + !h) land mask

let update_sub ctx s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Fill the partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) !remaining in
    Bytes.blit_string s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are compressed straight from [s]. *)
  while !remaining >= 64 do
    compress ctx (Bytes.unsafe_of_string s) !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s = update_sub ctx s 0 (String.length s)

(* Pad in the block buffer: 0x80, zeros up to byte 56 (spilling into a
   second block when fewer than 9 bytes are free), then the 64-bit
   big-endian bit length.  The digest lands in [out] at [off]. *)
let finalize_into ctx out off =
  if off < 0 || off > Bytes.length out - 32 then invalid_arg "Sha256.finalize_into";
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.unsafe_set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total lsl 3));
  compress ctx buf 0;
  ctx.buf_len <- 0;
  for i = 0 to 7 do
    Bytes.set_int32_be out (off + (i * 4)) (Int32.of_int ctx.h.(i))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out 0;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let to_hex raw =
  let out = Buffer.create (String.length raw * 2) in
  String.iter (fun c -> Buffer.add_string out (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents out

let hex s = to_hex (digest s)
