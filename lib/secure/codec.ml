exception Error of string

module W = struct
  let i64 b v = Buffer.add_int64_le b v

  let int b v = i64 b (Int64.of_int v)
  let float b v = i64 b (Int64.bits_of_float v)
  let bool b v = Buffer.add_char b (if v then '\001' else '\000')

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let list b f items =
    int b (List.length items);
    List.iter (f b) items
end

module R = struct
  type t = { data : string; mutable pos : int }

  let make data pos = { data; pos }

  let need r n =
    if r.pos + n > String.length r.data then raise (Error "truncated input")

  let i64 r =
    need r 8;
    let v = String.get_int64_le r.data r.pos in
    r.pos <- r.pos + 8;
    v

  let int r =
    let v = Int64.to_int (i64 r) in
    if v < 0 || v > 0x3FFFFFFFFFFF then raise (Error "implausible length");
    v

  let float r = Int64.float_of_bits (i64 r)

  let bool r =
    need r 1;
    let c = r.data.[r.pos] in
    r.pos <- r.pos + 1;
    match c with
    | '\000' -> false
    | '\001' -> true
    | _ -> raise (Error "bad boolean byte")

  let string r =
    let n = int r in
    need r n;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let list r f =
    let n = int r in
    (* Every list element in the formats built on this codec consumes
       at least one byte, so a count exceeding the remaining bytes is
       adversarial — reject it before materialising anything. *)
    if n > String.length r.data - r.pos then raise (Error "implausible list length");
    List.init n (fun _ -> f r)

  let at_end r = r.pos = String.length r.data
end
