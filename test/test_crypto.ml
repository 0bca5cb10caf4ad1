(* Crypto substrate tests: published vectors plus property tests. *)

let hex_to_string h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let bytes_to_hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let sha256_vectors () =
  let cases =
    [ "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
      "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
      String.make 1_000_000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) "digest" expected (Crypto.Sha256.hex input))
    cases

let sha256_incremental () =
  (* Chunked absorption must match one-shot hashing at any split. *)
  let msg = String.init 300 (fun i -> Char.chr (i mod 256)) in
  let expected = Crypto.Sha256.digest msg in
  List.iter
    (fun split ->
      let ctx = Crypto.Sha256.init () in
      Crypto.Sha256.update ctx (String.sub msg 0 split);
      Crypto.Sha256.update ctx (String.sub msg split (String.length msg - split));
      Alcotest.(check string)
        (Printf.sprintf "split at %d" split)
        (Crypto.Sha256.to_hex expected)
        (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 200; 300 ]

(* Byte pins over every padding case.  Message [m_n] for n = 0..200
   covers the short, exactly-56, one-block and two-block tails of the
   padding; the expected values come from Python's hashlib and hmac. *)
let sweep_messages =
  List.init 201 (fun n -> String.init n (fun i -> Char.chr ((i * 7 + 3) land 0xFF)))

let fold_digests f = Crypto.Sha256.hex (String.concat "" (List.map f sweep_messages))

let sha256_padding_sweep () =
  Alcotest.(check string) "sha256 over lengths 0..200"
    "3275febb4612d86d586eb9f11cd21e648a9fc7d95e0f6b8d362786e28c9c5b79"
    (fold_digests Crypto.Sha256.digest);
  Alcotest.(check string) "hmac over lengths 0..200"
    "8f2e06f56b60d7c22c1f04045803bae78359ae384ff6a53b49da93cc0d865e52"
    (fold_digests (Crypto.Hmac.mac ~key:"slice-key"))

let hmac_vectors () =
  (* RFC 4231 test case 2 and the classic quick-brown-fox vector. *)
  Alcotest.(check string) "rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Crypto.Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?");
  Alcotest.(check string) "fox"
    "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
    (Crypto.Hmac.mac_hex ~key:"key" "The quick brown fox jumps over the lazy dog");
  let long_key = String.make 131 'k' in
  Alcotest.(check string) "long key: prepared = one-shot"
    (Crypto.Sha256.to_hex (Crypto.Hmac.mac ~key:long_key "m"))
    (Crypto.Sha256.to_hex
       (Crypto.Hmac.mac_prepared (Crypto.Hmac.prepare ~key:long_key) "m"))

let hmac_prepared_agrees =
  QCheck.Test.make ~name:"hmac prepared = one-shot" ~count:200
    QCheck.(pair string string)
    (fun (key, msg) ->
      (* Equality of two local computations, not an authentication
         check — timing is irrelevant here. *)
      Crypto.Hmac.mac ~key msg
      (* lint: allow mac-compare *)
      = Crypto.Hmac.mac_prepared (Crypto.Hmac.prepare ~key) msg)

let hmac_slice_agrees =
  QCheck.Test.make ~name:"hmac slice = prepared over the concatenation" ~count:300
    QCheck.(triple (pair string string) string (pair small_nat small_nat))
    (fun ((key, prefix), msg, (a, b)) ->
      let n = String.length msg in
      let off = a mod (n + 1) in
      let len = b mod (n - off + 1) in
      let p = Crypto.Hmac.prepare ~key in
      Crypto.Eq.constant_time
        (Crypto.Hmac.mac_slice p ~prefix msg off len)
        (Crypto.Hmac.mac_prepared p (prefix ^ String.sub msg off len)))

let xtea_encrypt key block =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 block;
  Crypto.Xtea.encrypt_block key b 0;
  Bytes.get_int64_be b 0

let xtea_roundtrip =
  QCheck.Test.make ~name:"xtea decrypt after encrypt = id" ~count:500
    QCheck.(pair string int64)
    (fun (key_material, block) ->
      let key = Crypto.Xtea.key_of_string key_material in
      let b = Bytes.create 8 in
      Bytes.set_int64_be b 0 (xtea_encrypt key block);
      Crypto.Xtea.decrypt_block key b 0;
      Bytes.get_int64_be b 0 = block)

let xtea_differs () =
  let k1 = Crypto.Xtea.key_of_string "one" in
  let k2 = Crypto.Xtea.key_of_string "two" in
  Alcotest.(check bool) "not identity" false (xtea_encrypt k1 42L = 42L);
  Alcotest.(check bool) "key-dependent" false
    (xtea_encrypt k1 42L = xtea_encrypt k2 42L)

(* Known answers, reproduced by an independent Python XTEA. *)
let xtea_known_answers () =
  let check key pt expected =
    let b = Bytes.of_string (hex_to_string pt) in
    Crypto.Xtea.encrypt_block key b 0;
    Alcotest.(check string) pt expected (bytes_to_hex b);
    Crypto.Xtea.decrypt_block key b 0;
    Alcotest.(check string) (pt ^ " inverse") pt (bytes_to_hex b)
  in
  let key = Crypto.Xtea.key_of_raw (hex_to_string "000102030405060708090a0b0c0d0e0f") in
  check key "4142434445464748" "497df3d072612cb5";
  check key "4141414141414141" "e78f2d13744341d8";
  check (Crypto.Xtea.key_of_raw (String.make 16 '\000')) "0000000000000000"
    "dee9d4d8f7131ed9";
  Alcotest.check_raises "raw key length"
    (Invalid_argument "Xtea.key_of_raw: need 16 bytes")
    (fun () -> ignore (Crypto.Xtea.key_of_raw "short"))

let cbc_roundtrip =
  QCheck.Test.make ~name:"cbc decrypt after encrypt = id" ~count:300
    QCheck.(triple string string string)
    (fun (key, nonce, plaintext) ->
      Crypto.Cbc.decrypt ~key ~nonce (Crypto.Cbc.encrypt ~key ~nonce plaintext)
      = plaintext)

let cbc_prepared_agrees =
  QCheck.Test.make ~name:"cbc prepared = string-key API" ~count:200
    QCheck.(pair string string)
    (fun (key, plaintext) ->
      Crypto.Cbc.encrypt ~key ~nonce:"n" plaintext
      = Crypto.Cbc.encrypt_prepared (Crypto.Cbc.prepare key) ~nonce:"n" plaintext)

let cbc_lengths =
  QCheck.Test.make ~name:"cbc ciphertext length = padded length" ~count:200
    QCheck.string
    (fun plaintext ->
      let ct = Crypto.Cbc.encrypt ~key:"k" ~nonce:"n" plaintext in
      String.length ct = Crypto.Cbc.ciphertext_length (String.length plaintext))

let cbc_nonce_matters () =
  let ct1 = Crypto.Cbc.encrypt ~key:"k" ~nonce:"1" "same plaintext" in
  let ct2 = Crypto.Cbc.encrypt ~key:"k" ~nonce:"2" "same plaintext" in
  Alcotest.(check bool) "distinct ciphertexts" false (ct1 = ct2)

let cbc_malformed () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Cbc.decrypt: ciphertext length must be a positive multiple of 8")
    (fun () -> ignore (Crypto.Cbc.decrypt ~key:"k" ~nonce:"n" "abc"))

let vernam_involution =
  QCheck.Test.make ~name:"vernam decrypt after encrypt = id" ~count:300
    QCheck.(triple string string string)
    (fun (key, pad_id, msg) ->
      Crypto.Vernam.decrypt ~key ~pad_id (Crypto.Vernam.encrypt ~key ~pad_id msg)
      = msg)

let vernam_deterministic () =
  let a = Crypto.Vernam.encrypt_hex ~key:"k" ~pad_id:"tag" "patient" in
  let b = Crypto.Vernam.encrypt_hex ~key:"k" ~pad_id:"tag" "patient" in
  let c = Crypto.Vernam.encrypt_hex ~key:"k" ~pad_id:"other" "patient" in
  Alcotest.(check string) "same pad, same token" a b;
  Alcotest.(check bool) "different pad, different token" false (a = c)

let ope_encrypt ope xs = Array.to_list (Crypto.Ope.encrypt ope (Array.of_list xs))

let ope_monotone =
  QCheck.Test.make ~name:"ope strictly increasing" ~count:100
    QCheck.(pair small_string (list (int_bound 100_000)))
    (fun (key, xs) ->
      let ope = Crypto.Ope.create ~key ~domain_bits:20 in
      let xs =
        List.sort_uniq compare (List.map (fun x -> Int64.of_int (x mod (1 lsl 20))) xs)
      in
      let cs = ope_encrypt ope xs in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | [ _ ] | [] -> true
      in
      increasing cs)

let ope_roundtrip =
  QCheck.Test.make ~name:"ope decrypt after encrypt = id" ~count:100
    QCheck.(pair small_string (small_list (int_bound 1_000_000)))
    (fun (key, xs) ->
      let ope = Crypto.Ope.create ~key ~domain_bits:24 in
      let xs = List.sort compare (List.map (fun x -> Int64.of_int (x mod (1 lsl 24))) xs) in
      List.for_all2 (fun x c -> Crypto.Ope.decrypt ope c = x) xs (ope_encrypt ope xs))

let ope_key_dependent () =
  let a = Crypto.Ope.create ~key:"a" ~domain_bits:16 in
  let b = Crypto.Ope.create ~key:"b" ~domain_bits:16 in
  let xs = [ 0L; 1L; 100L; 1000L; 65535L ] in
  Alcotest.(check bool) "key changes mapping" true (ope_encrypt a xs <> ope_encrypt b xs)

let ope_rejects_invalid () =
  let ope = Crypto.Ope.create ~key:"k" ~domain_bits:8 in
  Alcotest.check_raises "domain check"
    (Invalid_argument "Ope.encrypt: plaintext out of domain")
    (fun () -> ignore (ope_encrypt ope [ 0L; 256L ]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Ope.encrypt: plaintext out of domain")
    (fun () -> ignore (ope_encrypt ope [ -1L ]));
  Alcotest.check_raises "descending"
    (Invalid_argument "Ope.encrypt: points not in ascending order")
    (fun () -> ignore (ope_encrypt ope [ 3L; 7L; 5L ]))

(* The per-point OPE walk as it stood before the batch descent: labels
   built with String.concat, Int64 arithmetic, the split PRF drawn at
   every node on the point's path.  The batch must equal it bit for
   bit. *)
let ope_reference ~key ~domain_bits x =
  let key = Crypto.Hmac.prepare ~key in
  let prf64 label = String.get_int64_be (Crypto.Hmac.mac_prepared key label) 0 in
  let leaf_offset ~dlo size =
    if size <= 1L then 0L
    else Int64.rem (Int64.shift_right_logical (prf64 ("ope-leaf\x00" ^ Int64.to_string dlo)) 1) size
  in
  let range_split ~depth ~dlo ~rlo ~rhi ~ldom ~rdom =
    let label =
      String.concat "" [ "ope-split\x00"; string_of_int depth; "\x00"; Int64.to_string dlo ]
    in
    let bits = Int64.to_int (Int64.shift_right_logical (prf64 label) 11) in
    let frac = 0.25 +. (Float.of_int bits /. 9007199254740992.0 *. 0.5) in
    let slack = Int64.sub (Int64.sub rhi rlo) (Int64.add ldom rdom) in
    Int64.add rlo (Int64.add ldom (Int64.of_float (Int64.to_float slack *. frac)))
  in
  let rec go ~depth ~dlo ~dhi ~rlo ~rhi =
    let dsize = Int64.sub dhi dlo in
    if dsize = 1L then Int64.add rlo (leaf_offset ~dlo (Int64.sub rhi rlo))
    else
      let half = Int64.shift_right_logical dsize 1 in
      let dmid = Int64.add dlo half in
      let rmid = range_split ~depth ~dlo ~rlo ~rhi ~ldom:half ~rdom:(Int64.sub dsize half) in
      if x < dmid then go ~depth:(depth + 1) ~dlo ~dhi:dmid ~rlo ~rhi:rmid
      else go ~depth:(depth + 1) ~dlo:dmid ~dhi ~rlo:rmid ~rhi
  in
  go ~depth:0 ~dlo:0L ~dhi:(Int64.shift_left 1L domain_bits) ~rlo:0L
    ~rhi:(Int64.shift_left 1L (domain_bits + 16))

(* Ascending point sets with repeats and both domain ends. *)
let ope_batch_arb =
  let open QCheck.Gen in
  let gen =
    int_range 1 40 >>= fun bits ->
    let top = (1 lsl bits) - 1 in
    small_string >>= fun key ->
    list_size (int_range 0 25) (int_bound top) >>= fun xs ->
    list_size (int_range 0 3) (oneofl (0 :: top :: xs)) >|= fun repeats ->
    key, bits, List.sort compare (List.map Int64.of_int ((0 :: top :: xs) @ repeats))
  in
  QCheck.make gen
    ~print:(fun (key, bits, xs) ->
      Printf.sprintf "key=%S bits=%d [%s]" key bits
        (String.concat "; " (List.map Int64.to_string xs)))

let ope_batch_is_pointwise =
  QCheck.Test.make ~name:"batch OPE = pointwise walk" ~count:150 ope_batch_arb
    (fun (key, domain_bits, xs) ->
      let ope = Crypto.Ope.create ~key ~domain_bits in
      let cs = ope_encrypt ope xs in
      List.for_all2 (fun x c -> c = ope_reference ~key ~domain_bits x) xs cs
      && List.for_all2 (fun x c -> Crypto.Ope.decrypt ope c = x) xs cs)

(* Ciphertexts of the per-point implementation, pinned: the batch keeps
   every OPESS code a hosting stores. *)
let ope_pinned () =
  let pin key domain_bits pairs =
    let ope = Crypto.Ope.create ~key ~domain_bits in
    Alcotest.(check (list int64))
      (Printf.sprintf "%s/%d" key domain_bits)
      (List.map snd pairs)
      (ope_encrypt ope (List.map fst pairs))
  in
  pin "ope-pin" 40
    [ 0L, 1517L;
      1L, 8121L;
      2L, 14040L;
      1_000_000L, 22553649131L;
      549_755_813_887L, 18047215350247340L;
      1_099_511_627_775L, 72057594037923957L ];
  pin "k" 8 [ 0L, 12253L; 1L, 57389L; 128L, 12532960L; 255L, 16771870L ];
  pin "k" 1 [ 0L, 39516L; 1L, 123334L ]

(* --- PRF kernel ---------------------------------------------------- *)

let prf_label_int =
  QCheck.Gen.(oneof [ return 0; return max_int; return (-1); nat; map abs int ])

(* An evaluation writes into the evaluator's own scratch: a hosting
   draws hundreds of thousands of them. *)
let prf_kernel_allocates_nothing () =
  let prf = Crypto.Hmac.prf (Crypto.Hmac.prepare ~key:"alloc") in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    Crypto.Hmac.eval prf "ope-split\x00" 17 i "";
    acc := !acc lxor Crypto.Hmac.bits prf 53 lxor Crypto.Hmac.below prf 10
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 10,000 evaluations" words)
    true (words < 100.0 && !acc >= 0)

let prf_kernel_agrees =
  QCheck.Test.make ~name:"PRF kernel = HMAC of the concatenated label" ~count:300
    (QCheck.make
       QCheck.Gen.(
         tup5 (string_size (int_range 0 80)) (string_size (int_range 0 90))
           (pair prf_label_int prf_label_int)
           (string_size (int_range 0 200))
           (oneof [ return 1; return 10; return max_int; int_range 1 1_000_000 ])))
    (fun (key, prefix, (i, j), suffix, bound) ->
      let prepared = Crypto.Hmac.prepare ~key in
      let label =
        String.concat ""
          [ prefix;
            (if i >= 0 then string_of_int i else "");
            (if j >= 0 then "\x00" ^ string_of_int j else "");
            suffix ]
      in
      let first64 = String.get_int64_be (Crypto.Hmac.mac_prepared prepared label) 0 in
      let prf = Crypto.Hmac.prf prepared in
      Crypto.Hmac.eval prf prefix i j suffix;
      Crypto.Hmac.bits prf 62 = Int64.to_int (Int64.shift_right_logical first64 2)
      && Crypto.Hmac.bits prf 53 = Int64.to_int (Int64.shift_right_logical first64 11)
      && Crypto.Hmac.below prf bound
         = Int64.to_int
             (Int64.rem (Int64.shift_right_logical first64 1) (Int64.of_int bound)))

(* A block's IV, derived in parts with no allocation, is the leading
   bytes of the HMAC the cipher derives from the block's nonce string,
   under either suite's key. *)
let block_iv_agrees =
  QCheck.Test.make ~name:"Keys.block_iv = HMAC of \"cbc-iv\\x00\" ^ block_nonce" ~count:200
    QCheck.(triple bool (int_bound 1_000_000) (int_bound 50))
    (fun (aes, block_id, generation) ->
      let suite = if aes then Crypto.Cipher.Aes else Crypto.Cipher.Xtea in
      let keys = Crypto.Keys.create ~suite ~master:"iv" () in
      let prf = Crypto.Keys.block_iv_prf keys in
      let iv = Bytes.make 20 '\255' in
      Crypto.Keys.block_iv prf ~generation ~block_id iv 2;
      let expected =
        Crypto.Hmac.mac_prepared
          (Crypto.Cipher.iv_key (Crypto.Keys.block_cipher keys))
          ("cbc-iv\x00" ^ Crypto.Keys.block_nonce keys ~generation ~block_id ())
      in
      Bytes.sub_string iv 2 Crypto.Cipher.iv_bytes = String.sub expected 0 Crypto.Cipher.iv_bytes
      && Bytes.get iv 1 = '\255'
      && Bytes.get iv (2 + Crypto.Cipher.iv_bytes) = '\255'
      && Crypto.Hmac.matches prf expected 0 32
      && not
           (Crypto.Hmac.matches prf
              (String.mapi (fun i c -> if i = 31 then Char.chr (Char.code c lxor 1) else c) expected)
              0 32))

(* --- AES and cipher suites ---------------------------------------- *)

let aes_vectors () =
  (* FIPS-197 Appendix B. *)
  let key = Crypto.Aes.key_of_raw (hex_to_string "2b7e151628aed2a6abf7158809cf4f3c") in
  let block = Bytes.of_string (hex_to_string "3243f6a8885a308d313198a2e0370734") in
  Crypto.Aes.encrypt_block key block 0;
  Alcotest.(check string) "fips-197" "3925841d02dc09fbdc118597196a0b32"
    (bytes_to_hex block);
  Crypto.Aes.decrypt_block key block 0;
  Alcotest.(check string) "inverse" "3243f6a8885a308d313198a2e0370734"
    (bytes_to_hex block);
  (* NIST SP800-38A ECB-AES128, blocks 1 and 2. *)
  List.iter
    (fun (pt, expected) ->
      let b = Bytes.of_string (hex_to_string pt) in
      Crypto.Aes.encrypt_block key b 0;
      Alcotest.(check string) pt expected (bytes_to_hex b))
    [ "6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97";
      "ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf" ];
  Alcotest.check_raises "raw key length"
    (Invalid_argument "Aes.key_of_raw: need 16 bytes")
    (fun () -> ignore (Crypto.Aes.key_of_raw "short"))

let cipher_suite_roundtrips =
  QCheck.Test.make ~name:"cipher suites roundtrip" ~count:200
    QCheck.(triple (oneofl [ Crypto.Cipher.Xtea; Crypto.Cipher.Aes ]) string string)
    (fun (suite, key, plaintext) ->
      let prepared = Crypto.Cipher.prepare suite key in
      let ct = Crypto.Cipher.encrypt prepared ~nonce:"n" plaintext in
      Crypto.Cipher.decrypt prepared ~nonce:"n" ct = plaintext
      && String.length ct
         = Crypto.Cipher.ciphertext_length suite (String.length plaintext))

let cipher_prefix_agrees =
  QCheck.Test.make ~name:"cipher prefix decrypt = whole decrypt" ~count:200
    QCheck.(triple (oneofl [ Crypto.Cipher.Xtea; Crypto.Cipher.Aes ]) string string)
    (fun (suite, trailer, plaintext) ->
      let prepared = Crypto.Cipher.prepare suite "k" in
      let ct = Crypto.Cipher.encrypt prepared ~nonce:"n" plaintext in
      Crypto.Cipher.decrypt prepared ~nonce:"n" ~len:(String.length ct) (ct ^ trailer)
      = plaintext)

let cipher_suites_differ () =
  let xtea = Crypto.Cipher.prepare Crypto.Cipher.Xtea "k" in
  let aes = Crypto.Cipher.prepare Crypto.Cipher.Aes "k" in
  Alcotest.(check bool) "distinct ciphertexts" false
    (Crypto.Cipher.encrypt xtea ~nonce:"n" "same input padded to len"
     = Crypto.Cipher.encrypt aes ~nonce:"n" "same input padded to len");
  Alcotest.(check (option string)) "suite naming roundtrip" (Some "aes")
    (Option.map Crypto.Cipher.suite_to_string (Crypto.Cipher.suite_of_string "aes"))

let prng_deterministic () =
  let a = Crypto.Prng.create 5L and b = Crypto.Prng.create 5L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Crypto.Prng.next64 a) (Crypto.Prng.next64 b)
  done

let prng_bounds =
  QCheck.Test.make ~name:"prng int within bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Crypto.Prng.create seed in
      let x = Crypto.Prng.int rng bound in
      x >= 0 && x < bound)

let prng_float_bounds =
  QCheck.Test.make ~name:"prng float_in within bounds" ~count:500 QCheck.int64
    (fun seed ->
      let rng = Crypto.Prng.create seed in
      let x = Crypto.Prng.float_in rng 0.25 0.75 in
      x >= 0.25 && x < 0.75)

let prng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200 QCheck.int64
    (fun seed ->
      let rng = Crypto.Prng.create seed in
      let a = Array.init 50 (fun i -> i) in
      Crypto.Prng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.init 50 (fun i -> i))

let keys_derivation () =
  let keys = Crypto.Keys.create ~master:"m" () in
  Alcotest.(check bool) "labels separate" false
    (Crypto.Keys.derive keys "a" = Crypto.Keys.derive keys "b");
  Alcotest.(check string) "memoised and stable"
    (Crypto.Sha256.to_hex (Crypto.Keys.derive keys "a"))
    (Crypto.Sha256.to_hex (Crypto.Keys.derive keys "a"));
  let keys2 = Crypto.Keys.create ~master:"m2" () in
  Alcotest.(check bool) "master matters" false
    (Crypto.Keys.derive keys "a" = Crypto.Keys.derive keys2 "a")

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "FIPS vectors" `Quick sha256_vectors;
          Alcotest.test_case "incremental" `Quick sha256_incremental;
          Alcotest.test_case "padding sweep" `Quick sha256_padding_sweep ] );
      ( "hmac",
        Alcotest.test_case "vectors" `Quick hmac_vectors
        :: List.map QCheck_alcotest.to_alcotest [ hmac_prepared_agrees; hmac_slice_agrees ] );
      ( "xtea",
        [ Alcotest.test_case "sanity" `Quick xtea_differs;
          Alcotest.test_case "known answers" `Quick xtea_known_answers ]
        @ List.map QCheck_alcotest.to_alcotest [ xtea_roundtrip ] );
      ( "cbc",
        [ Alcotest.test_case "nonce matters" `Quick cbc_nonce_matters;
          Alcotest.test_case "malformed input" `Quick cbc_malformed ]
        @ List.map QCheck_alcotest.to_alcotest
            [ cbc_roundtrip; cbc_prepared_agrees; cbc_lengths ] );
      ( "vernam",
        Alcotest.test_case "deterministic tokens" `Quick vernam_deterministic
        :: List.map QCheck_alcotest.to_alcotest [ vernam_involution ] );
      ( "ope",
        [ Alcotest.test_case "invalid inputs" `Quick ope_rejects_invalid;
          Alcotest.test_case "key dependent" `Quick ope_key_dependent;
          Alcotest.test_case "pinned ciphertexts" `Quick ope_pinned ]
        @ List.map QCheck_alcotest.to_alcotest
            [ ope_monotone; ope_roundtrip; ope_batch_is_pointwise ] );
      ( "prf",
        Alcotest.test_case "allocates nothing" `Quick prf_kernel_allocates_nothing
        :: List.map QCheck_alcotest.to_alcotest [ prf_kernel_agrees; block_iv_agrees ] );
      ( "aes",
        [ Alcotest.test_case "FIPS/NIST vectors" `Quick aes_vectors;
          Alcotest.test_case "suites differ" `Quick cipher_suites_differ ]
        @ List.map QCheck_alcotest.to_alcotest
            [ cipher_suite_roundtrips; cipher_prefix_agrees ] );
      ( "prng",
        Alcotest.test_case "deterministic" `Quick prng_deterministic
        :: List.map QCheck_alcotest.to_alcotest
             [ prng_bounds; prng_float_bounds; prng_shuffle_permutes ] );
      ("keys", [ Alcotest.test_case "derivation" `Quick keys_derivation ]) ]
