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

let ope_monotone =
  QCheck.Test.make ~name:"ope strictly increasing" ~count:100
    QCheck.(pair small_string (list (int_bound 100_000)))
    (fun (key, xs) ->
      let ope = Crypto.Ope.create ~key ~domain_bits:20 in
      let xs =
        List.sort_uniq compare (List.map (fun x -> Int64.of_int (x mod (1 lsl 20))) xs)
      in
      let cs = List.map (Crypto.Ope.encrypt ope) xs in
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
      List.for_all
        (fun x ->
          let x = Int64.of_int (x mod (1 lsl 24)) in
          Crypto.Ope.decrypt ope (Crypto.Ope.encrypt ope x) = x)
        xs)

let ope_key_dependent () =
  let a = Crypto.Ope.create ~key:"a" ~domain_bits:16 in
  let b = Crypto.Ope.create ~key:"b" ~domain_bits:16 in
  let differs =
    List.exists
      (fun x -> Crypto.Ope.encrypt a (Int64.of_int x) <> Crypto.Ope.encrypt b (Int64.of_int x))
      [ 0; 1; 100; 1000; 65535 ]
  in
  Alcotest.(check bool) "key changes mapping" true differs

let ope_rejects_invalid () =
  let ope = Crypto.Ope.create ~key:"k" ~domain_bits:8 in
  Alcotest.check_raises "domain check"
    (Invalid_argument "Ope.encrypt: plaintext out of domain")
    (fun () -> ignore (Crypto.Ope.encrypt ope 256L))

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
          Alcotest.test_case "key dependent" `Quick ope_key_dependent ]
        @ List.map QCheck_alcotest.to_alcotest [ ope_monotone; ope_roundtrip ] );
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
