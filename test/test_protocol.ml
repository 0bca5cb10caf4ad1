(* Wire protocol tests: request/response codecs. *)

module Squery = Secure.Squery
module Protocol = Secure.Protocol
module System = Secure.System

let translate_all () =
  (* Translate a battery of real queries and roundtrip each request. *)
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Secure.Scheme.Opt in
  List.iter
    (fun q ->
      let squery = Secure.Client.translate (System.client sys) (Xpath.Parser.parse q) in
      let roundtripped = Protocol.decode_request (Protocol.encode_request squery) in
      Alcotest.(check string) q (Squery.to_string squery)
        (Squery.to_string roundtripped))
    [ "//patient"; "//patient[pname='Betty']//disease"; "//insurance/policy#";
      "//patient[.//insurance//@coverage>='10000']//SSN"; "//*";
      "//disease/.."; "//pname/following-sibling::SSN";
      "//treat[disease='flu'][doctor!='Smith']/doctor";
      "/hospital/patient/age" ]

let response_roundtrip () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Secure.Scheme.Opt in
  let squery =
    Secure.Client.translate (System.client sys)
      (Xpath.Parser.parse "//patient[pname='Betty']//disease")
  in
  let response = Secure.Server.answer (System.server sys) squery in
  let rt = Protocol.decode_response (Protocol.encode_response response) in
  Alcotest.(check int) "block count"
    (List.length response.Secure.Server.blocks)
    (List.length rt.Secure.Server.blocks);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "id" a.Secure.Encrypt.id b.Secure.Encrypt.id;
      Alcotest.(check string) "ciphertext" a.Secure.Encrypt.ciphertext
        b.Secure.Encrypt.ciphertext;
      Alcotest.(check bool) "decoy flag" a.Secure.Encrypt.has_decoy
        b.Secure.Encrypt.has_decoy)
    response.Secure.Server.blocks rt.Secure.Server.blocks;
  Alcotest.(check int) "stats" response.Secure.Server.btree_hits
    rt.Secure.Server.btree_hits

let malformed_rejected () =
  let rejects data =
    match Protocol.decode_request data with
    | _ -> Alcotest.failf "%S should be rejected" data
    | exception Protocol.Malformed _ -> ()
  in
  rejects "";
  rejects "\255\255\255\255\255\255\255\255";
  rejects (String.make 100 '\000' ^ "x");
  (* Valid prefix with trailing garbage. *)
  let good =
    Protocol.encode_request
      { Squery.absolute = true;
        steps =
          [ { Squery.axis = Xpath.Ast.Child;
              test = Squery.Tokens [ Squery.Clear "a" ];
              predicates = [] } ] }
  in
  rejects (good ^ "junk");
  (match Protocol.decode_response "\001" with
   | _ -> Alcotest.fail "bad response accepted"
   | exception Protocol.Malformed _ -> ())

(* --- Adversarial-bytes fuzzing ------------------------------------- *)

(* The wire decoders face attacker-controlled bytes; the contract is
   that the only exception they may raise is [Protocol.Malformed] — no
   Invalid_argument, Failure, Stack_overflow or out-of-bounds escape.
   Seeded, so every run covers the same corpus. *)

let decode_only_malformed ~what decode data =
  match decode data with
  | _ -> ()
  | exception Protocol.Malformed _ -> ()
  | exception e ->
    Alcotest.failf "%s on %d bytes leaked %s" what (String.length data)
      (Printexc.to_string e)

let fuzz_decoders () =
  let prng = Crypto.Prng.create 0xF022EDL in
  let random_buffer () =
    String.init (Crypto.Prng.int prng 300) (fun _ ->
        Char.chr (Crypto.Prng.int prng 256))
  in
  (* Valid encodings to truncate and bit-flip. *)
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Secure.Scheme.Opt in
  let requests =
    List.map
      (fun q ->
        Protocol.encode_request
          (Secure.Client.translate (System.client sys) (Xpath.Parser.parse q)))
      [ "//patient[pname='Betty']//disease"; "//insurance/policy#";
        "//treat[disease='flu'][doctor!='Smith']/doctor"; "//*" ]
  in
  let responses =
    List.map
      (fun q ->
        Protocol.encode_response
          (Secure.Server.answer (System.server sys)
             (Secure.Client.translate (System.client sys) (Xpath.Parser.parse q))))
      [ "//patient"; "//disease" ]
  in
  let truncated data =
    String.sub data 0 (Crypto.Prng.int prng (String.length data))
  in
  let flipped data =
    let b = Bytes.of_string data in
    let i = Crypto.Prng.int prng (Bytes.length b) in
    let bit = 1 lsl Crypto.Prng.int prng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
    Bytes.to_string b
  in
  for _ = 1 to 2000 do
    let buf = random_buffer () in
    decode_only_malformed ~what:"decode_request" Protocol.decode_request buf;
    decode_only_malformed ~what:"decode_any" Protocol.decode_any buf;
    decode_only_malformed ~what:"decode_extreme" Protocol.decode_extreme buf;
    (* The same bytes behind the extreme magic reach its decoder. *)
    decode_only_malformed ~what:"decode_extreme (magic)" Protocol.decode_extreme
      ("\004" ^ buf);
    decode_only_malformed ~what:"decode_response" Protocol.decode_response buf
  done;
  (* The versioned variants under the same truncate/flip battery. *)
  List.iter
    (fun data ->
      for _ = 1 to 500 do
        decode_only_malformed ~what:"decode_any (truncated)"
          Protocol.decode_any (truncated data);
        decode_only_malformed ~what:"decode_any (flipped)" Protocol.decode_any
          (flipped data)
      done)
    [ Protocol.encode_fetch [ 1; 2; 3; 4 ];
      Protocol.encode_padded
        (Secure.Client.translate (System.client sys)
           (Xpath.Parser.parse "//patient//disease"))
        [ 9; 11; 13 ] ];
  List.iter
    (fun data ->
      for _ = 1 to 500 do
        decode_only_malformed ~what:"decode_request (truncated)"
          Protocol.decode_request (truncated data);
        decode_only_malformed ~what:"decode_request (flipped)"
          Protocol.decode_request (flipped data)
      done)
    requests;
  List.iter
    (fun data ->
      for _ = 1 to 200 do
        decode_only_malformed ~what:"decode_response (truncated)"
          Protocol.decode_response (truncated data);
        decode_only_malformed ~what:"decode_response (flipped)"
          Protocol.decode_response (flipped data)
      done)
    responses;
  (* Last, so the draws above cover the corpus they always covered. *)
  let extreme =
    Protocol.encode_extreme
      { Protocol.query =
          Secure.Client.translate (System.client sys) (Xpath.Parser.parse "//patient/age");
        key_range = -5L, 1_000_000L;
        direction = `Min }
  in
  for _ = 1 to 500 do
    decode_only_malformed ~what:"decode_extreme (truncated)" Protocol.decode_extreme
      (truncated extreme);
    decode_only_malformed ~what:"decode_extreme (flipped)" Protocol.decode_extreme
      (flipped extreme)
  done

let deep_nesting_rejected () =
  (* A hand-built predicate tower deeper than any honest translation:
     the depth guard must reject it with Malformed, not blow the
     stack.  Encoding: P_not^n wrapping an Exists of an empty relative
     path, hung off a single child step. *)
  let b = Buffer.create 4096 in
  let module W = Secure.Codec.W in
  W.bool b false;            (* relative *)
  W.int b 1;                 (* one step *)
  W.int b 0;                 (* Child axis *)
  W.bool b true;             (* Any test *)
  W.int b 1;                 (* one predicate *)
  for _ = 1 to 10_000 do
    W.int b 4                (* P_not *)
  done;
  W.int b 0;                 (* Exists *)
  W.bool b false;            (* relative path *)
  W.int b 0;                 (* no steps *)
  (match Protocol.decode_request (Buffer.contents b) with
   | _ -> Alcotest.fail "unbounded nesting accepted"
   | exception Protocol.Malformed m ->
     Alcotest.(check string) "depth guard fired" "nesting too deep" m);
  (* An implausible list count (larger than the remaining buffer) is
     rejected up front rather than attempted. *)
  let b = Buffer.create 16 in
  W.bool b false;
  W.int b 1_000_000;
  match Protocol.decode_request (Buffer.contents b) with
  | _ -> Alcotest.fail "implausible count accepted"
  | exception Protocol.Malformed _ -> ()

(* Random squery generator for the roundtrip property. *)
let squery_gen =
  let open QCheck.Gen in
  let token =
    oneof
      [ map (fun s -> Squery.Clear ("t" ^ s)) (string_size (int_range 0 5));
        map (fun s -> Squery.Enc s) (string_size (int_range 1 16)) ]
  in
  let test =
    oneof
      [ return Squery.Any;
        map (fun ts -> Squery.Tokens ts) (list_size (int_range 1 3) token) ]
  in
  let axis =
    oneofl
      [ Xpath.Ast.Child; Xpath.Ast.Descendant_or_self; Xpath.Ast.Parent;
        Xpath.Ast.Following_sibling ]
  in
  let rec path depth =
    let* absolute = bool in
    let* steps = list_size (int_range 1 3) (step depth) in
    return { Squery.absolute; steps }
  and step depth =
    let* axis = axis in
    let* test = test in
    let* predicates =
      if depth = 0 then return []
      else list_size (int_range 0 2) (predicate (depth - 1))
    in
    return { Squery.axis; test; predicates }
  and predicate depth =
    let* choice = int_range 0 (if depth = 0 then 1 else 4) in
    match choice with
    | 0 ->
      let* q = path depth in
      return (Squery.Exists q)
    | 1 ->
      let* q = path depth in
      let* ranges =
        list_size (int_range 0 2)
          (map2 (fun a b -> Int64.of_int (min a b), Int64.of_int (max a b)) nat nat)
      in
      let* known = bool in
      return
        (Squery.Value (q, if known then Squery.Ranges ranges else Squery.Unknown))
    | 2 ->
      let* a = predicate (depth - 1) in
      let* b = predicate (depth - 1) in
      return (Squery.P_and (a, b))
    | 3 ->
      let* a = predicate (depth - 1) in
      let* b = predicate (depth - 1) in
      return (Squery.P_or (a, b))
    | _ ->
      let* a = predicate (depth - 1) in
      return (Squery.P_not a)
  in
  path 2

let request_roundtrip_prop =
  QCheck.Test.make ~name:"encode/decode request = id" ~count:300
    (QCheck.make ~print:Squery.to_string squery_gen)
    (fun q ->
      Squery.to_string (Protocol.decode_request (Protocol.encode_request q))
      = Squery.to_string q)

(* --- Versioned request variants (Fetch / Padded) -------------------- *)

let variants_roundtrip () =
  let doc = Workload.Health.doc () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup doc scs Secure.Scheme.Opt in
  let squery =
    Secure.Client.translate (System.client sys)
      (Xpath.Parser.parse "//patient[pname='Betty']//disease")
  in
  (* Honest queries keep decoding as Query — the variant magic bytes
     are unreachable from the legacy encoding's first byte. *)
  (match Protocol.decode_any (Protocol.encode_request squery) with
   | Protocol.Query q ->
     Alcotest.(check string) "query survives" (Squery.to_string squery)
       (Squery.to_string q)
   | Protocol.Fetch _ | Protocol.Padded _ ->
     Alcotest.fail "honest request must decode as Query");
  (match Protocol.decode_any (Protocol.encode_fetch [ 3; 1; 4; 1; 5 ]) with
   | Protocol.Fetch ids ->
     Alcotest.(check (list int)) "fetch ids survive" [ 3; 1; 4; 1; 5 ] ids
   | Protocol.Query _ | Protocol.Padded _ ->
     Alcotest.fail "fetch must decode as Fetch");
  (match Protocol.decode_any (Protocol.encode_padded squery [ 9; 2 ]) with
   | Protocol.Padded (q, extra) ->
     Alcotest.(check string) "padded query survives" (Squery.to_string squery)
       (Squery.to_string q);
     Alcotest.(check (list int)) "envelope survives" [ 9; 2 ] extra
   | Protocol.Query _ | Protocol.Fetch _ ->
     Alcotest.fail "padded must decode as Padded");
  match Protocol.decode_any "" with
  | _ -> Alcotest.fail "empty request must be rejected"
  | exception Protocol.Malformed _ -> ()

(* A plain query's first byte is its absolute flag, so every leading
   byte that flag and the variant magics do not claim is garbage: an
   honest request that starts with one must not decode as a relative
   path. *)
let unclaimed_leading_bytes_rejected () =
  let sys, _ =
    System.setup (Workload.Health.doc ()) (Workload.Health.constraints ()) Secure.Scheme.Opt
  in
  let request =
    Protocol.encode_request
      (Secure.Client.translate (System.client sys) (Xpath.Parser.parse "//patient/pname"))
  in
  for c = 5 to 255 do
    let data = Bytes.of_string request in
    Bytes.set data 0 (Char.chr c);
    let data = Bytes.to_string data in
    (match Protocol.decode_request data with
     | _ -> Alcotest.failf "decode_request accepted leading byte %d" c
     | exception Protocol.Malformed _ -> ());
    match Protocol.decode_any data with
    | _ -> Alcotest.failf "decode_any accepted leading byte %d" c
    | exception Protocol.Malformed _ -> ()
  done

(* The MIN/MAX request: its own magic byte, which [decode_any] rejects
   as an older server would, and which no other encoding starts with. *)
let extreme_roundtrip () =
  let sys, _ =
    System.setup (Workload.Health.doc ()) (Workload.Health.constraints ()) Secure.Scheme.Opt
  in
  let query =
    Secure.Client.translate (System.client sys) (Xpath.Parser.parse "//patient/age")
  in
  List.iter
    (fun (key_range, direction) ->
      let e = { Protocol.query; key_range; direction } in
      let data = Protocol.encode_extreme e in
      (match Protocol.decode_extreme data with
       | Some d ->
         Alcotest.(check string) "query survives" (Squery.to_string query)
           (Squery.to_string d.Protocol.query);
         Alcotest.(check bool) "key range survives" true (d.Protocol.key_range = key_range);
         Alcotest.(check bool) "direction survives" true (d.Protocol.direction = direction)
       | None -> Alcotest.fail "extreme request not recognised");
      match Protocol.decode_any data with
      | _ -> Alcotest.fail "decode_any accepted an extreme request"
      | exception Protocol.Malformed _ -> ())
    [ (0L, 1L), `Max; (-7L, Int64.max_int), `Min ];
  List.iter
    (fun data ->
      Alcotest.(check bool) "other requests are not extreme" true
        (Protocol.decode_extreme data = None))
    [ Protocol.encode_request query; Protocol.encode_fetch [ 1; 2 ];
      Protocol.encode_padded query [ 3 ]; "" ]

(* The encodings' bytes, pinned: the SHA-256 of one fixed request and
   of its response, as the codec wrote them when it built each 64-bit
   word a byte at a time.  A codec that writes and reads whole words
   must keep every byte. *)
let pinned_bytes () =
  let sys, _ =
    System.setup (Workload.Health.doc ()) (Workload.Health.constraints ()) Secure.Scheme.Opt
  in
  let squery =
    Secure.Client.translate (System.client sys)
      (Xpath.Parser.parse "//patient[pname='Betty']//disease")
  in
  let request = Protocol.encode_request squery in
  let response = Protocol.encode_response (Secure.Server.answer (System.server sys) squery) in
  Alcotest.(check (pair int string)) "request"
    (184, "96a868b33a0e4659e07b74b692e2eafb2a0df2a8bc98a0027e435ff2fb86ccc5")
    (String.length request, Crypto.Sha256.hex request);
  Alcotest.(check (pair int string)) "response"
    (460, "7415fe7cfd8a825e04c0a77025b8f639bbcaa7289cfd3e83e73d925248c5c515")
    (String.length response, Crypto.Sha256.hex response)

let () =
  Alcotest.run "protocol"
    [ ( "requests",
        [ Alcotest.test_case "real queries roundtrip" `Quick translate_all;
          Alcotest.test_case "malformed rejected" `Quick malformed_rejected;
          Alcotest.test_case "fetch/padded variants roundtrip" `Quick
            variants_roundtrip;
          Alcotest.test_case "extreme request roundtrip" `Quick extreme_roundtrip;
          Alcotest.test_case "unclaimed leading bytes rejected" `Quick
            unclaimed_leading_bytes_rejected ]
        @ List.map QCheck_alcotest.to_alcotest [ request_roundtrip_prop ] );
      ( "responses",
        [ Alcotest.test_case "roundtrip" `Quick response_roundtrip;
          Alcotest.test_case "pinned bytes" `Quick pinned_bytes ] );
      ( "adversarial",
        [ Alcotest.test_case "fuzzed buffers" `Quick fuzz_decoders;
          Alcotest.test_case "deep nesting" `Quick deep_nesting_rejected ] ) ]
