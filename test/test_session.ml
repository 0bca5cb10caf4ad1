(* Session layer tests: frame codec, retry policy, replay cache, and
   the deterministic fault schedule of the faulty transport. *)

module Transport = Secure.Transport
module Session = Secure.Session

let mac_key =
  Crypto.Keys.derive (Crypto.Keys.create ~master:"sess-test" ()) "session-mac"

(* --- Frame codec --------------------------------------------------- *)

let frame_roundtrip () =
  List.iter
    (fun payload ->
      let frame =
        Session.encode_frame ~mac_key ~kind:Session.Request ~seq:42L payload
      in
      match Session.decode_frame ~mac_key ~expect:Session.Request frame with
      | Ok (seq, got) ->
        Alcotest.(check int64) "seq" 42L seq;
        Alcotest.(check string) "payload" payload got
      | Error e -> Alcotest.failf "roundtrip failed: %s" (Session.error_to_string e))
    [ ""; "x"; String.make 1000 '\255'; "payload with \000 bytes \001" ]

let frame_tamper_detected () =
  let frame = Session.encode_frame ~mac_key ~kind:Session.Request ~seq:7L "hello" in
  (* Flip one bit at every byte position: always Tampered or Malformed,
     never an accept and never a stray exception. *)
  for i = 0 to String.length frame - 1 do
    let b = Bytes.of_string frame in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
    match Session.decode_frame ~mac_key ~expect:Session.Request (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "bit flip at %d accepted" i
    | Error (Session.Tampered | Session.Malformed) -> ()
    | Error e ->
      Alcotest.failf "bit flip at %d: unexpected %s" i (Session.error_to_string e)
  done

let frame_truncation_detected () =
  let frame = Session.encode_frame ~mac_key ~kind:Session.Response ~seq:9L "body" in
  for keep = 0 to String.length frame - 1 do
    match
      Session.decode_frame ~mac_key ~expect:Session.Response
        (String.sub frame 0 keep)
    with
    | Ok _ -> Alcotest.failf "truncation to %d accepted" keep
    | Error (Session.Malformed | Session.Tampered) -> ()
    | Error e ->
      Alcotest.failf "truncation to %d: unexpected %s" keep
        (Session.error_to_string e)
  done

let frame_direction_and_seq () =
  let frame = Session.encode_frame ~mac_key ~kind:Session.Request ~seq:3L "p" in
  (* A reflected request must not pass as a response. *)
  (match Session.decode_frame ~mac_key ~expect:Session.Response frame with
   | Error Session.Malformed -> ()
   | Ok _ -> Alcotest.fail "reflected request accepted as response"
   | Error e -> Alcotest.failf "unexpected %s" (Session.error_to_string e));
  (* Authentic frame for the wrong sequence number is Stale. *)
  (match Session.decode_frame ~mac_key ~expect:Session.Request ~expect_seq:4L frame with
   | Error Session.Stale -> ()
   | Ok _ -> Alcotest.fail "wrong seq accepted"
   | Error e -> Alcotest.failf "unexpected %s" (Session.error_to_string e));
  (* Wrong MAC key is Tampered. *)
  let other = Crypto.Keys.derive (Crypto.Keys.create ~master:"other" ()) "session-mac" in
  match Session.decode_frame ~mac_key:other ~expect:Session.Request frame with
  | Error Session.Tampered -> ()
  | Ok _ -> Alcotest.fail "wrong key accepted"
  | Error e -> Alcotest.failf "unexpected %s" (Session.error_to_string e)

(* Byte pin, captured before framing was rewritten to work in place:
   a short frame in full and a multi-block one by digest. *)
let frame_pin () =
  let mac_key = "pin-session-key" in
  Alcotest.(check string) "short frame"
    "5358534631000300000000000000030000000000000070696eb532f6a068923aa6\
     24eb002d753ce5544249b4649278f80b45c4cf22862740f5"
    (Crypto.Sha256.to_hex
       (Session.encode_frame ~mac_key ~kind:Session.Request ~seq:3L "pin"));
  let payload = String.init 100 (fun i -> Char.chr ((i * 13 + 5) land 0xFF)) in
  let frame = Session.encode_frame ~mac_key ~kind:Session.Response ~seq:7L payload in
  Alcotest.(check int) "frame length" 154 (String.length frame);
  Alcotest.(check string) "frame digest"
    "e95be7269e9b63ff2747c4072d85de9afdfd454aa0f59ffddb6a04d49e0d255a"
    (Crypto.Sha256.hex frame)

(* --- Client retry policy ------------------------------------------- *)

let echo_endpoint () =
  Session.endpoint ~mac_key ~handler:(fun payload -> "echo:" ^ payload) ()

let clean_call () =
  let ep = echo_endpoint () in
  let client = Session.client ~mac_key (Transport.loopback (Session.serve ep)) in
  (match Session.call client "ping" with
   | Ok r -> Alcotest.(check string) "response" "echo:ping" r
   | Error e -> Alcotest.failf "clean call failed: %s" (Session.error_to_string e));
  let s = Session.stats client in
  Alcotest.(check int) "one attempt" 1 s.Session.attempts;
  Alcotest.(check int) "no retries" 0 s.Session.retries;
  Alcotest.(check int) "no retransmitted bytes" 0 s.Session.retransmitted_bytes

let retry_absorbs_transient_drop () =
  (* Handler loses the first delivery of every fresh request; the retry
     must succeed and the fault be absorbed. *)
  let ep = echo_endpoint () in
  let first = ref true in
  let flaky frame =
    if !first then begin
      first := false;
      raise Transport.Dropped
    end
    else Session.serve ep frame
  in
  let client = Session.client ~mac_key (Transport.loopback flaky) in
  (match Session.call client "once" with
   | Ok r -> Alcotest.(check string) "response" "echo:once" r
   | Error e -> Alcotest.failf "retry should recover: %s" (Session.error_to_string e));
  let s = Session.stats client in
  Alcotest.(check int) "two attempts" 2 s.Session.attempts;
  Alcotest.(check int) "one retry" 1 s.Session.retries;
  Alcotest.(check int) "one timeout recorded" 1 s.Session.timeouts;
  Alcotest.(check int) "fault absorbed" 1 (Session.faults_absorbed s);
  Alcotest.(check bool) "retransmitted bytes counted" true
    (s.Session.retransmitted_bytes > 0);
  Alcotest.(check bool) "backoff accumulated" true (s.Session.backoff_ms > 0.0)

let gives_up_on_total_loss () =
  let ep = echo_endpoint () in
  let transport =
    Transport.faulty ~profile:(Transport.chaos ~drop:1.0 ()) ~seed:1L
      (Transport.loopback (Session.serve ep))
  in
  let config = { Session.default_config with Session.max_attempts = 3 } in
  let client = Session.client ~config ~mac_key transport in
  (match Session.call client "void" with
   | Error (Session.Gave_up 3) -> ()
   | Ok _ -> Alcotest.fail "call cannot succeed on a dead link"
   | Error e -> Alcotest.failf "expected Gave_up 3, got %s" (Session.error_to_string e));
  let s = Session.stats client in
  Alcotest.(check int) "three attempts" 3 s.Session.attempts;
  Alcotest.(check int) "gave up once" 1 s.Session.gave_up;
  (* Backoff doubles from the base and is capped. *)
  Alcotest.(check bool) "backoff simulated, never slept" true
    (s.Session.backoff_ms
     <= float_of_int s.Session.attempts *. config.Session.max_backoff_ms)

let corruption_is_detected_and_retried () =
  (* Corrupt the first response's MAC only; the retry must recover. *)
  let ep = echo_endpoint () in
  let corrupted = ref 0 in
  let corrupt frame =
    let r = Bytes.of_string (Session.serve ep frame) in
    if !corrupted = 0 then begin
      incr corrupted;
      let last = Bytes.length r - 1 in
      Bytes.set r last (Char.chr (Char.code (Bytes.get r last) lxor 1))
    end;
    Bytes.to_string r
  in
  let client = Session.client ~mac_key (Transport.loopback corrupt) in
  (match Session.call client "x" with
   | Ok r -> Alcotest.(check string) "recovered" "echo:x" r
   | Error e -> Alcotest.failf "retry should recover: %s" (Session.error_to_string e));
  let s = Session.stats client in
  Alcotest.(check int) "tampering classified" 1 s.Session.tampered;
  Alcotest.(check int) "no timeouts" 0 s.Session.timeouts;
  Alcotest.(check int) "fault absorbed" 1 (Session.faults_absorbed s)

(* --- Server-side replay cache -------------------------------------- *)

let replay_answered_from_cache () =
  let evaluations = ref 0 in
  let ep =
    Session.endpoint ~mac_key
      ~handler:(fun p -> incr evaluations; "r:" ^ p)
      ()
  in
  let frame = Session.encode_frame ~mac_key ~kind:Session.Request ~seq:1L "dup" in
  let r1 = Session.serve ep frame in
  let r2 = Session.serve ep frame in
  Alcotest.(check string) "identical responses" r1 r2;
  Alcotest.(check int) "handler ran once" 1 !evaluations;
  let s = Session.endpoint_stats ep in
  Alcotest.(check int) "served" 1 s.Session.served;
  Alcotest.(check int) "replayed" 1 s.Session.replayed

let replay_cache_is_bounded () =
  let evaluations = ref 0 in
  let ep =
    Session.endpoint ~replay_cache:2 ~mac_key
      ~handler:(fun p -> incr evaluations; p)
      ()
  in
  let frame i =
    Session.encode_frame ~mac_key ~kind:Session.Request ~seq:(Int64.of_int i)
      (Printf.sprintf "q%d" i)
  in
  ignore (Session.serve ep (frame 0));
  ignore (Session.serve ep (frame 1));
  ignore (Session.serve ep (frame 2));
  (* frame 0 was evicted (capacity 2): replaying it re-evaluates. *)
  ignore (Session.serve ep (frame 0));
  Alcotest.(check int) "four evaluations (one eviction)" 4 !evaluations;
  (* frame 0 is now cached again. *)
  ignore (Session.serve ep (frame 0));
  Alcotest.(check int) "fifth serve replayed" 4 !evaluations

let unverifiable_frames_discarded () =
  let ep = echo_endpoint () in
  (match Session.serve ep "not a frame at all" with
   | _ -> Alcotest.fail "garbage must be dropped"
   | exception Transport.Dropped -> ());
  let wrong_key = Crypto.Keys.derive (Crypto.Keys.create ~master:"eve" ()) "session-mac" in
  let forged =
    Session.encode_frame ~mac_key:wrong_key ~kind:Session.Request ~seq:1L "evil"
  in
  (match Session.serve ep forged with
   | _ -> Alcotest.fail "forged frame must be dropped"
   | exception Transport.Dropped -> ());
  let s = Session.endpoint_stats ep in
  Alcotest.(check int) "both discarded" 2 s.Session.discarded;
  Alcotest.(check int) "none served" 0 s.Session.served

(* --- Deterministic fault schedules --------------------------------- *)

let run_schedule seed =
  let ep = echo_endpoint () in
  let transport =
    Transport.faulty
      ~profile:(Transport.chaos ~drop:0.3 ~flip:0.2 ~duplicate:0.2 ~truncate:0.1 ())
      ~seed
      (Transport.loopback (Session.serve ep))
  in
  let client = Session.client ~mac_key transport in
  let outcomes =
    List.init 30 (fun i ->
        match Session.call client (Printf.sprintf "m%d" i) with
        | Ok r -> "ok:" ^ r
        | Error e -> "err:" ^ Session.error_to_string e)
  in
  outcomes, Session.stats client, Transport.stats transport

let schedule_is_deterministic () =
  let o1, s1, t1 = run_schedule 99L in
  let o2, s2, t2 = run_schedule 99L in
  Alcotest.(check (list string)) "same outcomes" o1 o2;
  Alcotest.(check bool) "same session stats" true (s1 = s2);
  Alcotest.(check bool) "same transport stats" true (t1 = t2);
  (* A different seed produces a different schedule (with near
     certainty at these rates over 30 calls). *)
  let o3, _, _ = run_schedule 100L in
  Alcotest.(check bool) "different seed diverges" true (o1 <> o3)

let calls_never_raise_under_chaos () =
  let ep = echo_endpoint () in
  List.iter
    (fun seed ->
      let transport =
        Transport.faulty
          ~profile:
            (Transport.chaos ~drop:0.4 ~flip:0.3 ~duplicate:0.3 ~truncate:0.3
               ~reorder:0.3 ())
          ~seed
          (Transport.loopback (Session.serve ep))
      in
      let client = Session.client ~mac_key transport in
      for i = 0 to 49 do
        match Session.call client (Printf.sprintf "s%Ld-%d" seed i) with
        | Ok r ->
          Alcotest.(check string) "correct payload when Ok"
            (Printf.sprintf "echo:s%Ld-%d" seed i) r
        | Error (Session.Gave_up _) -> ()
        | Error e ->
          Alcotest.failf "call surfaced non-terminal error %s"
            (Session.error_to_string e)
      done)
    [ 1L; 2L; 3L; 4L; 5L ]

(* --- Link lifecycle: close and re-establish ------------------------ *)

let close_refuses_calls () =
  let ep = echo_endpoint () in
  let client = Session.client ~mac_key (Transport.loopback (Session.serve ep)) in
  (match Session.call client "a" with
   | Ok r -> Alcotest.(check string) "live call" "echo:a" r
   | Error e -> Alcotest.failf "live call failed: %s" (Session.error_to_string e));
  Alcotest.(check bool) "open before close" false (Session.closed client);
  Session.close client;
  Session.close client;   (* idempotent *)
  Alcotest.(check bool) "closed" true (Session.closed client);
  (match Session.call client "b" with
   | Error Session.Closed -> ()
   | Ok _ -> Alcotest.fail "closed session answered a call"
   | Error e -> Alcotest.failf "expected Closed, got %s" (Session.error_to_string e));
  (* The refusal happened client-side: no frame reached the wire. *)
  let s = Session.endpoint_stats ep in
  Alcotest.(check int) "endpoint saw only the live call" 1 s.Session.served

let reset_link_gets_fresh_incarnation () =
  (* A duplicate-heavy schedule warms the endpoint's replay cache; after
     [System.reset_link] the old session refuses calls and the new
     incarnation's cache starts empty — no pre-reset frame can leak
     across as a replay hit. *)
  let module System = Secure.System in
  let doc = Workload.Health.generate ~patients:5 () in
  let scs = Workload.Health.constraints () in
  let sys, _ = System.setup ~master:"relink-master" doc scs Secure.Scheme.Opt in
  let faulty =
    System.with_faults
      ~profile:(Transport.chaos ~duplicate:0.9 ()) ~seed:5L sys
  in
  let q = Xpath.Parser.parse "//patient/pname" in
  let expected = Helpers.norm_trees (fst (System.evaluate sys q)) in
  for _ = 1 to 8 do
    ignore (System.evaluate faulty q)
  done;
  let before = System.endpoint_stats faulty in
  Alcotest.(check bool) "duplicates warmed the replay cache" true
    (before.Session.replayed > 0);
  let fresh = System.reset_link faulty in
  (* The superseded incarnation refuses instead of limping on. *)
  (match System.try_evaluate faulty q with
   | Error Session.Closed -> ()
   | Ok _ -> Alcotest.fail "old link still answers after reset"
   | Error e -> Alcotest.failf "expected Closed, got %s" (Session.error_to_string e));
  (* The new incarnation starts with an empty replay cache... *)
  let s0 = System.endpoint_stats fresh in
  Alcotest.(check int) "fresh endpoint served nothing" 0 s0.Session.served;
  Alcotest.(check int) "fresh replay cache empty" 0 s0.Session.replayed;
  (* ...and serves cleanly (reset without [faults] is a loopback). *)
  let answers, cost = System.evaluate fresh q in
  Alcotest.(check bool) "answers exact after relink" true
    (Helpers.norm_trees answers = expected);
  Alcotest.(check int) "clean link: one attempt" 1 cost.System.attempts;
  Alcotest.(check bool) "not degraded" false cost.System.degraded;
  let s1 = System.endpoint_stats fresh in
  Alcotest.(check bool) "new endpoint served the call" true (s1.Session.served > 0);
  Alcotest.(check int) "still zero replays" 0 s1.Session.replayed

let () =
  Alcotest.run "session"
    [ ( "frames",
        [ Alcotest.test_case "roundtrip" `Quick frame_roundtrip;
          Alcotest.test_case "tamper detected" `Quick frame_tamper_detected;
          Alcotest.test_case "truncation detected" `Quick frame_truncation_detected;
          Alcotest.test_case "direction and seq" `Quick frame_direction_and_seq;
          Alcotest.test_case "pinned bytes" `Quick frame_pin ] );
      ( "retry",
        [ Alcotest.test_case "clean call" `Quick clean_call;
          Alcotest.test_case "absorbs transient drop" `Quick retry_absorbs_transient_drop;
          Alcotest.test_case "gives up on total loss" `Quick gives_up_on_total_loss;
          Alcotest.test_case "corruption detected" `Quick corruption_is_detected_and_retried ] );
      ( "replay",
        [ Alcotest.test_case "answered from cache" `Quick replay_answered_from_cache;
          Alcotest.test_case "cache bounded" `Quick replay_cache_is_bounded;
          Alcotest.test_case "unverifiable discarded" `Quick unverifiable_frames_discarded ] );
      ( "chaos",
        [ Alcotest.test_case "deterministic schedule" `Quick schedule_is_deterministic;
          Alcotest.test_case "never raises" `Quick calls_never_raise_under_chaos ] );
      ( "lifecycle",
        [ Alcotest.test_case "close refuses calls" `Quick close_refuses_calls;
          Alcotest.test_case "reset_link fresh incarnation" `Quick
            reset_link_gets_fresh_incarnation ] ) ]
