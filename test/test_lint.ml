(* sxq-lint tests: the OCaml lexer, each rule against inline fixtures,
   suppression comments, baseline behaviour, and the gate property that
   a seeded trust-boundary violation produces findings (which makes the
   driver — and therefore `make check` — exit non-zero). *)

module Lexer = Analysis.Lexer
module Rules = Analysis.Rules
module Policy = Analysis.Policy
module Lint = Analysis.Lint
module Finding = Analysis.Finding

let rule_ids findings = List.map (fun f -> f.Finding.rule) findings

let count_rule id findings =
  List.length (List.filter (fun f -> f.Finding.rule = id) findings)

let lint rel src = Lint.check_source ~rel src

let check_rules name expected rel src =
  Alcotest.(check (list string)) name expected
    (List.sort_uniq String.compare (rule_ids (lint rel src)))

(* --- Lexer ---------------------------------------------------------- *)

let token_names (lex : Lexer.t) =
  Array.to_list lex.tokens
  |> List.filter_map (fun (t : Lexer.token) ->
         match t.kind with
         | Lexer.Lident s -> Some ("l:" ^ s)
         | Lexer.Uident s -> Some ("u:" ^ s)
         | Lexer.Keyword s -> Some ("k:" ^ s)
         | _ -> None)

let lexer_nested_comments () =
  let lex =
    Lexer.tokenize
      "let a = 1 (* outer (* nested *) \"a string with *) inside\" tail *) let b = 2"
  in
  Alcotest.(check (list string)) "comment hides everything"
    [ "k:let"; "l:a"; "k:let"; "l:b" ] (token_names lex);
  Alcotest.(check int) "one comment" 1 (List.length lex.comments);
  match lex.comments with
  | [ c ] ->
    Alcotest.(check bool) "body kept" true
      (String.length c.Lexer.text > 0
      && c.Lexer.start_line = 1 && c.Lexer.end_line = 1)
  | _ -> Alcotest.fail "expected exactly one comment"

let lexer_strings () =
  let lex =
    Lexer.tokenize "let s = \"not (* a comment *) \\\" still\" ^ other"
  in
  Alcotest.(check int) "no comments" 0 (List.length lex.comments);
  let strings =
    Array.to_list lex.tokens
    |> List.filter (fun (t : Lexer.token) -> t.kind = Lexer.String_lit)
  in
  Alcotest.(check int) "one string" 1 (List.length strings);
  Alcotest.(check (list string)) "idents survive"
    [ "k:let"; "l:s"; "l:other" ] (token_names lex)

let lexer_quoted_strings () =
  let lex = Lexer.tokenize "let s = {|raw \" (* |} and {id| nested |x} |id}" in
  Alcotest.(check int) "no comments" 0 (List.length lex.comments);
  let strings =
    Array.to_list lex.tokens
    |> List.filter (fun (t : Lexer.token) -> t.kind = Lexer.String_lit)
  in
  Alcotest.(check int) "two quoted strings" 2 (List.length strings)

let lexer_char_literals () =
  (* 'x' and '\n' are chars; 'a in [type 'a t] is a type variable and
     must not swallow the rest of the line as a literal. *)
  let lex = Lexer.tokenize "let c = 'x' let nl = '\\n' type 'a t = 'a list" in
  let chars =
    Array.to_list lex.tokens
    |> List.filter (fun (t : Lexer.token) -> t.kind = Lexer.Char_lit)
  in
  Alcotest.(check int) "two char literals" 2 (List.length chars);
  Alcotest.(check bool) "type variable lexes as ident" true
    (List.mem "l:a" (token_names lex))

let lexer_positions () =
  let lex = Lexer.tokenize "let a =\n  String.equal\n" in
  let tok name =
    Array.to_list lex.tokens
    |> List.find (fun (t : Lexer.token) -> t.kind = Lexer.Uident name)
  in
  let t = tok "String" in
  Alcotest.(check (pair int int)) "line/col" (2, 3) (t.line, t.col)

(* --- Module references and aliases ---------------------------------- *)

let refs_of src =
  List.map
    (fun r -> String.concat "." r.Rules.path)
    (Rules.module_refs (Lexer.tokenize src))

let module_refs_basic () =
  let refs = refs_of "let f d = Crypto.Hmac.mac ~key:(Xpath.Parser.parse d)" in
  Alcotest.(check bool) "Crypto.Hmac.mac" true (List.mem "Crypto.Hmac.mac" refs);
  Alcotest.(check bool) "Xpath.Parser.parse" true
    (List.mem "Xpath.Parser.parse" refs)

let module_refs_alias () =
  let refs = refs_of "module D = Xmlcore.Doc\nlet f d = D.tag d" in
  Alcotest.(check bool) "alias expanded" true
    (List.mem "Xmlcore.Doc.tag" refs);
  Alcotest.(check bool) "binder is not a reference" true
    (not (List.exists (fun r -> r = "D" || r = "D.tag") refs))

let binding_vs_comparison () =
  let src = "let f ?(u = dflt) v = { r with fld = v } in if a = b then ()" in
  let lex = Lexer.tokenize src in
  let eq_sites =
    Array.to_list lex.tokens
    |> List.mapi (fun i (t : Lexer.token) -> i, t)
    |> List.filter (fun (_, (t : Lexer.token)) -> t.kind = Lexer.Op "=")
    |> List.map (fun (i, _) -> Rules.is_binding_eq lex.tokens i)
  in
  (* ?(u = dflt), the function's own =, the record field: bindings;
     the [if a = b]: a comparison. *)
  Alcotest.(check (list bool)) "binding classification"
    [ true; true; true; false ] eq_sites

(* --- Layering ------------------------------------------------------- *)

let layering_rejects_upward_dep () =
  check_rules "crypto must not reach secure" [ "layering" ]
    "lib/crypto/evil.ml" "let x = Secure.Server.answer"

let layering_rejects_sideways_dep () =
  check_rules "xmlcore must not reach xpath" [ "layering" ]
    "lib/xmlcore/evil.ml" "let x = Xpath.Parser.parse"

let layering_allows_declared_deps () =
  check_rules "secure may use dsi/crypto/btree" []
    "lib/secure/fine.ml"
    "let x = Dsi.Interval.make 0.0 1.0\n\
     let y = Crypto.Hmac.mac\n\
     let z = Btree.range"

let layering_ignores_bin_and_test () =
  check_rules "binaries may use everything" [] "bin/tool.ml"
    "let x = Secure.Server.answer\nlet y = Workload.Xmark.generate"

let layering_engine_cannot_reach_xmlcore () =
  (* The engine sits above the secure layer but below the plaintext
     world: a new engine source reaching Xmlcore breaches layering, and
     in a module named by the per-file boundary table it additionally
     breaches the trust boundary. *)
  check_rules "fresh engine file: layering only" [ "layering" ]
    "lib/engine/evil.ml" "let leak d = Xmlcore.Doc.tag d 0";
  check_rules "listed engine module: both rules" [ "layering"; "trust-boundary" ]
    "lib/engine/engine.ml" "let leak d = Xmlcore.Doc.tag d 0"

let layering_engine_declared_deps_ok () =
  check_rules "engine may use xpath/dsi/secure" [] "lib/engine/fine.ml"
    "let a = Secure.Server.lookup\n\
     let b = Dsi.Interval.contains\n\
     let c = Xpath.Ast.Child"

let layering_obs_is_a_leaf () =
  (* Obs must stay below everything: an observability module that
     reached back into the secure layer could smuggle protocol state
     into what looks like passive accounting. *)
  check_rules "obs must not reach secure" [ "layering" ]
    "lib/obs/evil.ml" "let peek () = Secure.Server.answer";
  check_rules "obs must not reach the engine" [ "layering" ]
    "lib/obs/evil2.ml" "let peek e = Engine.stats e"

let layering_allows_obs_from_instrumented_layers () =
  check_rules "secure may bump obs counters" [] "lib/secure/fine_obs.ml"
    "let bump c = Obs.Metric.incr c\nlet t = Obs.Trace.create ()";
  check_rules "engine may bump obs counters" [] "lib/engine/fine_obs.ml"
    "let bump c = Obs.Metric.incr c"

let layering_serve_is_the_top () =
  (* The serving tier may orchestrate over the system/engine surface
     but nothing below it may reach up: serve at the top of the DAG. *)
  check_rules "serve may use its declared deps" [] "lib/serve/fine.ml"
    "let a s q = Secure.System.read s q\n\
     let b e q = Engine.evaluate e q\n\
     let c p f xs = Parallel.Pool.map p f xs\n\
     let d r = Obs.Metric.snapshot r";
  check_rules "secure must not reach serve" [ "layering" ]
    "lib/secure/evil_serve.ml" "let s = Serve.create ()";
  check_rules "engine must not reach serve" [ "layering" ]
    "lib/engine/evil_serve.ml" "let s = Serve.default_config";
  check_rules "obs must not reach serve" [ "layering" ]
    "lib/obs/evil_serve.ml" "let s = Serve.create ()"

(* --- Trust boundary ------------------------------------------------- *)

let boundary_rejects_plaintext_on_server () =
  (* The acceptance fixture: a synthetic Server -> Xmlcore.Doc
     reference must be rejected. *)
  check_rules "server.ml may not touch Xmlcore.Doc" [ "trust-boundary" ]
    "lib/secure/server.ml" "let f d = Xmlcore.Doc.tag d 0"

let boundary_rejects_keys_on_server () =
  check_rules "server.ml may not touch the key ring" [ "trust-boundary" ]
    "lib/secure/server.ml" "let f k = Crypto.Keys.dsi_key k"

let boundary_sees_through_aliases () =
  check_rules "module alias does not evade the boundary" [ "trust-boundary" ]
    "lib/secure/server.ml" "module D = Xmlcore.Doc\nlet f d = D.tag d"

let boundary_rejects_bare_open () =
  check_rules "open Xmlcore defeats checking, so it is rejected"
    [ "trust-boundary" ] "lib/secure/server.ml" "open Xmlcore"

let boundary_is_per_file () =
  check_rules "client code may use plaintext modules" []
    "lib/secure/client_side.ml"
    "let f d = Xmlcore.Doc.tag d 0\nlet g k = Crypto.Keys.dsi_key k"

let boundary_allows_serverside_modules () =
  check_rules "server.ml keeps its legitimate deps" []
    "lib/secure/server.ml"
    "module Interval = Dsi.Interval\nlet f = Btree.range\nlet g = Xpath.Ast.Child"

let boundary_rejects_keys_in_engine () =
  (* Any engine module deriving keys would move decryption across the
     trust boundary; crypto is also absent from the engine's allowed
     deps, so layering fires alongside. *)
  check_rules "engine may not touch the key ring"
    [ "layering"; "trust-boundary" ]
    "lib/engine/engine.ml" "let k keys = Crypto.Keys.block_key keys 0"

let boundary_rejects_plaintext_in_obs () =
  (* A metric or ledger row that could name the plaintext-document
     layer or the key ring would be a leak by construction: the ledger
     is the model of what the *server* sees.  Listed obs modules breach
     both the layering DAG and the per-file boundary table. *)
  check_rules "obs ledger may not touch Xmlcore.Doc"
    [ "layering"; "trust-boundary" ]
    "lib/obs/ledger.ml" "let leak d = Xmlcore.Doc.tag d 0";
  check_rules "obs metric may not touch the key ring"
    [ "layering"; "trust-boundary" ]
    "lib/obs/metric.ml" "let k keys = Crypto.Keys.block_key keys 0"

let boundary_rejects_plaintext_in_serve () =
  (* The serving tier holds whole tenant hostings, so the temptation to
     peek is real: naming the plaintext-document layer or the key ring
     in a listed serve module breaches both the DAG and the per-file
     boundary table. *)
  check_rules "serve may not touch Xmlcore.Tree"
    [ "layering"; "trust-boundary" ]
    "lib/serve/serve.ml" "let leak t = Xmlcore.Tree.value t";
  check_rules "serve may not touch the key ring"
    [ "layering"; "trust-boundary" ]
    "lib/serve/breaker.ml" "let k keys = Crypto.Keys.block_key keys 0";
  check_rules "opaque answers are fine" [] "lib/serve/serve.ml"
    "let pass (a : Secure.Client.answer list) = a"

let boundary_rejects_plaintext_in_attack () =
  (* The adversary simulator works from the leakage ledger alone.  A
     listed attack module naming the plaintext-document layer is the
     adversary cheating (layering fires too: xmlcore is not among
     attack's declared deps), and the key ring would let it decrypt
     instead of infer. *)
  check_rules "attack passes may not touch Xmlcore.Doc"
    [ "layering"; "trust-boundary" ]
    "lib/attack/passes.ml" "let cheat d = Xmlcore.Doc.tag d 0";
  check_rules "attack mitigate may not render plaintext answers"
    [ "layering"; "trust-boundary" ]
    "lib/attack/mitigate.ml" "let peek t = Xmlcore.Printer.tree_to_string t";
  check_rules "attack budget may not touch the key ring" [ "trust-boundary" ]
    "lib/attack/budget.ml" "let k keys = Crypto.Keys.block_key keys 0";
  check_rules "ledger-only inputs are fine" [] "lib/attack/budget.ml"
    "let n l = List.length (Obs.Ledger.rounds l)\n\
     let u = Crypto.Prng.create ~seed:1L"

let boundary_rejects_server_calls_off_the_link () =
  (* Only the endpoint behind the session link answers: a mitigation
     that fetched cover blocks straight from the server would make
     traffic the ledger never sees, and a tenant served in process
     would bypass its own breaker.  Reading through the link is fine. *)
  check_rules "attack may not fetch from the server directly" [ "trust-boundary" ]
    "lib/attack/mitigate.ml" "let cover sys ids = Secure.Server.fetch (Secure.System.server sys) ids";
  check_rules "serve may not answer in process" [ "trust-boundary" ]
    "lib/serve/serve.ml" "let run sys q = Secure.Server.answer (Secure.System.server sys) q";
  check_rules "reads through the link are fine" [] "lib/attack/mitigate.ml"
    "let cover sys ids = Secure.System.read sys (Secure.System.Fetch ids)"

let boundary_allows_plain_obs_code () =
  check_rules "self-contained obs code is clean" [] "lib/obs/metric.ml"
    "let bump t = t.count <- t.count + 1\n\
     let render t = Buffer.add_string t.buf (string_of_int t.count)"

(* --- Crypto hygiene ------------------------------------------------- *)

let ct_rule_flags_string_equal () =
  check_rules "String.equal on a mac" [ "mac-compare" ]
    "lib/secure/fx1.ml" "let verify expected_hmac given = String.equal expected_hmac given"

let ct_rule_flags_structural_eq () =
  check_rules "structural = on a digest" [ "mac-compare" ]
    "lib/secure/fx2.ml" "let ok st = st.digest = expected st"

let ct_rule_ignores_bindings () =
  check_rules "let-binding of a mac value is fine" []
    "lib/secure/fx3.ml"
    "let block_hmac = compute ()\nlet stored_digest = fetch ()"

let ct_rule_ignores_neutral_names () =
  check_rules "comparisons without sensitive names are fine" []
    "lib/secure/fx4.ml" "let same a b = String.equal a b && a = b"

let random_rule_flags_stdlib_random () =
  check_rules "Random outside prng.ml" [ "random-source" ]
    "lib/secure/fx5.ml" "let r () = Random.int 5"

let random_rule_allows_prng () =
  check_rules "prng.ml itself is exempt" [] "lib/crypto/prng.ml"
    "let reseed () = Random.self_init ()"

let concurrency_rule_flags_primitives () =
  check_rules "Domain.spawn outside lib/parallel" [ "concurrency" ]
    "lib/secure/fx10.ml" "let d = Domain.spawn (fun () -> 1)";
  check_rules "Mutex outside lib/parallel" [ "concurrency" ]
    "lib/engine/fx10.ml" "let m = Mutex.create ()";
  check_rules "Atomic outside lib/parallel" [ "concurrency" ]
    "lib/secure/fx11.ml" "let c = Atomic.make 0";
  check_rules "Stdlib-qualified primitive seen through" [ "concurrency" ]
    "lib/secure/fx12.ml" "let c = Stdlib.Atomic.make 0";
  check_rules "primitives flagged in tests too" [ "concurrency" ]
    "test/fx10.ml" "let d = Domain.spawn (fun () -> 1)"

let concurrency_rule_allows_parallel_lib () =
  check_rules "lib/parallel may use the primitives" [] "lib/parallel/fx.ml"
    "let w = Domain.spawn (fun () -> Mutex.create ())";
  check_rules "the pool API is fine anywhere" [] "lib/secure/fx13.ml"
    "let xs p = Parallel.Pool.map p succ [| 1; 2 |]"

let print_rule_flags_secrets () =
  check_rules "Printf of a *_key value" [ "secret-print" ]
    "lib/secure/fx6.ml" "let dump k = Printf.printf \"%s\" k.session_key"

let print_rule_ignores_public_values () =
  check_rules "Printf of counters is fine" [] "lib/secure/fx7.ml"
    "let dump n = Printf.printf \"%d blocks\" n"

(* --- Robustness ----------------------------------------------------- *)

let partiality_flagged_on_server_paths () =
  let src =
    "let f () = assert false\n\
     let g l = List.hd l\n\
     let h o = Option.get o\n\
     let i () = failwith \"boom\""
  in
  let found = lint "lib/secure/server.ml" src in
  Alcotest.(check int) "all four partial forms" 4
    (count_rule "partiality" found)

let partiality_scoped_to_policy_paths () =
  check_rules "client-side code may still assert" []
    "lib/xmlcore/printer_fx.ml" "let f () = assert false"

let plain_assert_is_fine () =
  check_rules "assert of a real invariant is not assert false" []
    "lib/secure/opess.ml" "let f n = assert (n >= 0)"

(* --- Suppression ---------------------------------------------------- *)

let suppression_same_line () =
  check_rules "trailing comment suppresses" []
    "lib/secure/fx8.ml"
    "let v given_hmac w = String.equal given_hmac w (* lint: allow mac-compare *)"

let suppression_previous_line () =
  check_rules "preceding-line comment suppresses" []
    "lib/secure/fx9.ml"
    "(* lint: allow mac-compare *)\n\
     let v given_hmac w = String.equal given_hmac w"

let suppression_wrong_rule () =
  check_rules "naming a different rule does not suppress" [ "mac-compare" ]
    "lib/secure/fx10.ml"
    "(* lint: allow partiality *)\n\
     let v given_hmac w = String.equal given_hmac w"

let suppression_allow_all () =
  check_rules "allow all suppresses any rule" []
    "lib/secure/fx11.ml"
    "(* lint: allow all *)\nlet r () = Random.int 5"

let suppression_does_not_leak_down () =
  let src =
    "(* lint: allow random-source *)\n\
     let a () = Random.int 5\n\
     let b () = Random.int 6"
  in
  let found = lint "lib/secure/fx12.ml" src in
  (* line 2 covered, line 3 not *)
  Alcotest.(check int) "only the adjacent line is covered" 1
    (count_rule "random-source" found)

(* --- Secret flow ---------------------------------------------------- *)

module Taint = Analysis.Taint
module Flowgraph = Analysis.Flowgraph

let secret_flow findings =
  List.filter (fun f -> f.Finding.rule = "secret-flow") findings

(* Three units under lib/secure: the key ring is created in one, washed
   through an identity function in a second, and the third drives the
   tainted value into [last_unit]'s sink.  Exercises source seeding,
   cross-module binder resolution and argument->parameter propagation
   in one fixture. *)
let leak_fixture last_unit =
  [ ( "lib/secure/leaka.ml",
      "let secret () =\n\
      \  Crypto.Keys.create ~suite:Crypto.Cipher.Xtea ~master:\"m\" ()" );
    "lib/secure/leakb.ml", "let relay x = x";
    ( "lib/secure/leakc.ml",
      "let k = Leaka.secret ()\nlet v = Leakb.relay k\n" ^ last_unit ) ]

let flow_cross_module_leak () =
  let found =
    secret_flow
      (Taint.check_files Policy.default
         (leak_fixture "let () = print_endline v"))
  in
  Alcotest.(check int) "one finding" 1 (List.length found);
  let f = List.hd found in
  Alcotest.(check string) "fires in the leaking unit" "lib/secure/leakc.ml"
    f.Finding.file;
  let witness = String.concat "\n" f.Finding.witness in
  let mentions sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length witness
      && (String.sub witness i n = sub || at (i + 1))
    in
    at 0
  in
  (* The witness must walk the whole chain, not just name the sink. *)
  Alcotest.(check bool) "witness crosses into leaka.ml" true
    (mentions "leaka.ml");
  Alcotest.(check bool) "witness crosses into leakb.ml" true
    (mentions "leakb.ml");
  Alcotest.(check bool) "witness names the source" true (mentions "(source)")

let flow_declassified_is_clean () =
  (* Same chain, but the value passes [Crypto.Cipher.encrypt] before
     printing: ciphertext is exactly what the model allows out. *)
  let found =
    secret_flow
      (Taint.check_files Policy.default
         (leak_fixture
            "let safe = Crypto.Cipher.encrypt v\nlet () = print_endline safe"))
  in
  Alcotest.(check int) "no findings" 0 (List.length found)

let flow_projection_through_record () =
  (* Binding-level analysis: the record value is tainted as a whole, so
     a projection out of it carries the taint even though no field
     tracking exists. *)
  let found =
    secret_flow
      (Taint.check_files Policy.default
         [ ( "lib/secure/leaka.ml",
             "let secret () =\n\
             \  Crypto.Keys.create ~suite:Crypto.Cipher.Xtea ~master:\"m\" ()"
           );
           ( "lib/secure/leakr.ml",
             "let k = Leaka.secret ()\n\
              let r = { key = k; count = 1 }\n\
              let out = r.key\n\
              let () = print_endline out" ) ])
  in
  Alcotest.(check int) "projection still flagged" 1 (List.length found)

let flow_through_qualified_field_argument () =
  (* [r.Leakm.count] is one argument atom: a module-qualified field
     projection must not split into [r] and [Leakm.count], or the key
     lands in [emit]'s third slot, which does not exist, and the flow
     into the sink is lost. *)
  let found =
    secret_flow
      (Taint.check_files Policy.default
         [ ( "lib/secure/leaka.ml",
             "let secret () =\n\
             \  Crypto.Keys.create ~suite:Crypto.Cipher.Xtea ~master:\"m\" ()"
           );
           "lib/secure/leakq.ml", "let emit _count s = print_endline s";
           ( "lib/secure/leakm.ml",
             "let k = Leaka.secret ()\n\
              let r = { count = 1 }\n\
              let () = Leakq.emit r.Leakm.count k" ) ])
  in
  Alcotest.(check int) "one finding" 1 (List.length found);
  let f = List.hd found in
  Alcotest.(check string) "fires at the sink" "lib/secure/leakq.ml" f.Finding.file;
  let witness = String.concat "\n" f.Finding.witness in
  let mentions sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length witness
      && (String.sub witness i n = sub || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "witness starts at the key ring" true (mentions "leaka.ml");
  Alcotest.(check bool) "witness passes the call site" true (mentions "leakm.ml");
  Alcotest.(check bool) "witness names the source" true (mentions "(source)")

let flow_decrypted_block_is_a_source () =
  (* What the read path decrypts with an IV it was given — a block
     document, or the raw plaintext from the cipher — is plaintext: its
     reaching a sink is a leak, wherever the IV came from. *)
  let found =
    secret_flow
      (Taint.check_files Policy.default
         [ ( "lib/serve/leakd.ml",
             "let show keys ivs b =\n\
             \  let d = Secure.Encrypt.decrypt_block_iv ~keys ~iv:ivs ~iv_off:0 b in\n\
             \  print_endline (Xmlcore.Doc.tag d 0)" );
           ( "lib/secure/leake.ml",
             "let show cipher iv body =\n\
             \  let p = Crypto.Cipher.decrypt_iv cipher ~iv ~iv_off:0 body in\n\
             \  print_endline p" ) ])
  in
  Alcotest.(check (list string)) "both flagged" [ "lib/secure/leake.ml"; "lib/serve/leakd.ml" ]
    (List.sort String.compare (List.map (fun f -> f.Finding.file) found))

let flow_extreme_request_is_a_sink () =
  (* The MIN/MAX request crosses the wire like every other: a key
     reaching its encoder is a leak, a translated query is not. *)
  let found =
    secret_flow
      (Taint.check_files Policy.default
         (leak_fixture
            "let () = ignore (Secure.Protocol.encode_extreme { query = v; key_range = (0L, 1L); direction = `Max })"))
  in
  Alcotest.(check int) "one finding" 1 (List.length found);
  Alcotest.(check string) "fires in the leaking unit" "lib/secure/leakc.ml"
    (List.hd found).Finding.file

let flow_suppression () =
  (* Through the full [check_sources] pipeline: a suppression comment on
     the sink line swallows the finding like any token-level rule. *)
  let with_comment =
    secret_flow
      (Lint.check_sources
         (leak_fixture
            "(* lint: allow secret-flow *)\nlet () = print_endline v"))
  in
  Alcotest.(check int) "suppressed at the sink" 0 (List.length with_comment);
  let without =
    secret_flow
      (Lint.check_sources (leak_fixture "let () = print_endline v"))
  in
  Alcotest.(check int) "same pipeline without the comment fires" 1
    (List.length without)

let flow_trusted_interior_is_skipped () =
  (* lib/crypto is the modelled TCB: its interior necessarily mixes key
     material, so its graphs are excluded and only its API surface (the
     source/declassifier tables) participates. *)
  let found =
    secret_flow
      (Taint.check_files Policy.default
         [ ( "lib/crypto/interior.ml",
             "let k = Crypto.Keys.create ~suite:Crypto.Cipher.Xtea \
              ~master:\"m\" ()\n\
              let () = print_endline k" ) ])
  in
  Alcotest.(check int) "trusted interior produces no findings" 0
    (List.length found)

(* --- Baseline ------------------------------------------------------- *)

let baseline_absorbs_known_findings () =
  let src = "let r () = Random.int 5" in
  let found = lint "lib/secure/fx13.ml" src in
  Alcotest.(check int) "finding exists" 1 (List.length found);
  let entries = List.map Finding.fingerprint found in
  Alcotest.(check int) "baseline absorbs it" 0
    (List.length (Lint.apply_baseline entries found))

let baseline_entry_consumed_once () =
  let src = "let a () = Random.int 5\nlet b () = Random.int 6" in
  let found = lint "lib/secure/fx14.ml" src in
  Alcotest.(check int) "two findings" 2 (List.length found);
  (* Both findings share a fingerprint (same rule/file/message); one
     entry must absorb only one of them. *)
  let one = [ Finding.fingerprint (List.nth found 0) ] in
  Alcotest.(check int) "one survives" 1
    (List.length (Lint.apply_baseline one found))

(* --- The gate ------------------------------------------------------- *)

let seeded_violation_fails_the_gate () =
  (* What `make check` runs: non-empty findings make the driver exit
     non-zero.  A seeded boundary violation must therefore fail CI. *)
  let found =
    lint "lib/secure/server.ml" "let leak d = Xmlcore.Doc.value d 0"
  in
  Alcotest.(check bool) "driver would exit 1" true (found <> [])

let seeded_flow_violation_fails_the_gate () =
  (* The interprocedural analogue: a cross-module secret->sink chain
     seeded into an otherwise clean file set must surface through the
     same [check_sources] pipeline the tree walk uses, so the driver —
     and therefore `make check` — goes red. *)
  let found = Lint.check_sources (leak_fixture "let () = print_endline v") in
  Alcotest.(check bool) "driver would exit 1" true
    (List.exists (fun f -> f.Finding.rule = "secret-flow") found)

(* Dune may run the test binary from the sandbox or from the project
   root, so locate the repo by walking up until we see dune-project
   next to lib/ — a blind "../../.." can escape into the filesystem. *)
let find_repo_root () =
  let is_root d =
    Sys.file_exists (Filename.concat d "dune-project")
    && Sys.file_exists (Filename.concat d "lib")
    && Sys.file_exists (Filename.concat d "lint.baseline")
  in
  let rec up d depth =
    if depth > 8 then None
    else if is_root d then Some d
    else
      let parent = Filename.dirname d in
      if parent = d then None else up parent (depth + 1)
  in
  up (Sys.getcwd ()) 0

let shipped_tree_is_clean () =
  (* Guarded so the test stays meaningful out of tree. *)
  match find_repo_root () with
  | None -> ()
  | Some root ->
    let findings, _ = Lint.run ~root () in
    List.iter (fun f -> Printf.eprintf "%s\n" (Finding.to_string f)) findings;
    Alcotest.(check int) "no findings in the shipped tree" 0
      (List.length findings)

(* Every function the secret-flow policy names must exist: a stale
   entry models nothing, so the code it meant to cover goes unmodelled
   without a finding.  Wildcards ("Crypto.Keys.") and names outside
   the repo's libraries (stdlib printers) are out of scope. *)
let declared_values root ~lib ~unit_name =
  let path = Filename.concat root (Printf.sprintf "lib/%s/%s.mli" lib unit_name) in
  if not (Sys.file_exists path) then []
  else
    let lex = Lexer.tokenize (In_channel.with_open_bin path In_channel.input_all) in
    let n = Array.length lex.tokens in
    List.filter_map
      (fun i ->
        match lex.tokens.(i).kind, lex.tokens.(i + 1).kind with
        | Lexer.Keyword ("val" | "external"), Lexer.Lident name -> Some name
        | _ -> None)
      (List.init (max 0 (n - 1)) Fun.id)

(* A [source_params] entry seeds taint only where the analysis sees the
   callee's body: a top-level function of an analysed (untrusted)
   [lib/] unit that binds a parameter of the declared name.  Anything
   else — a function in a trusted file, a stale parameter name — seeds
   nothing, silently. *)
let seedable_source_params root =
  let policy = Policy.default in
  let analysed rel =
    String.starts_with ~prefix:"lib/" rel
    && Filename.check_suffix rel ".ml"
    && not
         (List.exists
            (fun prefix -> String.starts_with ~prefix rel)
            policy.flow.trusted_files)
  in
  let graphs =
    List.filter_map
      (fun rel ->
        if not (analysed rel) then None
        else
          let src =
            In_channel.with_open_bin (Filename.concat root rel) In_channel.input_all
          in
          Some
            (Flowgraph.build ~rel ~modpath:(Taint.modpath_of policy rel)
               (Lexer.tokenize src)))
      (Lint.source_files ~root)
  in
  fun (qfn, pname) ->
    List.exists
      (fun (g : Flowgraph.t) ->
        List.exists
          (fun (b : Flowgraph.binding) ->
            b.toplevel
            && Flowgraph.qualify g [ b.name ] = qfn
            &&
            let groups = List.concat_map (fun (s : Flowgraph.slot) -> s.groups) b.slots in
            List.exists
              (fun (p : Flowgraph.binding) ->
                p.is_param && p.name = pname && List.mem p.group groups)
              g.bindings)
          g.bindings)
      graphs

let policy_names_are_declared () =
  match find_repo_root () with
  | None -> ()
  | Some root ->
    let flow = Policy.default.flow in
    let undeclared name =
      match String.split_on_char '.' name with
      | top :: (_ :: _ as rest) when not (String.ends_with ~suffix:"." name) -> (
        match List.assoc_opt top Policy.default.roots with
        | None -> false
        | Some lib ->
          let unit_name =
            String.uncapitalize_ascii (match rest with [ _ ] -> top | m :: _ -> m | [] -> top)
          in
          let value = List.nth rest (List.length rest - 1) in
          not (List.mem value (declared_values root ~lib ~unit_name)))
      | _ -> false
    in
    Alcotest.(check (list string)) "policy names missing from their .mli" []
      (List.filter undeclared
         (flow.sources @ List.map fst flow.source_params @ flow.declassifiers
        @ flow.sinks));
    let seeds = seedable_source_params root in
    Alcotest.(check (list (pair string string))) "source params that seed nothing" []
      (List.filter (fun sp -> not (seeds sp)) flow.source_params);
    (* A path the policy names but the tree lacks governs nothing — and
       a stale trusted path would exempt whatever file later lands
       there from the flow analysis, unseen.  Entries ending in "/" are
       directory prefixes. *)
    let policy = Policy.default in
    let missing path =
      let full = Filename.concat root path in
      if String.ends_with ~suffix:"/" path then
        not (Sys.file_exists full && Sys.is_directory full)
      else not (Sys.file_exists full)
    in
    Alcotest.(check (list string)) "policy paths missing from the tree" []
      (List.filter missing
         (flow.trusted_files @ flow.sink_files @ List.map fst policy.boundary
        @ policy.concurrency_ok @ policy.total_paths @ policy.random_ok))

let () =
  Alcotest.run "lint"
    [ ( "lexer",
        [ Alcotest.test_case "nested comments" `Quick lexer_nested_comments;
          Alcotest.test_case "strings" `Quick lexer_strings;
          Alcotest.test_case "quoted strings" `Quick lexer_quoted_strings;
          Alcotest.test_case "char literals" `Quick lexer_char_literals;
          Alcotest.test_case "positions" `Quick lexer_positions ] );
      ( "refs",
        [ Alcotest.test_case "paths" `Quick module_refs_basic;
          Alcotest.test_case "aliases" `Quick module_refs_alias;
          Alcotest.test_case "binding vs comparison" `Quick
            binding_vs_comparison ] );
      ( "layering",
        [ Alcotest.test_case "upward dep rejected" `Quick
            layering_rejects_upward_dep;
          Alcotest.test_case "sideways dep rejected" `Quick
            layering_rejects_sideways_dep;
          Alcotest.test_case "declared deps allowed" `Quick
            layering_allows_declared_deps;
          Alcotest.test_case "bin/test exempt" `Quick
            layering_ignores_bin_and_test;
          Alcotest.test_case "engine cannot reach xmlcore" `Quick
            layering_engine_cannot_reach_xmlcore;
          Alcotest.test_case "engine declared deps allowed" `Quick
            layering_engine_declared_deps_ok;
          Alcotest.test_case "obs is a leaf" `Quick layering_obs_is_a_leaf;
          Alcotest.test_case "obs usable from secure/engine" `Quick
            layering_allows_obs_from_instrumented_layers;
          Alcotest.test_case "serve is the top" `Quick
            layering_serve_is_the_top ] );
      ( "trust-boundary",
        [ Alcotest.test_case "plaintext doc rejected" `Quick
            boundary_rejects_plaintext_on_server;
          Alcotest.test_case "key ring rejected" `Quick
            boundary_rejects_keys_on_server;
          Alcotest.test_case "alias seen through" `Quick
            boundary_sees_through_aliases;
          Alcotest.test_case "bare open rejected" `Quick
            boundary_rejects_bare_open;
          Alcotest.test_case "per-file scope" `Quick boundary_is_per_file;
          Alcotest.test_case "server deps allowed" `Quick
            boundary_allows_serverside_modules;
          Alcotest.test_case "key ring rejected in engine" `Quick
            boundary_rejects_keys_in_engine;
          Alcotest.test_case "plaintext/keys rejected in obs" `Quick
            boundary_rejects_plaintext_in_obs;
          Alcotest.test_case "plain obs code clean" `Quick
            boundary_allows_plain_obs_code;
          Alcotest.test_case "plaintext/keys rejected in serve" `Quick
            boundary_rejects_plaintext_in_serve;
          Alcotest.test_case "plaintext/keys rejected in attack" `Quick
            boundary_rejects_plaintext_in_attack;
          Alcotest.test_case "server calls off the link rejected" `Quick
            boundary_rejects_server_calls_off_the_link ] );
      ( "crypto-hygiene",
        [ Alcotest.test_case "String.equal flagged" `Quick
            ct_rule_flags_string_equal;
          Alcotest.test_case "structural = flagged" `Quick
            ct_rule_flags_structural_eq;
          Alcotest.test_case "bindings ignored" `Quick ct_rule_ignores_bindings;
          Alcotest.test_case "neutral names ignored" `Quick
            ct_rule_ignores_neutral_names;
          Alcotest.test_case "Random flagged" `Quick
            random_rule_flags_stdlib_random;
          Alcotest.test_case "prng exempt" `Quick random_rule_allows_prng;
          Alcotest.test_case "secret print flagged" `Quick
            print_rule_flags_secrets;
          Alcotest.test_case "public print fine" `Quick
            print_rule_ignores_public_values;
          Alcotest.test_case "concurrency primitives flagged" `Quick
            concurrency_rule_flags_primitives;
          Alcotest.test_case "lib/parallel exempt" `Quick
            concurrency_rule_allows_parallel_lib ] );
      ( "robustness",
        [ Alcotest.test_case "partial forms flagged" `Quick
            partiality_flagged_on_server_paths;
          Alcotest.test_case "scoped to policy paths" `Quick
            partiality_scoped_to_policy_paths;
          Alcotest.test_case "plain assert fine" `Quick plain_assert_is_fine ]
      );
      ( "suppression",
        [ Alcotest.test_case "same line" `Quick suppression_same_line;
          Alcotest.test_case "previous line" `Quick suppression_previous_line;
          Alcotest.test_case "wrong rule" `Quick suppression_wrong_rule;
          Alcotest.test_case "allow all" `Quick suppression_allow_all;
          Alcotest.test_case "bounded range" `Quick
            suppression_does_not_leak_down ] );
      ( "secret-flow",
        [ Alcotest.test_case "cross-module leak" `Quick flow_cross_module_leak;
          Alcotest.test_case "declassified chain clean" `Quick
            flow_declassified_is_clean;
          Alcotest.test_case "projection through record" `Quick
            flow_projection_through_record;
          Alcotest.test_case "qualified field argument" `Quick
            flow_through_qualified_field_argument;
          Alcotest.test_case "decrypted block is a source" `Quick
            flow_decrypted_block_is_a_source;
          Alcotest.test_case "extreme request is a sink" `Quick
            flow_extreme_request_is_a_sink;
          Alcotest.test_case "suppression honoured" `Quick flow_suppression;
          Alcotest.test_case "trusted interior skipped" `Quick
            flow_trusted_interior_is_skipped;
          Alcotest.test_case "policy names declared" `Quick
            policy_names_are_declared ] );
      ( "baseline",
        [ Alcotest.test_case "absorbs findings" `Quick
            baseline_absorbs_known_findings;
          Alcotest.test_case "entry consumed once" `Quick
            baseline_entry_consumed_once ] );
      ( "gate",
        [ Alcotest.test_case "seeded violation fails" `Quick
            seeded_violation_fails_the_gate;
          Alcotest.test_case "seeded secret-flow fails" `Quick
            seeded_flow_violation_fails_the_gate;
          Alcotest.test_case "shipped tree clean" `Quick shipped_tree_is_clean
        ] ) ]
