type unit_kind =
  | Library of string
  | Binary
  | Test_unit

type flow = {
  sources : string list;
  source_params : (string * string) list;
  declassifiers : string list;
  sinks : string list;
  sink_files : string list;
  trusted_files : string list;
}

type t = {
  roots : (string * string) list;
  allowed : (string * string list) list;
  boundary : (string * string list) list;
  total_paths : string list;
  random_ok : string list;
  concurrency_ok : string list;
  flow : flow;
}

(* The server's answering functions: only the endpoint behind the
   session link calls them (and the engine's cache miss), so every read
   a client makes is a framed round on the link. *)
let server_answering =
  [ "Secure.Server.answer"; "Secure.Server.answer_extreme";
    "Secure.Server.answer_padded"; "Secure.Server.fetch" ]

(* The layering DAG mirrors the dune dependency graph on purpose: dune
   enforces link-time reachability, this table enforces *intent*.  A
   library absent from a right-hand side cannot be referenced even
   though dune's implicit transitive deps would let it link. *)
let default =
  {
    roots =
      [ "Xmlcore", "xmlcore";
        "Xpath", "xpath";
        "Crypto", "crypto";
        "Btree", "btree";
        "Dsi", "dsi";
        "Secure", "secure";
        "Engine", "engine";
        "Xquery", "xquery";
        "Workload", "workload";
        "Analysis", "analysis";
        "Parallel", "parallel";
        "Obs", "obs";
        "Serve", "serve";
        "Attack", "attack" ];
    allowed =
      [ "xmlcore", [];
        "btree", [];
        "crypto", [];
        "analysis", [];
        (* The task-pool library sits below everything: it knows
           nothing of documents or ciphertexts, it only schedules. *)
        "parallel", [];
        (* Observability is likewise a leaf: counters, spans and the
           leakage ledger are plain data structures any layer may bump
           without gaining new reachability. *)
        "obs", [];
        "xpath", [ "xmlcore" ];
        "dsi", [ "xmlcore"; "crypto" ];
        "secure",
        [ "xmlcore"; "xpath"; "crypto"; "btree"; "dsi"; "parallel"; "obs" ];
        (* The engine caches ciphertext-side evaluation: it may see the
           query IR, intervals and the secure layer's public surface,
           but never the plaintext document layer. *)
        "engine", [ "xpath"; "dsi"; "secure"; "obs" ];
        (* The serving tier multiplexes hostings: it schedules, admits
           and breaks circuits over the system/engine surface.  Nothing
           depends on it except bin — it is the top of the DAG, and it
           handles answers only behind the Secure.Client.answer
           alias. *)
        (* The adversary simulator replays ledger traces and buys
           mitigations on the wire surface: it may see translated
           queries, the secure layer's public surface and the ledger,
           but never the plaintext-document layer — its entire input is
           what the server already observes. *)
        "attack", [ "xpath"; "crypto"; "secure"; "obs" ];
        "serve", [ "xpath"; "secure"; "engine"; "parallel"; "obs"; "attack" ];
        "xquery", [ "xmlcore"; "xpath"; "secure" ];
        "workload", [ "xmlcore"; "xpath"; "crypto"; "secure" ] ];
    (* The server evaluates queries over DSI intervals, OPESS
       ciphertexts and encrypted blocks only.  Plaintext documents and
       the key ring live strictly on the client side of the wire. *)
    boundary =
      ([ ( "lib/secure/server.ml",
           [ "Xmlcore.Doc"; "Xmlcore.Tree"; "Xmlcore.Parser";
             "Xmlcore.Printer"; "Crypto.Keys" ] );
         ( "lib/secure/server.mli",
           [ "Xmlcore.Doc"; "Xmlcore.Tree"; "Xmlcore.Parser";
             "Xmlcore.Printer"; "Crypto.Keys" ] ) ]
      (* The engine holds decrypted material only behind the opaque
         Secure.Client.answer alias and never derives keys: no module
         of it may name the plaintext-document layer or the key
         ring. *)
      @ List.concat_map
          (fun name ->
            let forbidden =
              [ "Xmlcore.Doc"; "Xmlcore.Tree"; "Xmlcore.Parser";
                "Xmlcore.Printer"; "Crypto.Keys" ]
            in
            [ "lib/engine/" ^ name ^ ".ml", forbidden;
              "lib/engine/" ^ name ^ ".mli", forbidden ])
          [ "lru"; "stats"; "engine" ]
      (* Observability records server-visible facts only: a counter or
         ledger row that could name the plaintext-document layer or the
         key ring would be a leak by construction. *)
      @ List.concat_map
          (fun name ->
            let forbidden =
              [ "Xmlcore.Doc"; "Xmlcore.Tree"; "Xmlcore.Parser";
                "Xmlcore.Printer"; "Crypto.Keys" ]
            in
            [ "lib/obs/" ^ name ^ ".ml", forbidden;
              "lib/obs/" ^ name ^ ".mli", forbidden ])
          [ "json"; "metric"; "trace"; "ledger"; "obs" ]
      (* The serving tier never holds plaintext or key material of any
         tenant: answers flow through it as the opaque
         Secure.Client.answer alias, and hostings arrive pre-keyed.  It
         reads through the link like any client, never by calling the
         server's answering functions in process. *)
      @ List.concat_map
          (fun name ->
            let forbidden =
              [ "Xmlcore.Doc"; "Xmlcore.Tree"; "Xmlcore.Parser";
                "Xmlcore.Printer"; "Crypto.Keys" ]
              @ server_answering
            in
            [ "lib/serve/" ^ name ^ ".ml", forbidden;
              "lib/serve/" ^ name ^ ".mli", forbidden ])
          [ "limiter"; "breaker"; "serve" ]
      (* The adversary simulator's inputs are what the server can see
         (ledger rounds, the stored tables' counts) plus the auxiliary
         knowledge its caller grants it, so reaching for the plaintext
         document layer or the key ring would let the "adversary"
         cheat.  Its mitigations buy traffic on the link, so they may
         not call the server's answering functions either: a round
         that skips the link is one the ledger never sees.
         [attack.ml] is the facade unit, which has no interface of its
         own. *)
      @ (let forbidden =
           [ "Xmlcore.Doc"; "Xmlcore.Tree"; "Xmlcore.Parser";
             "Xmlcore.Printer"; "Crypto.Keys" ]
           @ server_answering
         in
         ("lib/attack/attack.ml", forbidden)
         :: List.concat_map
              (fun name ->
                [ "lib/attack/" ^ name ^ ".ml", forbidden;
                  "lib/attack/" ^ name ^ ".mli", forbidden ])
              [ "static"; "passes"; "budget"; "mitigate" ]));
    (* Paths reachable from hostile input: a malformed frame, query or
       stored catalog must surface as a typed error, never as an
       assertion failure or partial-projection exception. *)
    total_paths =
      [ "lib/secure/server.ml";
        "lib/secure/session.ml";
        "lib/secure/protocol.ml";
        "lib/secure/codec.ml";
        "lib/secure/transport.ml";
        "lib/secure/opess.ml" ];
    (* Everything random is derived from seeds through Crypto.Prng (or
       the HMAC PRF); stdlib Random would break the chaos suite's
       seeded reproducibility. *)
    random_ok = [ "lib/crypto/prng.ml" ];
    (* Domains, mutexes and atomics are confined behind the pool API:
       everything else must go through Parallel.Pool, whose merge
       contract is what makes parallelism deterministic. *)
    concurrency_ok = [ "lib/parallel/" ];
    (* The information-flow policy of the paper, as data.  Secrets are
       born at the [sources] (key-ring values, plaintext documents,
       decrypted blocks and answers, PRNG streams seeded from keys);
       they may leave only through the [declassifiers] (the encrypt /
       MAC / OPESS boundary — a ciphertext or tag is server-safe by
       construction); everything reaching a [sink] (wire encoders, the
       session, console output, observability labels) or used at all
       inside a [sink_file] must have been declassified on the way.
       Entries ending in "." are prefix wildcards. *)
    flow =
      {
        sources =
          [ "Crypto.Keys.";
            "Crypto.Cipher.decrypt";
            "Crypto.Cipher.decrypt_iv";
            "Crypto.Cbc.decrypt";
            "Crypto.Cbc.decrypt_prepared";
            "Crypto.Cbc.decrypt_iv";
            "Crypto.Xtea.decrypt_block";
            "Crypto.Aes.decrypt_block";
            "Crypto.Vernam.decrypt";
            "Crypto.Ope.decrypt";
            "Secure.Encrypt.decrypt_block";
            "Secure.Encrypt.decrypt_block_iv";
            "Secure.Client.keys";
            "Secure.Client.decrypt_block";
            "Secure.Client.evaluate_with";
            "Secure.Client.evaluate_union_with";
            "Secure.System.doc";
            "Secure.System.master";
            "Secure.System.reference";
            "Secure.System.reference_union";
            "Secure.System.reference_aggregate";
            "Workload.Xmark.generate";
            "Workload.Nasa.generate";
            "Workload.Health.generate";
            "Workload.Dblp.generate" ];
        (* Parameters that receive secrets at every call site: taint is
           seeded on the callee's parameter group itself, so the secret
           is tracked inside the function body even when the analysis
           cannot see any call. *)
        source_params =
          [ "Secure.System.setup", "doc";
            "Secure.System.setup", "master";
            "Secure.System.restore", "doc";
            "Secure.System.restore", "master";
            "Secure.Encrypt.encrypt", "doc";
            "Secure.Encrypt.encrypt", "keys";
            "Secure.Encrypt.decrypt_block", "keys";
            "Secure.Encrypt.decrypt_block_iv", "keys";
            "Secure.Metadata.build", "keys";
            "Secure.Metadata.patch", "keys";
            "Secure.Opess.patch", "key";
            "Secure.Client.create", "keys";
            "Secure.Opess.build", "key" ];
        (* The only legal crossings: a value that has passed through one
           of these is ciphertext, a MAC tag, or a sanitized label. *)
        declassifiers =
          [ "Crypto.Cipher.encrypt";
            "Crypto.Cbc.encrypt";
            "Crypto.Cbc.encrypt_prepared";
            "Crypto.Xtea.encrypt_block";
            "Crypto.Aes.encrypt_block";
            "Crypto.Vernam.encrypt";
            "Crypto.Vernam.encrypt_hex";
            "Crypto.Ope.encrypt";
            "Crypto.Hmac.mac";
            "Crypto.Hmac.mac_prepared";
            "Crypto.Hmac.mac_slice";
            "Crypto.Hmac.mac_hex";
            (* The PRF kernel's outputs: draws from a keyed PRF, which
               show nothing of the key. *)
            "Crypto.Hmac.bits";
            "Crypto.Hmac.below";
            "Secure.Opess.build";
            "Secure.Encrypt.encrypt";
            (* The ciphertext half of the database: what
               Server.of_metadata consumes.  The [db] record itself
               stays secret (it keeps the plaintext document); this
               projection ships encrypt-then-MAC blocks only. *)
            "Secure.Encrypt.server_blocks";
            (* Storing into an engine cache returns unit, so nothing
               secret comes back from the call itself.  Every binding
               that reads the decrypted-block cache also contains the
               decrypt-on-miss path of the same match expression, so
               cache {e hits} stay covered without a source entry for
               [find].  Without this the unit result of [put] would
               smear taint over every binding near a cache insert. *)
            "Engine.Lru.put";
            (* The delta path's only cryptographic step: re-encrypting
               the touched blocks yields encrypt-then-MAC ciphertext,
               the same boundary [Secure.Encrypt.encrypt] crosses at
               setup. *)
            "Secure.Encrypt.reencrypt_blocks";
            "Secure.Metadata.build";
            (* The incremental patchers are boundaries for the same
               reason as the builders: their outputs are the
               server-side tables (interval rows keyed/deduplicated
               like [build]'s, catalog rows through the keyed OPESS
               encoder), never raw plaintext or key material. *)
            "Secure.Metadata.patch";
            "Secure.Opess.patch";
            "Secure.Client.translate";
            "Secure.Client.aggregate_range";
            "Secure.Session.client";
            "Secure.Session.endpoint";
            (* Safe projections of the hosting handle: the handle record
               itself is secret (it holds the plaintext document and the
               master passphrase), but these fields are the server-side
               half and the plumbing — built exclusively from
               already-declassified material.  Declaring the accessors
               here is the policy statement that the server, tracer,
               ledger and pool contain no key or plaintext material. *)
            "Secure.System.server";
            "Secure.System.tracer";
            "Secure.System.ledger";
            "Secure.System.pool";
            "Obs.Label.sanitize" ];
        sinks =
          [ "Secure.Protocol.encode_request";
            "Secure.Protocol.encode_fetch";
            "Secure.Protocol.encode_padded";
            "Secure.Protocol.encode_extreme";
            "Secure.Protocol.encode_response";
            "Secure.Transport.exchange";
            "Secure.Session.call";
            "Obs.Ledger.round";
            "Obs.Metric.counter";
            "Obs.Metric.gauge";
            "Obs.Metric.histogram";
            "Obs.Trace.span";
            "Obs.Trace.event";
            "Printf.printf";
            "Printf.eprintf";
            "Format.printf";
            "Format.eprintf";
            "print_string";
            "print_endline";
            "print_int";
            "print_float";
            "print_newline";
            "prerr_string";
            "prerr_endline" ];
        sink_files = [ "lib/secure/server.ml" ];
        (* Interiors the flow analysis does not descend into.  Two
           reasons to be here.  lib/crypto is the trusted computing
           base: the primitives necessarily mix key material into
           everything they compute (that is their job), so analysing
           their interiors only poisons the summaries of shared helpers
           — HMAC feeding the key schedule through SHA-256 would mark
           every digest in the tree secret.  Their API is modelled
           above: the key ring and decrypt results are [sources],
           encrypt/MAC outputs are [declassifiers].  No
           [source_params] entry names one of their functions: the
           analysis never sees those bodies, so such an entry could
           seed nothing.  The rest are pure container / scheduler
           libraries that hold no keys and perform no I/O: a
           context-insensitive summary of [Doc.node_count] or
           [Interval.make] tainted by one secret caller would mark the
           server's own clean calls secret, whereas the unknown-callee
           fallback (argument taint flows straight to the caller's
           binding) models them call-site-locally and loses nothing —
           any secret passed in comes back out tainted at that call
           site only. *)
        trusted_files =
          [ "lib/crypto/";
            "lib/xmlcore/";
            "lib/btree/";
            "lib/parallel/";
            "lib/obs/";
            "lib/dsi/interval.ml" ];
      };
  }

let strip_prefix ~prefix s =
  let pl = String.length prefix in
  if String.length s >= pl && String.sub s 0 pl = prefix then
    Some (String.sub s pl (String.length s - pl))
  else None

let classify rel =
  match strip_prefix ~prefix:"lib/" rel with
  | Some rest -> (
    match String.index_opt rest '/' with
    | Some i -> Some (Library (String.sub rest 0 i))
    | None -> None)
  | None ->
    if strip_prefix ~prefix:"bin/" rel <> None then Some Binary
    else if strip_prefix ~prefix:"test/" rel <> None then Some Test_unit
    else None

let library_of_root t root = List.assoc_opt root t.roots

let allowed_deps t lib =
  match List.assoc_opt lib t.allowed with Some deps -> deps | None -> []
