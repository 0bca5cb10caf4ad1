(* The Section 3.3 attack model in action: a frequency-equipped
   attacker against (a) a careless deterministic per-leaf encryption
   and (b) this system's OPESS value index; plus the size-based attack
   and the Theorem 6.1 belief trajectory.

     dune exec examples/attack_demo.exe
*)

let () =
  let doc = Workload.Health.generate ~patients:200 () in
  let known = Xmlcore.Stats.value_histogram doc ~tag:"disease" in
  Printf.printf "attacker's prior knowledge: exact frequencies of %d disease values\n"
    (Xmlcore.Stats.distinct_count known);
  List.iter (fun (v, c) -> Printf.printf "  %-14s %d\n" v c) known;

  (* (a) Broken scheme: each leaf deterministically encrypted, no
     decoy.  Ciphertext frequencies mirror plaintext frequencies. *)
  let observed_naive = Attack.Static.deterministic_leaf_histogram known in
  let broken = Attack.Static.frequency_attack ~known ~observed:observed_naive in
  Printf.printf
    "\n[broken scheme] deterministic per-leaf encryption: cracked %d/%d values (%.0f%%)\n"
    (List.length broken.Attack.Static.cracked) broken.Attack.Static.domain_size
    (100.0 *. broken.Attack.Static.crack_rate);
  List.iter
    (fun (v, f) -> Printf.printf "  identified %-14s by frequency %d\n" v f)
    broken.Attack.Static.cracked;

  (* (b) This system: the only value-bearing thing the server sees is
     the OPESS-split-and-scaled B-tree distribution. *)
  let cat =
    Secure.Opess.build ~key:"demo-key" ~attr_id:0 ~tag:"disease" known
  in
  Printf.printf "\n[OPESS] m=%d: ciphertext frequencies before scaling: {%s}\n"
    (Secure.Opess.chunk_parameter cat)
    (String.concat ","
       (List.sort_uniq compare
          (List.map (fun (_, c) -> string_of_int c)
             (Secure.Opess.ciphertext_histogram cat))));
  let secure =
    Attack.Static.frequency_attack ~known
      ~observed:(Secure.Opess.scaled_histogram cat)
  in
  Printf.printf "[OPESS] frequency attack on the scaled index: cracked %d/%d values\n"
    (List.length secure.Attack.Static.cracked) secure.Attack.Static.domain_size;

  (* Size-based attack: candidate databases that differ in encrypted
     size are eliminated — indistinguishability (Definition 3.1)
     requires equal sizes, which decoy-padded blocks of one schema
     produce. *)
  let scs = Workload.Health.constraints () in
  let keys = Crypto.Keys.create ~master:"size-demo" () in
  let scheme = Secure.Scheme.build doc scs Secure.Scheme.Opt in
  let db = Secure.Encrypt.encrypt ~keys doc scheme in
  let target = Secure.Encrypt.encrypted_bytes db in
  (* Candidate databases: permutations of which patient has which
     disease — same multiset of values, hence same encrypted size. *)
  let candidates = List.init 20 (fun _ -> target) in
  let r = Attack.Static.size_attack ~candidate_sizes:(99 :: candidates) ~target_size:target in
  Printf.printf
    "\n[size attack] %d candidates, %d survive (all value-permuted candidates \
     encrypt to identical size; only a malformed one is eliminated)\n"
    r.Attack.Static.candidates r.Attack.Static.survivors;

  (* Theorem 6.1: observing queries does not increase belief. *)
  let k = Xmlcore.Stats.distinct_count known in
  let n = List.length (Secure.Opess.ciphertext_histogram cat) in
  Printf.printf
    "\n[belief] association attacker, k=%d plaintext / n=%d ciphertext values:\n  %s\n"
    k n
    (String.concat " -> "
       (List.map (Printf.sprintf "%.2e") (Attack.Static.belief_sequence ~k ~n ~queries:5)));
  print_endline "\nattack demo done."
