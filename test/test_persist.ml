(* Persistence tests: save/load round trips, integrity checks. *)

module System = Secure.System
module Persist = Secure.Persist

let parse = Xpath.Parser.parse

let build_system () =
  let doc = Workload.Health.generate ~patients:40 () in
  let scs = Workload.Health.constraints () in
  fst (System.setup ~master:"persist-master" doc scs Secure.Scheme.Opt)

let queries =
  [ "//patient/pname"; "//patient[.//disease='flu']/pname";
    "//insurance/@coverage"; "//patient[age>=50]/SSN"; "//treat/doctor" ]

let roundtrip_preserves_answers () =
  let sys = build_system () in
  let restored = Persist.of_string ~master:"persist-master" (Persist.to_string sys) in
  List.iter
    (fun q ->
      let query = parse q in
      let expected, _ = System.evaluate sys query in
      let got, _ = System.evaluate restored query in
      Helpers.check_trees_equal q expected got)
    queries;
  (* Aggregates survive too (catalog reconstruction). *)
  List.iter
    (fun q ->
      let query = parse q in
      let max sys = Helpers.extreme_value (Helpers.read sys (System.Extreme (`Max, query))) in
      Alcotest.(check (option string)) ("max " ^ q) (max sys) (max restored))
    [ "//age"; "//disease" ]

let roundtrip_via_file () =
  let sys = build_system () in
  let path = Filename.temp_file "sxq" ".host" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save sys path;
      let restored = Persist.load ~master:"persist-master" path in
      let q = parse "//patient[.//disease='flu']/pname" in
      Helpers.check_trees_equal "file roundtrip"
        (fst (System.evaluate sys q))
        (fst (System.evaluate restored q)))

let stable_encoding () =
  let sys = build_system () in
  Alcotest.(check bool) "deterministic encoding" true
    (Persist.to_string sys = Persist.to_string sys)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let wrong_master_rejected () =
  let sys = build_system () in
  let data = Persist.to_string sys in
  (match Persist.of_string ~master:"wrong" data with
   | _ -> Alcotest.fail "wrong master must be rejected"
   | exception Persist.Corrupt m ->
     (* A wrong master is indistinguishable from tampering — and must
        not be misreported as a torn write. *)
     Alcotest.(check bool) "reported as MAC failure" true
       (contains ~sub:"MAC" m))

let tampering_rejected () =
  let sys = build_system () in
  let data = Bytes.of_string (Persist.to_string sys) in
  (* Flip a byte in the middle of the payload. *)
  let i = Bytes.length data / 2 in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x40));
  (match Persist.of_string ~master:"persist-master" (Bytes.to_string data) with
   | _ -> Alcotest.fail "tampered file must be rejected"
   | exception Persist.Corrupt _ -> ())

let truncation_rejected () =
  let sys = build_system () in
  let data = Persist.to_string sys in
  List.iter
    (fun keep ->
      match Persist.of_string ~master:"persist-master" (String.sub data 0 keep) with
      | _ -> Alcotest.failf "truncation to %d must be rejected" keep
      | exception Persist.Corrupt m ->
        (* Truncation is a crash artifact, not an attack: the error must
           say "torn", never "tampered". *)
        Alcotest.(check bool)
          (Printf.sprintf "truncation to %d reported as torn" keep)
          true (contains ~sub:"torn write" m))
    [ 0; 7; 40; String.length data / 2; String.length data - 1 ]

let truncation_at_every_section_boundary () =
  let sys = build_system () in
  let data = Persist.to_string sys in
  let offsets = Persist.section_offsets sys in
  Alcotest.(check int) "fourteen sections" 14 (List.length offsets);
  List.iter
    (fun (name, boundary) ->
      List.iter
        (fun cut ->
          if cut >= 0 && cut < String.length data then begin
            let torn = String.sub data 0 cut in
            (* load refuses, as a torn write... *)
            (match Persist.of_string ~master:"persist-master" torn with
             | _ -> Alcotest.failf "cut at %s%+d accepted" name (cut - boundary)
             | exception Persist.Corrupt m ->
               Alcotest.(check bool)
                 (Printf.sprintf "%s cut %d torn" name cut)
                 true (contains ~sub:"torn write" m));
            (* ...and verify localises the tear: sections whose bytes
               are fully present still decode, the straddling one
               fails, the rest are unreached. *)
            let report = Persist.verify ~master:"persist-master" torn in
            (match report.Persist.verdict with
             | Persist.Torn { expected_bytes; actual_bytes } ->
               Alcotest.(check int) "expected full size" (String.length data)
                 expected_bytes;
               Alcotest.(check int) "actual cut size" cut actual_bytes
             | v ->
               Alcotest.failf "cut at %s%+d: verdict %s" name (cut - boundary)
                 (Persist.verdict_to_string v));
            List.iter
              (fun (sec, sec_end) ->
                match List.assoc_opt sec report.Persist.sections with
                | None -> Alcotest.failf "section %s missing from report" sec
                | Some status ->
                  let present = sec_end <= cut in
                  let ok = status = Persist.Section_ok in
                  if present && not ok then
                    Alcotest.failf "cut %d: complete section %s not ok" cut sec;
                  if (not present) && ok then
                    Alcotest.failf "cut %d: incomplete section %s reported ok" cut
                      sec)
              offsets
          end)
        [ boundary - 1; boundary; boundary + 1 ])
    offsets

let interrupted_save_preserves_previous_bundle () =
  let sys = build_system () in
  let sys2, _ =
    System.update sys (Secure.Update.Set_value (parse "//patient/age", "64"))
  in
  let path = Filename.temp_file "sxq" ".host" in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      Persist.save sys path;
      let q = parse "//patient[.//disease='flu']/pname" in
      let expected = fst (System.evaluate sys q) in
      let new_data = Persist.to_string sys2 in
      (* Simulate a crash mid-save at assorted byte offsets: save writes
         to [path ^ ".tmp"] first, so the interruption leaves a torn tmp
         next to an untouched previous bundle. *)
      List.iter
        (fun cut ->
          let oc = open_out_bin tmp in
          output_string oc (String.sub new_data 0 cut);
          close_out oc;
          (* The previous bundle is still loadable and answers as before. *)
          let restored = Persist.load ~master:"persist-master" path in
          Helpers.check_trees_equal
            (Printf.sprintf "previous bundle survives crash at offset %d" cut)
            expected
            (fst (System.evaluate restored q));
          (* fsck flags the torn tmp artifact. *)
          let report = Persist.verify_file ~master:"persist-master" tmp in
          match report.Persist.verdict with
          | Persist.Torn _ -> ()
          | v ->
            Alcotest.failf "tmp torn at %d: verdict %s" cut
              (Persist.verdict_to_string v))
        [ 0; 1; 7; 15; 100; String.length new_data / 3;
          String.length new_data - 1 ];
      (* A completed save replaces the bundle atomically and cleans up. *)
      Persist.save sys2 path;
      Alcotest.(check bool) "tmp removed after successful save" false
        (Sys.file_exists tmp);
      let restored = Persist.load ~master:"persist-master" path in
      Helpers.check_trees_equal "new bundle after completed save"
        (fst (System.evaluate sys2 q))
        (fst (System.evaluate restored q)))

let verify_reports () =
  let sys = build_system () in
  let data = Persist.to_string sys in
  (* Intact bundle: everything green. *)
  let report = Persist.verify ~master:"persist-master" data in
  Alcotest.(check string) "intact" "intact"
    (Persist.verdict_to_string report.Persist.verdict);
  List.iter
    (fun (name, status) ->
      if status <> Persist.Section_ok then
        Alcotest.failf "section %s not ok on intact bundle" name)
    report.Persist.sections;
  Alcotest.(check bool) "blocks seen" true (report.Persist.blocks_total > 0);
  Alcotest.(check int) "no bad blocks" 0 (List.length report.Persist.blocks_bad);
  (* Bit flip: tampering, not a tear. *)
  let flipped = Bytes.of_string data in
  let i = Bytes.length flipped / 2 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x40));
  let report = Persist.verify ~master:"persist-master" (Bytes.to_string flipped) in
  (match report.Persist.verdict with
   | Persist.Tampered | Persist.Malformed _ -> ()
   | v -> Alcotest.failf "flip verdict %s" (Persist.verdict_to_string v));
  (* Wrong master: MAC cannot verify. *)
  let report = Persist.verify ~master:"eve" data in
  match report.Persist.verdict with
  | Persist.Tampered -> ()
  | v -> Alcotest.failf "wrong master verdict %s" (Persist.verdict_to_string v)

let updated_system_persists () =
  let sys = build_system () in
  let sys2, _ =
    System.update sys
      (Secure.Update.Set_value (parse "//patient/age", "64"))
  in
  let restored = Persist.of_string ~master:"persist-master" (Persist.to_string sys2) in
  let q = parse "//patient[age=64]/pname" in
  Helpers.check_trees_equal "post-update persistence"
    (fst (System.evaluate sys2 q))
    (fst (System.evaluate restored q))

(* --- Delta log: journal round trips, crash injection, compaction --- *)

module Update = Secure.Update
module Tree = Xmlcore.Tree

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

(* A mixed edit batch: value edits on encrypted leaves (policy# and
   disease live inside //insurance and //patient blocks under the
   Health constraints), a structural insert of a plaintext tag, and a
   structural delete. *)
let log_edits =
  [ Update.Set_value (parse "//policy#", "90001");
    Update.Insert_child
      { parent = parse "//patient"; position = 0;
        subtree = Tree.leaf "remark" "checked" };
    Update.Set_value (parse "//disease", "flu");
    Update.Delete_nodes (parse "//remark");
    Update.Set_value (parse "//policy#", "90002") ]

(* Host a bundle, run [edits] through a journal, hand (path, sys0) to
   [f], and clean up every artifact afterwards. *)
let with_journal ?compact_threshold edits f =
  let sys = build_system () in
  let path = Filename.temp_file "sxq" ".host" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Persist.log_path path; path ^ ".tmp" ])
    (fun () ->
      Persist.save sys path;
      let j = Persist.journal_open ?compact_threshold ~master:"persist-master" path in
      List.iter (fun e -> ignore (Persist.journal_update j e)) edits;
      f path sys j)

(* The plaintext oracle for "exactly the first [k] edits applied":
   mutate the document offline and re-host it from scratch. *)
let oracle_answers sys k q =
  let prefix = List.filteri (fun i _ -> i < k) log_edits in
  let doc' = Update.apply_all (System.doc sys) prefix in
  let fresh, _ =
    System.setup ~master:"persist-master" doc' (System.constraints sys)
      Secure.Scheme.Opt
  in
  Helpers.norm_trees (System.reference fresh (parse q))

let log_queries =
  [ "//patient/pname"; "//insurance/policy#"; "//remark";
    "//patient[.//disease='flu']/pname" ]

let journal_roundtrip () =
  with_journal log_edits (fun path sys j ->
      let n = List.length log_edits in
      Alcotest.(check int) "seq after updates" n (Persist.journal_seq j);
      (* Reopening replays the log to a byte-identical system. *)
      let j2 = Persist.journal_open ~master:"persist-master" path in
      Alcotest.(check int) "seq after reopen" n (Persist.journal_seq j2);
      Alcotest.(check bool) "replayed state byte-identical" true
        (Persist.to_string (Persist.journal_system j)
        = Persist.to_string (Persist.journal_system j2));
      (* Answers agree with a from-scratch re-host of the mutated doc. *)
      List.iter
        (fun q ->
          Alcotest.(check (list string)) ("reopen " ^ q)
            (oracle_answers sys n q)
            (Helpers.norm_trees
               (fst (System.evaluate (Persist.journal_system j2) (parse q)))))
        log_queries;
      (* fsck agrees the log is clean and fully pending. *)
      match Persist.fsck_log ~master:"persist-master" path with
      | None -> Alcotest.fail "fsck found no log"
      | Some f ->
        Alcotest.(check int) "records" n f.Persist.log_records;
        Alcotest.(check int) "pending" n f.Persist.log_pending;
        Alcotest.(check int) "dropped" 0 f.Persist.log_dropped_bytes;
        Alcotest.(check (option string)) "fatal" None f.Persist.log_fatal;
        Alcotest.(check (option string)) "replay" None f.Persist.log_replay)

(* Frame geometry of the on-disk log: [(start, stop)] per record, where
   a record spans [8-byte length][payload][32-byte MAC]. *)
let record_spans data =
  let magic_len = 8 and mac_len = 32 in
  let n = String.length data in
  let rec go off acc =
    if off >= n then List.rev acc
    else
      let len =
        Int64.to_int (Bytes.get_int64_le (Bytes.unsafe_of_string data) off)
      in
      let stop = off + 8 + len + mac_len in
      go stop ((off, stop) :: acc)
  in
  go magic_len []

let log_truncation_battery () =
  with_journal log_edits (fun path sys _j ->
      let lp = Persist.log_path path in
      let data = read_file lp in
      let spans = record_spans data in
      Alcotest.(check int) "one record per edit" (List.length log_edits)
        (List.length spans);
      (* Cut points: inside the magic, at every record boundary, and at
         several offsets inside every record (length field, payload,
         MAC). *)
      let cuts =
        (0, 0) :: (3, 0) :: (8, 8)
        :: List.concat_map
             (fun (start, stop) ->
               let clean = start in
               [ start + 1, clean; start + 8, clean;
                 start + 8 + ((stop - start - 40) / 2), clean;
                 stop - 1, clean; stop, stop ])
             spans
      in
      List.iter
        (fun (cut, clean_bytes) ->
          if cut <= String.length data then begin
            write_file lp (String.sub data 0 cut);
            (* read_log classifies the damage as a tear, never raises. *)
            let records, tail =
              Persist.read_log ~master:"persist-master" (String.sub data 0 cut)
            in
            let full_before =
              List.length (List.filter (fun (_, stop) -> stop <= cut) spans)
            in
            Alcotest.(check int)
              (Printf.sprintf "cut %d: complete records" cut)
              full_before (List.length records);
            (match tail with
             | Persist.Log_clean ->
               Alcotest.(check int)
                 (Printf.sprintf "cut %d is a boundary" cut)
                 clean_bytes cut
             | Persist.Log_torn { clean_bytes = cb; dropped_bytes } ->
               Alcotest.(check int)
                 (Printf.sprintf "cut %d: clean prefix" cut)
                 clean_bytes cb;
               Alcotest.(check int)
                 (Printf.sprintf "cut %d: dropped bytes" cut)
                 (cut - clean_bytes) dropped_bytes);
            (* fsck reports the tear as recoverable, not fatal. *)
            (match Persist.fsck_log ~master:"persist-master" path with
             | None -> Alcotest.fail "fsck found no log"
             | Some f ->
               Alcotest.(check (option string))
                 (Printf.sprintf "cut %d: no fatal" cut)
                 None f.Persist.log_fatal;
               Alcotest.(check (option string))
                 (Printf.sprintf "cut %d: replay ok" cut)
                 None f.Persist.log_replay);
            (* Recovery serves exactly the clean-prefix state — never a
               half-applied delta. *)
            let j =
              Persist.journal_open ~master:"persist-master" path
            in
            Alcotest.(check int)
              (Printf.sprintf "cut %d: recovered seq" cut)
              full_before (Persist.journal_seq j);
            List.iter
              (fun q ->
                Alcotest.(check (list string))
                  (Printf.sprintf "cut %d: %s" cut q)
                  (oracle_answers sys full_before q)
                  (Helpers.norm_trees
                     (fst
                        (System.evaluate (Persist.journal_system j) (parse q)))))
              log_queries;
            (* journal_open truncated the torn tail on disk. *)
            Alcotest.(check int)
              (Printf.sprintf "cut %d: tail dropped on disk" cut)
              clean_bytes
              (String.length (read_file lp))
          end)
        cuts)

(* After a tear inside the magic, recovery truncates the log to zero
   bytes; the next append must re-seed the magic so the log stays
   scannable. *)
let log_reseeds_after_total_tear () =
  with_journal log_edits (fun path sys _j ->
      let lp = Persist.log_path path in
      let data = read_file lp in
      write_file lp (String.sub data 0 3);
      let j = Persist.journal_open ~master:"persist-master" path in
      Alcotest.(check int) "nothing replayed" 0 (Persist.journal_seq j);
      ignore (Persist.journal_update j (List.hd log_edits));
      let j2 = Persist.journal_open ~master:"persist-master" path in
      Alcotest.(check int) "reopen sees the new record" 1
        (Persist.journal_seq j2);
      List.iter
        (fun q ->
          Alcotest.(check (list string)) ("reseed " ^ q)
            (oracle_answers sys 1 q)
            (Helpers.norm_trees
               (fst (System.evaluate (Persist.journal_system j2) (parse q)))))
        log_queries)

(* An edit [Update.delta] cannot plan — a bare text node inserted under
   a childless element — is rejected by every entry point alike:
   [Update.apply], [Update.delta], [System.apply_delta] and
   [Persist.journal_update] all raise [Invalid_argument], and the log
   keeps its bytes. *)
let unplannable_edit_appends_nothing () =
  let doc = Xmlcore.Parser.parse_doc "<r><a><b>1</b></a><e></e></r>" in
  let edit =
    Update.Insert_child { parent = parse "/r/e"; position = 0; subtree = Tree.Text "x" }
  in
  let raises what f =
    Alcotest.(check bool) (what ^ " raises Invalid_argument") true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "Update.apply" (fun () -> ignore (Update.apply doc edit));
  raises "Update.delta" (fun () -> ignore (Update.delta doc edit));
  let sys, _ =
    System.setup ~master:"persist-master" doc [ Secure.Sc.parse "//b" ] Secure.Scheme.Opt
  in
  raises "System.apply_delta" (fun () -> ignore (System.apply_delta sys edit));
  let path = Filename.temp_file "sxq" ".host" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Persist.log_path path; path ^ ".tmp" ])
    (fun () ->
      Persist.save sys path;
      let j = Persist.journal_open ~master:"persist-master" path in
      ignore (Persist.journal_update j (Update.Set_value (parse "/r/a/b", "2")));
      let log = read_file (Persist.log_path path) in
      raises "Persist.journal_update" (fun () -> ignore (Persist.journal_update j edit));
      Alcotest.(check string) "log bytes unchanged" log (read_file (Persist.log_path path));
      Alcotest.(check int) "sequence unchanged" 1 (Persist.journal_seq j))

(* An append that fails — here a directory squats on the log path, so
   opening it raises [Sys_error] — must leave the journal as it was:
   the next update then reuses the sequence number, and reopening finds
   no gap in the log. *)
let failed_append_leaves_no_gap () =
  with_journal [] (fun path sys j ->
      let edit = List.hd log_edits in
      let lp = Persist.log_path path in
      let before = Persist.to_string (Persist.journal_system j) in
      Sys.mkdir lp 0o755;
      let failed =
        Fun.protect
          ~finally:(fun () -> Sys.rmdir lp)
          (fun () ->
            match Persist.journal_update j edit with
            | (_ : System.delta_cost) -> false
            | exception Sys_error _ -> true)
      in
      Alcotest.(check bool) "append into a directory fails" true failed;
      let seq_after = Persist.journal_seq j in
      let state_after = Persist.to_string (Persist.journal_system j) in
      ignore (Persist.journal_update j edit);
      let j2 = Persist.journal_open ~master:"persist-master" path in
      Alcotest.(check int) "failed update leaves the seq" 0 seq_after;
      Alcotest.(check bool) "failed update leaves the system" true
        (String.equal before state_after);
      Alcotest.(check int) "reopen replays the retried edit" 1
        (Persist.journal_seq j2);
      List.iter
        (fun q ->
          Alcotest.(check (list string)) ("retried " ^ q)
            (oracle_answers sys 1 q)
            (Helpers.norm_trees
               (fst (System.evaluate (Persist.journal_system j2) (parse q)))))
        log_queries)

let log_tampering_battery () =
  with_journal log_edits (fun path _sys _j ->
      let lp = Persist.log_path path in
      let data = read_file lp in
      let spans = record_spans data in
      (* Flip one byte in the payload and one in the MAC of every
         record; each is a complete frame, so the scanner must call it
         tampering (a hard error), never a recoverable tear. *)
      let flips =
        List.concat_map
          (fun (start, stop) -> [ start + 8 + 2; stop - 5 ])
          spans
      in
      List.iter
        (fun i ->
          let b = Bytes.of_string data in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
          let mutated = Bytes.to_string b in
          (match Persist.read_log ~master:"persist-master" mutated with
           | _ -> Alcotest.failf "flip at %d accepted" i
           | exception Persist.Corrupt m ->
             Alcotest.(check bool)
               (Printf.sprintf "flip %d names the record" i)
               true (contains ~sub:"delta log record" m));
          write_file lp mutated;
          (* fsck surfaces it as fatal... *)
          (match Persist.fsck_log ~master:"persist-master" path with
           | None -> Alcotest.fail "fsck found no log"
           | Some f ->
             Alcotest.(check bool)
               (Printf.sprintf "flip %d fatal" i)
               true (f.Persist.log_fatal <> None));
          (* ...and recovery refuses outright rather than serving a
             half-applied prefix. *)
          match Persist.journal_open ~master:"persist-master" path with
          | _ -> Alcotest.failf "journal_open accepted flip at %d" i
          | exception Persist.Corrupt _ -> ())
        flips;
      (* A record from a different master is tampering too. *)
      write_file lp data;
      match
        Persist.read_log ~master:"eve" data
      with
      | _ -> Alcotest.fail "foreign master accepted"
      | exception Persist.Corrupt _ -> ())

let log_compaction () =
  (* A one-byte threshold forces compaction after every update: the log
     is folded into the bundle and removed, and the bundle's applied
     sequence advances so reopen replays nothing. *)
  with_journal ~compact_threshold:1 log_edits (fun path sys j ->
      let n = List.length log_edits in
      Alcotest.(check int) "seq survives compaction" n (Persist.journal_seq j);
      Alcotest.(check bool) "log removed" false
        (Sys.file_exists (Persist.log_path path));
      Alcotest.(check (option string)) "fsck has nothing to do" None
        (Option.map (fun _ -> "log present")
           (Persist.fsck_log ~master:"persist-master" path));
      let restored, applied = Persist.load_seq ~master:"persist-master" path in
      Alcotest.(check int) "applied-seq folded into bundle" n applied;
      List.iter
        (fun q ->
          Alcotest.(check (list string)) ("compacted " ^ q)
            (oracle_answers sys n q)
            (Helpers.norm_trees (fst (System.evaluate restored (parse q)))))
        log_queries;
      let j2 = Persist.journal_open ~master:"persist-master" path in
      Alcotest.(check int) "reopen after compaction" n (Persist.journal_seq j2))

(* Byte pin: the bundle of one fixed hosting under each cipher suite,
   captured before the crypto kernels were rewritten for speed.  An
   equal digest means every ciphertext, block MAC, IV, OPE code and
   the bundle MAC are unchanged; loading the pinned bytes must still
   answer like the plaintext reference. *)
let pinned_bundles =
  [ Crypto.Cipher.Xtea, "25fc4b8c4feed10c88f85a8db84061677697c537ef37377ddce96130b584cc6f";
    Crypto.Cipher.Aes, "f48fe0e431f6f6de05ad544fce8a32f0e145f60a46f6bbd071a4e6573d773d9d" ]

let bundle_pin () =
  let doc = Workload.Health.generate ~patients:30 () in
  let scs = Workload.Health.constraints () in
  let query = parse "//patient[age>=50]/pname" in
  List.iter
    (fun (cipher, expected) ->
      let suite = Crypto.Cipher.suite_to_string cipher in
      let sys, _ = System.setup ~master:"pin-master" ~cipher doc scs Secure.Scheme.Opt in
      let path = Filename.temp_file "sxq-pin" ".host" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Persist.save sys path;
          let stored = In_channel.with_open_bin path In_channel.input_all in
          Alcotest.(check string) (suite ^ " bundle") expected (Crypto.Sha256.hex stored);
          let restored = Persist.load ~master:"pin-master" path in
          let answers = fst (System.evaluate restored query) in
          Alcotest.(check int) (suite ^ " answer count") 15 (List.length answers);
          Helpers.check_trees_equal (suite ^ " pinned answers")
            (System.reference sys query) answers))
    pinned_bundles

(* Byte pin for the write path: the churn workload's edit cycle on a
   fixed hosting — four policy# values (the second a new maximum of the
   numeric catalog), then a remark inserted and deleted again — driven
   through [journal_update], captured before the write path was made
   to cost the edit rather than the hosting.  Equal digests mean every
   re-encrypted block, OPE code, B-tree entry (duplicates in order),
   DSI row and log record is unchanged. *)
let pinned_journal =
  ( "41507b4b6c9e7655562d06c2e4a631579d4d561586874c96b806a519bb08589e",
    "bc0780e45b5506e78637e697c19f5d08f167947aeb0c91eb9f994a0d17140871" )

let journal_pin () =
  let doc = Workload.Health.generate ~patients:30 () in
  let scs = Workload.Health.constraints () in
  let names =
    Array.of_list
      (List.filter_map (Xmlcore.Doc.value doc) (Xmlcore.Doc.nodes_with_tag doc "pname"))
  in
  let patient i = Printf.sprintf "//patient[pname='%s']" names.(i) in
  let policy i v = Update.Set_value (parse (patient i ^ "//policy#"), v) in
  let edits =
    [ policy 3 "90417";
      policy 11 "123456";
      policy 20 "00042";
      policy 3 "61230";
      Update.Insert_child
        { parent = parse (patient 7); position = 0; subtree = Tree.leaf "remark" "follow-up" };
      Update.Delete_nodes (parse (patient 7 ^ "/remark")) ]
  in
  let sys, _ = System.setup ~master:"pin-master" doc scs Secure.Scheme.Opt in
  let path = Filename.temp_file "sxq-pin" ".host" in
  let saved = Filename.temp_file "sxq-pin" ".host" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Persist.log_path path; path ^ ".tmp"; saved; saved ^ ".tmp" ])
    (fun () ->
      Persist.save sys path;
      let j = Persist.journal_open ~master:"pin-master" path in
      List.iter
        (fun e ->
          let cost = Persist.journal_update j e in
          Alcotest.(check bool) "incremental" false cost.System.fell_back)
        edits;
      Persist.save (Persist.journal_system j) saved;
      let digest p = Crypto.Sha256.hex (read_file p) in
      let bundle, log = pinned_journal in
      Alcotest.(check string) "bundle after the edits" bundle (digest saved);
      Alcotest.(check string) "delta log" log (digest (Persist.log_path path));
      let reopened = Persist.journal_system (Persist.journal_open ~master:"pin-master" path) in
      let fresh, _ =
        System.setup ~master:"pin-master" (Update.apply_all doc edits) scs Secure.Scheme.Opt
      in
      List.iter
        (fun q ->
          Alcotest.(check (list string)) ("reopened " ^ q)
            (Helpers.norm_trees (System.reference fresh (parse q)))
            (Helpers.norm_trees (fst (System.evaluate reopened (parse q)))))
        ("//insurance[policy#>=90000]/@coverage" :: log_queries))

let () =
  Alcotest.run "persist"
    [ ( "roundtrip",
        [ Alcotest.test_case "answers preserved" `Quick roundtrip_preserves_answers;
          Alcotest.test_case "file io" `Quick roundtrip_via_file;
          Alcotest.test_case "deterministic" `Quick stable_encoding;
          Alcotest.test_case "after update" `Quick updated_system_persists;
          Alcotest.test_case "pinned bytes" `Quick bundle_pin ] );
      ( "integrity",
        [ Alcotest.test_case "wrong master" `Quick wrong_master_rejected;
          Alcotest.test_case "tampering" `Quick tampering_rejected;
          Alcotest.test_case "truncation" `Quick truncation_rejected;
          Alcotest.test_case "section boundaries" `Quick
            truncation_at_every_section_boundary ] );
      ( "crash safety",
        [ Alcotest.test_case "interrupted save" `Quick
            interrupted_save_preserves_previous_bundle;
          Alcotest.test_case "verify reports" `Quick verify_reports ] );
      ( "delta log",
        [ Alcotest.test_case "journal roundtrip" `Quick journal_roundtrip;
          Alcotest.test_case "truncation battery" `Quick log_truncation_battery;
          Alcotest.test_case "reseed after total tear" `Quick
            log_reseeds_after_total_tear;
          Alcotest.test_case "failed append leaves no gap" `Quick
            failed_append_leaves_no_gap;
          Alcotest.test_case "unplannable edit appends nothing" `Quick
            unplannable_edit_appends_nothing;
          Alcotest.test_case "tampering battery" `Quick log_tampering_battery;
          Alcotest.test_case "compaction" `Quick log_compaction;
          Alcotest.test_case "pinned journal bytes" `Quick journal_pin ] ) ]
