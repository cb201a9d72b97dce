(* Crash-torture tests: the harness in Decibel.Torture kills a scripted
   workload at every failpoint site it crosses (first/middle/last
   crossing, raise and torn-write variants), recovers, and checks the
   recovered and final states against the model-engine oracle.  Every
   case must pass and post-recovery fsck must be clean, on every
   physical scheme; one transient fault per retryable site must be
   absorbed by bounded retry. *)

open Decibel
module Failpoint = Decibel_fault.Failpoint

(* deterministic across runs and machines *)
let () = Failpoint.set_seed 0x5EEDL

let schemes =
  [
    Database.Tuple_first;
    Database.Tuple_first_tuple_oriented;
    Database.Version_first;
    Database.Hybrid;
  ]

let with_root f =
  let root = Decibel_util.Fsutil.fresh_dir "decibel-crash" in
  Fun.protect ~finally:(fun () -> Decibel_util.Fsutil.rm_rf root) (fun () -> f root)

let test_torture scheme () =
  with_root (fun root ->
      let s = Torture.torture ~root scheme in
      (* the harness only proves something if the workload actually
         crosses the instrumented sites *)
      Alcotest.(check bool)
        "workload crosses wal.append" true
        (List.mem_assoc "wal.append" s.Torture.s_sites);
      Alcotest.(check bool)
        "workload crosses heap.flush" true
        (List.mem_assoc "heap.flush" s.Torture.s_sites);
      Alcotest.(check bool)
        "workload crosses manifest.write_tmp" true
        (List.mem_assoc "manifest.write_tmp" s.Torture.s_sites);
      Alcotest.(check bool)
        "ran a useful number of cases" true
        (List.length s.Torture.s_cases >= 10);
      List.iter
        (fun (c : Torture.case) ->
          if not c.Torture.c_ok then
            Alcotest.failf "%s: %s@%d (%s): %s" s.Torture.s_scheme
              c.Torture.c_site c.Torture.c_occurrence c.Torture.c_action
              c.Torture.c_detail)
        s.Torture.s_cases)

let test_transient scheme () =
  with_root (fun root ->
      List.iter
        (fun (site, outcome) ->
          Alcotest.(check string)
            (Printf.sprintf "transient at %s absorbed" site)
            "" outcome)
        (Torture.transient_check ~root scheme))

(* fsck end-to-end: a cleanly closed repository is clean; chopping the
   WAL tail is detected and repaired; a flipped byte inside a heap
   record is detected (and not silently "repaired"). *)
let test_fsck_repair () =
  with_root (fun root ->
      let dir = Filename.concat root "repo" in
      let db =
        Database.open_ ~durable:true ~scheme:Database.Tuple_first ~dir
          ~schema:Torture.schema ()
      in
      List.iter (Torture.apply db) Torture.default_workload;
      (* the workload ends on a checkpoint, so log fresh entries past
         it before crashing *)
      List.iter (Torture.apply db)
        [ Torture.Insert ("master", 7, 70); Torture.Insert ("master", 8, 80) ];
      Database.crash db;
      (* tear the log mid-frame *)
      let wal = Filename.concat dir "wal.log" in
      let data = Decibel_util.Binio.read_file wal in
      Decibel_util.Binio.write_file wal
        (String.sub data 0 (String.length data - 3));
      (* and strand a fake half-renamed manifest *)
      let tmp = Filename.concat dir "manifest.tf.tmp" in
      Decibel_util.Binio.write_file tmp "partial";
      let r1 = Fsck.run ~repair:true ~dir () in
      Alcotest.(check bool) "fsck found problems" false (Fsck.clean r1);
      Alcotest.(check bool)
        "all findings repaired" true
        (List.for_all (fun f -> f.Fsck.repaired) r1.Fsck.findings);
      let r2 = Fsck.run ~dir () in
      Alcotest.(check bool) "clean after repair" true (Fsck.clean r2);
      Alcotest.(check bool)
        "scheme detected" true
        (match r2.Fsck.scheme with
        | Some s -> String.length s >= 11 && String.sub s 0 11 = "tuple-first"
        | None -> false);
      (* recovery still works on the repaired repository *)
      let db2 = Database.reopen ~dir () in
      Alcotest.(check bool)
        "recovered rows present" true
        (Database.count db2 Decibel_graph.Version_graph.master > 0);
      Database.close db2)

let test_fsck_detects_bitrot () =
  with_root (fun root ->
      let dir = Filename.concat root "repo" in
      let db =
        Database.open_ ~scheme:Database.Tuple_first ~dir
          ~schema:Torture.schema ()
      in
      List.iter (Torture.apply db) Torture.default_workload;
      Database.close db;
      Alcotest.(check bool)
        "clean before corruption" true
        (Fsck.clean (Fsck.run ~dir ()));
      (* flip one payload byte on disk *)
      let heap = Filename.concat dir "heap.dat" in
      let data = Bytes.of_string (Decibel_util.Binio.read_file heap) in
      let off = Bytes.length data - 5 in
      Bytes.set data off (Char.chr (Char.code (Bytes.get data off) lxor 0x40));
      Decibel_util.Binio.write_file heap (Bytes.to_string data);
      let r = Fsck.run ~repair:true ~dir () in
      Alcotest.(check bool) "bitrot detected" false (Fsck.clean r);
      Alcotest.(check bool)
        "checksum corruption is never auto-repaired" true
        (List.exists (fun f -> not f.Fsck.repaired) r.Fsck.findings))

(* fsck without repair writes nothing: segment bytes past the
   checkpoint (a crash's unflushed tail) are reported, not cut, and the
   workload statistics are not rewritten.  Repair cuts them. *)
let test_fsck_read_only scheme () =
  with_root (fun root ->
      let dir = Filename.concat root "repo" in
      let db = Database.open_ ~scheme ~dir ~schema:Torture.schema () in
      List.iter (Torture.apply db) Torture.default_workload;
      Database.close db;
      let is_segment f =
        Filename.check_suffix f ".dat"
        && (String.starts_with ~prefix:"seg_" f
           || String.starts_with ~prefix:"heap" f)
      in
      let files () =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.map (fun f ->
               (f, Decibel_util.Binio.read_file (Filename.concat dir f)))
      in
      let segments = List.filter is_segment (List.map fst (files ())) in
      Alcotest.(check bool) "has segment files" true (segments <> []);
      List.iter
        (fun f ->
          let oc =
            open_out_gen [ Open_append; Open_binary ] 0o644
              (Filename.concat dir f)
          in
          output_string oc "junk";
          close_out oc)
        segments;
      let pristine = files () in
      let r = Fsck.run ~dir () in
      Alcotest.(check bool) "every file byte-identical" true
        (files () = pristine);
      let tails =
        List.filter
          (fun f -> List.mem f.Fsck.artifact segments && not f.Fsck.repaired)
          r.Fsck.findings
      in
      Alcotest.(check int) "one stray-tail finding per segment"
        (List.length segments) (List.length tails);
      let r = Fsck.run ~repair:true ~dir () in
      Alcotest.(check bool) "repair cuts the tails" true
        (r.Fsck.findings <> []
        && List.for_all (fun f -> f.Fsck.repaired) r.Fsck.findings);
      Alcotest.(check bool) "clean after repair" true
        (Fsck.clean (Fsck.run ~dir ())))

(* Corruption escaping an engine operation quarantines the branch and
   degrades the database to read-only; intact branches stay readable. *)
let test_degraded_mode () =
  with_root (fun root ->
      let dir = Filename.concat root "repo" in
      let db =
        Database.open_ ~scheme:Database.Tuple_first ~dir
          ~schema:Torture.schema ()
      in
      List.iter (Torture.apply db) Torture.default_workload;
      Database.flush db;
      Database.drop_caches db;
      (* flip a payload byte of the last record (live on master) in
         place — through the same inode the running database has open —
         then force a read *)
      let heap = Filename.concat dir "heap.dat" in
      let data = Bytes.of_string (Decibel_util.Binio.read_file heap) in
      let off = Bytes.length data - 5 in
      let flipped = Char.chr (Char.code (Bytes.get data off) lxor 0x01) in
      let fd = Unix.openfile heap [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 flipped) 0 1);
      Unix.close fd;
      let master = Decibel_graph.Version_graph.master in
      Alcotest.(check bool)
        "read of corrupt branch raises" true
        (match Database.scan_list db master with
        | _ -> false
        | exception Types.Engine_error _ -> true);
      Alcotest.(check bool)
        "database degraded" true
        (match Database.health db with
        | Database.Degraded _ -> true
        | Database.Healthy -> false);
      Alcotest.(check bool)
        "branch quarantined" true
        (List.mem_assoc master (Database.quarantined db));
      Alcotest.(check bool)
        "writes refused while degraded" true
        (match Database.insert db master (Torture.row 99 99) with
        | _ -> false
        | exception Types.Engine_error _ -> true);
      (* health shows up in the storage report *)
      let r = Database.storage_report db in
      Alcotest.(check bool)
        "report shows degraded" true
        (String.length r.Decibel_obs.Report.r_health > 9
        && String.sub r.Decibel_obs.Report.r_health 0 8 = "degraded");
      Alcotest.(check int)
        "report lists quarantined branch" 1
        (List.length r.Decibel_obs.Report.r_quarantined))

let () =
  Alcotest.run "crash"
    [
      ( "torture",
        List.map
          (fun scheme ->
            Alcotest.test_case (Database.scheme_name scheme) `Slow
              (test_torture scheme))
          schemes );
      ( "transient",
        List.map
          (fun scheme ->
            Alcotest.test_case (Database.scheme_name scheme) `Quick
              (test_transient scheme))
          schemes );
      ( "fsck",
        [
          Alcotest.test_case "repairs torn tail + stale tmp" `Quick
            test_fsck_repair;
          Alcotest.test_case "detects bitrot" `Quick test_fsck_detects_bitrot;
        ]
        @ List.map
            (fun scheme ->
              Alcotest.test_case
                ("read-only on stray tails: " ^ Database.scheme_name scheme)
                `Quick (test_fsck_read_only scheme))
            [ Database.Tuple_first; Database.Version_first; Database.Hybrid ]
      );
      ( "degraded",
        [ Alcotest.test_case "quarantine + read-only" `Quick test_degraded_mode ] );
    ]
