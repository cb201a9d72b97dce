(* Crash-safe maintenance tests: the journaled executor
   (Database.run_maintenance) on all three physical schemes — direct
   task execution preserves the logical fingerprint and improves the
   storage report; the maintenance torture schedule kills at every
   maint.* failpoint and must recover fingerprint-identical; recovery
   rolls back (or finishes) whatever the journal left pending; the
   maint.* observability surface moves. *)

open Decibel
module Failpoint = Decibel_fault.Failpoint
module Obs = Decibel_obs.Obs
module Vg = Decibel_graph.Version_graph

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
  let root = Decibel_util.Fsutil.fresh_dir "decibel-maint" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf root)
    (fun () -> f root)

(* the fragmenting prefix of the torture maintenance schedule: dead
   heap rows, multi-commit delta chains, sealed fragmented segments *)
let fragmenting =
  Torture.
    [
      (* the row holding 9 is superseded before the first commit, so
         no checkout ever references it: dead heap space *)
      Insert ("master", 1, 9);
      Insert ("master", 2, 20);
      Update ("master", 1, 10);
      Insert ("master", 3, 30);
      Commit "master";
      (* hybrid: freezes master's head segment with the dead row in it *)
      Branch ("dev", "master");
      Update ("dev", 1, 11);
      Update ("dev", 2, 21);
      Commit "dev";
      Update ("dev", 1, 12);
      Commit "dev";
      Update ("master", 3, 31);
      Delete ("master", 2);
      Commit "master";
      Flush;
    ]

let open_fragmented ~dir scheme =
  let db =
    Database.open_ ~durable:true ~scheme ~dir ~schema:Torture.schema ()
  in
  List.iter (Torture.apply db) fragmenting;
  db

(* run the same pass the torture [Maint] op runs: engine-chosen GC,
   then materialize per active branch *)
let run_all db =
  let r = ref [] in
  (match Database.run_maintenance db ~kind:Engine_intf.M_gc ~target:"" with
  | Some x -> r := x :: !r
  | None -> ());
  List.iter
    (fun (br : Vg.branch) ->
      if br.Vg.active then
        match
          Database.run_maintenance db ~kind:Engine_intf.M_materialize
            ~target:br.Vg.name
        with
        | Some x -> r := x :: !r
        | None -> ())
    (Vg.branches (Database.graph db));
  List.rev !r

let test_executor scheme () =
  with_root (fun root ->
      let dir = Filename.concat root "repo" in
      let db = open_fragmented ~dir scheme in
      let st = Torture.state_of db in
      let fp = Database.fingerprint db in
      let ran = run_all db in
      Alcotest.(check bool) "at least one task ran" true (ran <> []);
      Alcotest.(check string) "fingerprint preserved" fp
        (Database.fingerprint db);
      Alcotest.(check bool)
        "contents preserved" true
        (Torture.state_of db = st);
      (* the journal records only terminal outcomes *)
      Alcotest.(check int) "no pending journal tasks" 0
        (List.length (Database.resolve_maintenance ~dry_run:true db));
      Database.close db;
      (* the rewritten repository reopens to the same content and is
         fsck-clean *)
      let db2 = Database.reopen ~dir () in
      Alcotest.(check string) "fingerprint survives reopen" fp
        (Database.fingerprint db2);
      Alcotest.(check bool)
        "contents survive reopen" true
        (Torture.state_of db2 = st);
      Database.close db2;
      let r = Fsck.run ~dir () in
      if not (Fsck.clean r) then
        Alcotest.failf "fsck after maintenance: %s"
          (String.concat "; "
             (List.map (fun f -> f.Fsck.artifact ^ ": " ^ f.Fsck.problem)
                r.Fsck.findings)))

(* maintenance actually shrinks the store / shortens chains *)
let test_improves scheme () =
  with_root (fun root ->
      let dir = Filename.concat root "repo" in
      let db = open_fragmented ~dir scheme in
      let module R = Decibel_obs.Report in
      let dead r =
        List.fold_left
          (fun acc (s : R.segment) ->
            acc + (s.R.sg_records - s.R.sg_live_records))
          0 r.R.r_segments
      in
      let before = Database.storage_report db in
      let ran = run_all db in
      let after = Database.storage_report db in
      (match scheme with
      | Database.Tuple_first | Database.Tuple_first_tuple_oriented
      | Database.Hybrid ->
          Alcotest.(check bool)
            "dead records reclaimed" true
            (dead after < dead before)
      | Database.Version_first ->
          (* materialization collapses the hot branch's delta chain *)
          let chain name r =
            let b =
              List.find (fun (b : R.branch) -> b.R.br_name = name)
                r.R.r_branches
            in
            b.R.br_delta_chain
          in
          Alcotest.(check bool)
            "delta chain collapsed" true
            (chain "dev" after < chain "dev" before)
      | Database.Model -> ());
      Alcotest.(check bool)
        "reclaimed bytes are non-negative" true
        (List.for_all (fun m -> m.Database.m_reclaimed >= 0) ran);
      Database.close db)

(* kill at maint.commit (before the manifest write): recovery must
   roll the journaled task back — old content, no new files leaked *)
let test_rollback_at_commit scheme () =
  with_root (fun root ->
      let dir = Filename.concat root "repo" in
      let db = open_fragmented ~dir scheme in
      let fp = Database.fingerprint db in
      Failpoint.arm ~action:Failpoint.Raise "maint.commit"
        (Failpoint.After_hits 1);
      let fired =
        match run_all db with
        | _ -> false
        | exception Failpoint.Fault_injected _ -> true
      in
      Failpoint.disarm_all ();
      Alcotest.(check bool) "failpoint fired" true fired;
      Database.crash db;
      let db2 = Database.reopen ~dir () in
      Alcotest.(check string) "rolled back to old content" fp
        (Database.fingerprint db2);
      Alcotest.(check bool)
        "rollback left no pending journal work" true
        (Database.resolve_maintenance ~dry_run:true db2 = []);
      Database.close db2;
      Alcotest.(check bool)
        "fsck clean after rollback" true
        (Fsck.clean (Fsck.run ~dir ())))

(* fsck --repair alone (no reopen) must resolve interrupted
   maintenance from the journal: roll back a pre-commit crash, finish
   a post-commit one *)
let test_fsck_resolves scheme () =
  with_root (fun root ->
      let check ~site ~action =
        let dir = Filename.concat root ("repo-" ^ site) in
        let db = open_fragmented ~dir scheme in
        let fp = Database.fingerprint db in
        Failpoint.arm ~action:Failpoint.Raise site (Failpoint.After_hits 1);
        (try ignore (run_all db)
         with Failpoint.Fault_injected _ -> ());
        Failpoint.disarm_all ();
        Database.crash db;
        (* report-only run sees the pending task but leaves it *)
        let dry = Fsck.run ~dir () in
        Alcotest.(check bool)
          (site ^ ": dry run reports pending maintenance")
          true
          (List.exists (fun m -> m.Fsck.mf_action = "pending") dry.Fsck.maint);
        (* repair resolves it *)
        let r = Fsck.run ~repair:true ~dir () in
        Alcotest.(check bool)
          (site ^ ": repair resolved as " ^ action)
          true
          (List.exists (fun m -> m.Fsck.mf_action = action) r.Fsck.maint);
        (* second pass: nothing left to do *)
        let r2 = Fsck.run ~dir () in
        Alcotest.(check (list string)) (site ^ ": second pass clean") []
          (List.map (fun f -> f.Fsck.problem) r2.Fsck.findings);
        let db2 = Database.reopen ~dir () in
        Alcotest.(check string)
          (site ^ ": content preserved")
          fp
          (Database.fingerprint db2);
        Database.close db2
      in
      (* crash before the manifest commit: old state wins *)
      check ~site:"maint.commit" ~action:"rolled_back";
      (* crash after the journal's Apply entry: new state wins *)
      check ~site:"maint.swap" ~action:"finished")

(* the full matrix: kill at every maint.* crossing of the
   maintenance-concurrent schedule, raise and torn variants *)
let test_maint_torture scheme () =
  with_root (fun root ->
      let s = Torture.maint_torture ~root scheme in
      List.iter
        (fun site ->
          Alcotest.(check bool)
            (Printf.sprintf "schedule crosses %s" site)
            true
            (List.mem_assoc site s.Torture.s_sites))
        Torture.maint_sites;
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

(* counters and gauges of the executor *)
let test_observability () =
  with_root (fun root ->
      let dir = Filename.concat root "repo" in
      let db = open_fragmented ~dir Database.Tuple_first in
      let run0 = Obs.value_of "maint.tasks_run" in
      let ran = run_all db in
      Alcotest.(check bool) "task ran" true (ran <> []);
      Alcotest.(check bool)
        "maint.tasks_run moved" true
        (Obs.value_of "maint.tasks_run" > run0);
      Alcotest.(check bool)
        "running gauge cleared" true
        (Obs.gauge_value (Obs.gauge "maint.running_since") = 0.0);
      (* advisor-driven tick on an already-clean store is a no-op *)
      Alcotest.(check (list string))
        "tick after maintenance finds nothing" []
        (List.map
           (fun m -> m.Database.m_kind)
           (Database.maintenance_tick db));
      Database.close db)

let () =
  Alcotest.run "maint"
    [
      ( "executor",
        List.map
          (fun scheme ->
            Alcotest.test_case (Database.scheme_name scheme) `Quick
              (test_executor scheme))
          schemes );
      ( "improves",
        List.map
          (fun scheme ->
            Alcotest.test_case (Database.scheme_name scheme) `Quick
              (test_improves scheme))
          schemes );
      ( "rollback",
        List.map
          (fun scheme ->
            Alcotest.test_case (Database.scheme_name scheme) `Quick
              (test_rollback_at_commit scheme))
          schemes );
      ( "fsck",
        List.map
          (fun scheme ->
            Alcotest.test_case (Database.scheme_name scheme) `Quick
              (test_fsck_resolves scheme))
          schemes );
      ( "torture",
        List.map
          (fun scheme ->
            Alcotest.test_case (Database.scheme_name scheme) `Slow
              (test_maint_torture scheme))
          schemes );
      ( "observability",
        [ Alcotest.test_case "counters" `Quick test_observability ]
      );
    ]
