(* Tests for the storage-introspection subsystem: per-scheme storage
   reports, their JSON and text renderings, and the slow-op event log. *)

open Decibel
open Decibel_storage
module Obs = Decibel_obs.Obs
module Report = Decibel_obs.Report

let schema = Schema.ints ~name:"r" ~width:3

let row k v = [| Value.int k; Value.int v; Value.int 0 |]

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A small two-branch repo with updates and deletes, so every scheme
   has both dead tuples and a non-trivial delta chain to report:
   master holds 50 rows; dev updates 10 of them and deletes 5. *)
let with_loaded scheme f =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-test-introspect" in
  let db = Database.open_ ~scheme ~dir ~schema () in
  Fun.protect
    ~finally:(fun () ->
      Database.close db;
      Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      let master = Database.branch_named db "master" in
      for k = 1 to 50 do
        Database.insert db master (row k 0)
      done;
      let v1 = Database.commit db master ~message:"seed" in
      let dev = Database.create_branch db ~name:"dev" ~from:v1 in
      for k = 1 to 10 do
        Database.update db dev (row k 1)
      done;
      for k = 41 to 45 do
        Database.delete db dev (Value.int k)
      done;
      let _ = Database.commit db dev ~message:"mutate" in
      f db)

(* ------------------------------------------------------------------ *)
(* storage reports per scheme *)

let check_report ~expect_scheme scheme () =
  Obs.set_enabled true;
  with_loaded scheme (fun db ->
      let r = Database.storage_report db in
      (* the engine self-describes, e.g. "tuple-first (branch-oriented)" *)
      Alcotest.(check bool) "scheme named" true
        (contains r.Report.r_scheme expect_scheme);
      Alcotest.(check bool) "dataset bytes positive" true
        (r.Report.r_dataset_bytes > 0);
      Alcotest.(check int) "two branches" 2
        (List.length r.Report.r_branches);
      let find n = List.find (fun b -> b.Report.br_name = n) r.Report.r_branches in
      let master = find "master" and dev = find "dev" in
      Alcotest.(check int) "master live tuples" 50
        master.Report.br_live_tuples;
      Alcotest.(check int) "dev live tuples" 45 dev.Report.br_live_tuples;
      Alcotest.(check bool) "dev has dead tuples" true
        (dev.Report.br_dead_tuples > 0);
      Alcotest.(check bool) "dev delta chain recorded" true
        (dev.Report.br_delta_chain >= 1);
      List.iter
        (fun b ->
          Alcotest.(check bool) "density in [0,1]" true
            (b.Report.br_density >= 0. && b.Report.br_density <= 1.);
          Alcotest.(check bool) "dead tuples non-negative" true
            (b.Report.br_dead_tuples >= 0);
          Alcotest.(check bool) "branch active" true b.Report.br_active)
        r.Report.r_branches;
      (* bitmap schemes must report bits; version-first has none *)
      (match scheme with
      | Database.Version_first | Database.Model -> ()
      | _ ->
          Alcotest.(check bool) "bitmap bits reported" true
            (dev.Report.br_bitmap_bits > 0);
          Alcotest.(check bool) "density positive" true
            (dev.Report.br_density > 0.));
      (* graph facts: root + two commits, one fork *)
      Alcotest.(check int) "graph versions" 3 r.Report.r_graph.Report.g_versions;
      Alcotest.(check int) "graph branches" 2 r.Report.r_graph.Report.g_branches;
      Alcotest.(check int) "graph active" 2
        r.Report.r_graph.Report.g_active_branches;
      Alcotest.(check int) "graph depth" 2 r.Report.r_graph.Report.g_depth;
      Alcotest.(check bool) "graph fanout" true
        (r.Report.r_graph.Report.g_max_fanout >= 1);
      (* physical schemes expose segments with sane fragmentation *)
      (match scheme with
      | Database.Model -> ()
      | _ ->
          Alcotest.(check bool) "segments reported" true
            (List.length r.Report.r_segments >= 1);
          List.iter
            (fun s ->
              Alcotest.(check bool) "segment records >= live" true
                (s.Report.sg_records >= s.Report.sg_live_records);
              Alcotest.(check bool) "fragmentation in [0,1]" true
                (s.Report.sg_fragmentation >= 0.
                && s.Report.sg_fragmentation <= 1.))
            r.Report.r_segments;
          let records =
            List.fold_left
              (fun a s -> a + s.Report.sg_records)
              0 r.Report.r_segments
          in
          Alcotest.(check bool) "records cover the live set" true
            (records >= 50));
      (* pool block mirrors the buffer pool *)
      Alcotest.(check bool) "pool page size positive" true
        (r.Report.r_pool.Report.p_page_size > 0);
      (* JSON rendering carries the per-branch numbers *)
      let js = Report.to_json r in
      Alcotest.(check bool) "json is an object" true
        (js.[0] = '{' && js.[String.length js - 1] = '}');
      Alcotest.(check bool) "json names the scheme" true
        (contains js ("\"scheme\":\"" ^ expect_scheme));
      Alcotest.(check bool) "json names master" true
        (contains js "\"name\":\"master\"");
      Alcotest.(check bool) "json carries live count" true
        (contains js "\"live_tuples\":50");
      Alcotest.(check bool) "json nan-free" true
        (not (contains js "nan") && not (contains js "inf"));
      (* text rendering mentions both branches *)
      let txt = Report.to_text r in
      Alcotest.(check bool) "text names dev" true (contains txt "dev"))

let test_report_disabled_obs () =
  (* DECIBEL_OBS=0 / set_enabled false silences events and spans, but
     introspection must keep returning real data *)
  Obs.set_enabled true;
  Obs.reset ();
  with_loaded Database.Hybrid (fun db ->
      Obs.set_enabled false;
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled true)
        (fun () ->
          let emitted = Obs.events_emitted () in
          Obs.event ~comp:"test" "suppressed";
          Alcotest.(check int) "events suppressed while disabled" emitted
            (Obs.events_emitted ());
          let spans0 = Obs.span_count () in
          let r = Database.storage_report db in
          Alcotest.(check int) "report still sees branches" 2
            (List.length r.Report.r_branches);
          Alcotest.(check bool) "report still counts live tuples" true
            ((List.find
                (fun b -> b.Report.br_name = "master")
                r.Report.r_branches)
               .Report.br_live_tuples = 50);
          Alcotest.(check int) "no span recorded for the report" spans0
            (Obs.span_count ())))

let test_slow_scan_event () =
  (* threshold 0 on an instrumented span name: any scan must fire the
     slow-op log with the span's attributes attached *)
  Obs.set_enabled true;
  Obs.reset ();
  with_loaded Database.Tuple_first (fun db ->
      Obs.set_slow_threshold "tuple_first.scan" 0.0;
      Fun.protect
        ~finally:(fun () -> Obs.clear_slow_threshold "tuple_first.scan")
        (fun () ->
          let master = Database.branch_named db "master" in
          Database.scan db master (fun _ -> ());
          let slow =
            List.filter
              (fun e ->
                e.Obs.ev_comp = "slow_op" && e.Obs.ev_msg = "tuple_first.scan")
              (Obs.events ())
          in
          Alcotest.(check bool) "slow-op fired for the scan" true
            (List.length slow >= 1);
          let e = List.hd slow in
          Alcotest.(check bool) "duration attr present" true
            (List.mem_assoc "duration_ms" e.Obs.ev_attrs);
          Alcotest.(check int) "obs.slow_ops counted" (List.length slow)
            (Obs.value_of "obs.slow_ops")))

let () =
  Alcotest.run "introspect"
    [
      ( "storage-report",
        [
          Alcotest.test_case "tuple-first" `Quick
            (check_report ~expect_scheme:"tuple-first" Database.Tuple_first);
          Alcotest.test_case "tuple-first (tuple-oriented)" `Quick
            (check_report ~expect_scheme:"tuple-first"
               Database.Tuple_first_tuple_oriented);
          Alcotest.test_case "version-first" `Quick
            (check_report ~expect_scheme:"version-first"
               Database.Version_first);
          Alcotest.test_case "hybrid" `Quick
            (check_report ~expect_scheme:"hybrid" Database.Hybrid);
          Alcotest.test_case "report with obs disabled" `Quick
            test_report_disabled_obs;
          Alcotest.test_case "slow scan event" `Quick test_slow_scan_event;
        ] );
    ]
