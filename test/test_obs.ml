(* Tests for the observability layer: the metrics registry, tracing
   spans, the enable switch, and the per-operation instrumentation the
   engines feed it (counter deltas of a hybrid scan are checked against
   the buffer pool's own accounting). *)

open Decibel
open Decibel_storage
module Obs = Decibel_obs.Obs

(* ------------------------------------------------------------------ *)
(* registry primitives *)

let test_counters () =
  Obs.set_enabled true;
  let c = Obs.counter "test.counter" in
  let before = Obs.counter_value c in
  Obs.incr c;
  Obs.add c 41;
  Alcotest.(check int) "incr + add" (before + 42) (Obs.counter_value c);
  Alcotest.(check int) "value_of same name" (before + 42)
    (Obs.value_of "test.counter");
  (* interned: a second lookup returns the same handle *)
  Obs.incr (Obs.counter "test.counter");
  Alcotest.(check int) "interned handle" (before + 43)
    (Obs.value_of "test.counter");
  Alcotest.(check int) "absent counter reads 0" 0
    (Obs.value_of "test.never_created")

let test_gauges () =
  Obs.set_enabled true;
  let g = Obs.gauge "test.gauge" in
  Obs.set_gauge g 2.5;
  Alcotest.(check (float 1e-9)) "gauge set" 2.5 (Obs.gauge_value g)

let test_histogram_percentiles () =
  Obs.set_enabled true;
  let h = Obs.histogram "test.hist" in
  (* 100 observations spread over two decades: 1ms .. 100ms *)
  for i = 1 to 100 do
    Obs.observe h (float_of_int i *. 1e-3)
  done;
  let s = Obs.summarize h in
  Alcotest.(check int) "count" 100 s.Obs.hs_count;
  Alcotest.(check bool) "sum" true (abs_float (s.Obs.hs_sum -. 5.05) < 1e-6);
  Alcotest.(check (float 1e-9)) "min" 1e-3 s.Obs.hs_min;
  Alcotest.(check (float 1e-9)) "max" 0.1 s.Obs.hs_max;
  (* bucketed quantiles are upper bounds of the crossing bucket: the
     p50 must sit between the true median and the max *)
  Alcotest.(check bool) "p50 ordered" true
    (s.Obs.hs_p50 >= 0.05 && s.Obs.hs_p50 <= s.Obs.hs_p95);
  Alcotest.(check bool) "p95 ordered" true
    (s.Obs.hs_p95 >= 0.095 && s.Obs.hs_p95 <= s.Obs.hs_p99);
  Alcotest.(check bool) "p99 clamped to max" true (s.Obs.hs_p99 <= 0.1)

let test_nested_spans () =
  Obs.set_enabled true;
  let before = Obs.span_count () in
  let r =
    Obs.with_span "outer" (fun () ->
        Obs.with_span ~attrs:[ ("k", "v") ] "inner" (fun () -> 7))
  in
  Alcotest.(check int) "result through spans" 7 r;
  Alcotest.(check int) "two spans recorded" (before + 2) (Obs.span_count ());
  let spans = Obs.spans () in
  let inner = List.find (fun s -> s.Obs.sp_name = "inner") spans in
  let outer = List.find (fun s -> s.Obs.sp_name = "outer") spans in
  Alcotest.(check bool) "inner nested inside outer" true
    (inner.Obs.sp_start >= outer.Obs.sp_start
    && inner.Obs.sp_dur <= outer.Obs.sp_dur);
  Alcotest.(check bool) "attrs kept" true
    (inner.Obs.sp_attrs = [ ("k", "v") ]);
  (* spans feed a histogram of the same name *)
  Alcotest.(check bool) "span histogram fed" true
    ((Obs.summarize (Obs.histogram "inner")).Obs.hs_count >= 1);
  (* chrome trace lines parse as one JSON object each *)
  List.iter
    (fun s ->
      let line = Obs.span_json s in
      Alcotest.(check bool) "event is an object" true
        (String.length line > 2 && line.[0] = '{'
        && line.[String.length line - 1] = '}'))
    spans

let test_enable_disable () =
  Obs.set_enabled true;
  let c = Obs.counter "test.toggle" in
  let spans0 = Obs.span_count () in
  Obs.set_enabled false;
  Alcotest.(check bool) "reads disabled" false (Obs.enabled ());
  Obs.incr c;
  Obs.add c 10;
  let r = Obs.with_span "test.disabled_span" (fun () -> 3) in
  Obs.set_enabled true;
  Alcotest.(check int) "counter frozen while disabled" 0
    (Obs.counter_value c);
  Alcotest.(check int) "no span recorded while disabled" spans0
    (Obs.span_count ());
  Alcotest.(check int) "with_span still runs the body" 3 r;
  Obs.incr c;
  Alcotest.(check int) "counting resumes" 1 (Obs.counter_value c)

let test_snapshot_json () =
  Obs.set_enabled true;
  Obs.incr (Obs.counter "test.json\"quoted");
  let snap = Obs.snapshot () in
  let js = Obs.to_json snap in
  Alcotest.(check bool) "object shape" true
    (js.[0] = '{' && js.[String.length js - 1] = '}');
  (* the quote inside the key must come out escaped *)
  Alcotest.(check bool) "escaped quote present" true
    (let needle = "json\\\"quoted" in
     let n = String.length needle and m = String.length js in
     let rec go i =
       i + n <= m && (String.sub js i n = needle || go (i + 1))
     in
     go 0);
  (* counters are sorted by name in snapshots *)
  Alcotest.(check bool) "counters sorted" true
    (let names = List.map fst snap.Obs.counters in
     names = List.sort compare names)

(* ------------------------------------------------------------------ *)
(* bucket layouts, empty histograms, diff edge cases, span limits *)

let test_histogram_bucket_mismatch () =
  Obs.set_enabled true;
  let buckets = [| 0.1; 1.0; 10.0 |] in
  let h = Obs.histogram ~buckets "test.hist.layout" in
  (* re-interning with a structurally equal layout is fine *)
  let h' = Obs.histogram ~buckets:[| 0.1; 1.0; 10.0 |] "test.hist.layout" in
  Alcotest.(check bool) "equal layout returns same handle" true (h == h');
  (* omitting [?buckets] is a bare lookup and never conflicts *)
  let h'' = Obs.histogram "test.hist.layout" in
  Alcotest.(check bool) "bare lookup returns same handle" true (h == h'');
  (* a different layout for an interned name must raise *)
  (match Obs.histogram ~buckets:[| 0.5 |] "test.hist.layout" with
  | _ -> Alcotest.fail "mismatched bucket layout did not raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names the histogram" true
        (let needle = "test.hist.layout" in
         let n = String.length needle and m = String.length msg in
         let rec go i =
           i + n <= m && (String.sub msg i n = needle || go (i + 1))
         in
         go 0));
  (* the failed call must not have corrupted the interned layout *)
  Alcotest.(check int) "layout unchanged after failed intern" 3
    (Array.length (Obs.hist_buckets h))

let finite f = Float.is_finite f

let check_all_zero_summary label h =
  let s = Obs.summarize h in
  Alcotest.(check int) (label ^ ": count") 0 s.Obs.hs_count;
  List.iter
    (fun (n, v) ->
      Alcotest.(check (float 0.)) (label ^ ": " ^ n) 0.0 v;
      Alcotest.(check bool) (label ^ ": " ^ n ^ " finite") true (finite v))
    [
      ("sum", s.Obs.hs_sum);
      ("min", s.Obs.hs_min);
      ("max", s.Obs.hs_max);
      ("p50", s.Obs.hs_p50);
      ("p95", s.Obs.hs_p95);
      ("p99", s.Obs.hs_p99);
    ]

let test_empty_histogram_quantiles () =
  Obs.set_enabled true;
  let h = Obs.histogram "test.hist.empty" in
  List.iter
    (fun q ->
      let v = Obs.quantile h q in
      Alcotest.(check (float 0.)) "empty quantile is 0" 0.0 v;
      Alcotest.(check bool) "empty quantile finite" true (finite v))
    [ 0.0; 0.5; 0.99; 1.0 ];
  check_all_zero_summary "empty" h;
  (* feed it, then reset: it must summarize all-zero again, nan-free *)
  Obs.observe h 0.25;
  Obs.observe h 0.5;
  Alcotest.(check int) "fed count" 2 (Obs.summarize h).Obs.hs_count;
  Obs.reset ();
  check_all_zero_summary "after reset" h;
  Alcotest.(check (float 0.)) "quantile 0 after reset" 0.0
    (Obs.quantile h 0.5)

let test_counters_diff_created_between () =
  Obs.set_enabled true;
  let anchor = Obs.counter "test.diff.anchor" in
  Obs.add anchor 3;
  let before = Obs.snapshot () in
  (* this counter does not exist in [before] at all *)
  let fresh = Obs.counter "test.diff.born_between_snapshots" in
  Obs.add fresh 5;
  Obs.add anchor 2;
  let after = Obs.snapshot () in
  let d = Obs.counters_diff before after in
  Alcotest.(check int) "fresh counter deltas from zero" 5
    (List.assoc "test.diff.born_between_snapshots" d);
  Alcotest.(check int) "pre-existing counter deltas normally" 2
    (List.assoc "test.diff.anchor" d)

let test_span_overflow_counted () =
  Obs.set_enabled true;
  Obs.reset ();
  Obs.set_max_spans 10;
  Fun.protect
    ~finally:(fun () -> Obs.set_max_spans 200_000)
    (fun () ->
      for i = 1 to 15 do
        Obs.with_span "test.overflow" (fun () -> ignore i)
      done;
      Alcotest.(check int) "span buffer capped" 10 (Obs.span_count ());
      Alcotest.(check int) "overflow drops counted" 5
        (Obs.value_of "obs.spans_dropped");
      (* dropped spans still fed the duration histogram *)
      Alcotest.(check int) "histogram sees every span" 15
        (Obs.summarize (Obs.histogram "test.overflow")).Obs.hs_count)

let test_streaming_trace () =
  Obs.set_enabled true;
  Obs.reset ();
  Obs.with_span "trace.a" (fun () ->
      Obs.with_span "trace.b" (fun () -> ()));
  Obs.with_span "trace.c" (fun () -> ());
  let span_lines = List.map Obs.span_json (Obs.spans ()) in
  Alcotest.(check int) "one line per span" 3 (List.length span_lines);
  (* write_trace streams through output_trace; the file must carry
     exactly one span_json line per recorded span, in order *)
  let path = Filename.temp_file "decibel-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.write_trace ~path;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           let l = input_line ic in
           if l <> "" then lines := l :: !lines
         done
       with End_of_file -> close_in ic);
      let file_lines = List.rev !lines in
      Alcotest.(check (list string)) "streamed = span_json per span"
        span_lines file_lines)

(* ------------------------------------------------------------------ *)
(* instrumentation wired through the storage layers *)

let schema = Schema.ints ~name:"r" ~width:4

let row k = [| Value.int k; Value.int 1; Value.int 2; Value.int 3 |]

let test_hybrid_scan_accounting () =
  Obs.set_enabled true;
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-test-obs" in
  (* small pages so a modest dataset spans many of them *)
  let pool = Buffer_pool.create ~page_size:512 ~capacity_pages:64 () in
  let db = Database.open_ ~pool ~scheme:Database.Hybrid ~dir ~schema () in
  Fun.protect
    ~finally:(fun () ->
      Database.close db;
      Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      let master = Database.branch_named db "master" in
      (* enough rows that the dataset spans several small pages even
         after v2 per-column compression *)
      let n = 3000 in
      for k = 1 to n do
        Database.insert db master (row k)
      done;
      let _ = Database.commit db master ~message:"seed" in
      (* seal and flush so the extent accounting sees only on-disk
         bytes, then cold-cache: every page the scan touches must miss *)
      Database.flush db;
      Database.drop_caches db;
      let bytes = Database.dataset_bytes db in
      let expected_pages = (bytes + 511) / 512 in
      Alcotest.(check bool) "dataset spans several pages" true
        (expected_pages >= 4);
      let before = Obs.snapshot () in
      let seen = ref 0 in
      Database.scan db master (fun _ -> incr seen);
      let after = Obs.snapshot () in
      let delta name =
        List.assoc name (Obs.counters_diff before after)
      in
      Alcotest.(check int) "tuples scanned" n !seen;
      Alcotest.(check int) "tuples_scanned counter" n
        (delta (Obs.Prof.counter_name Obs.Prof.Tuples_scanned));
      Alcotest.(check int) "engine.scan.pages = dataset extent"
        expected_pages (delta "engine.scan.pages");
      Alcotest.(check int) "cold scan misses once per page"
        expected_pages (delta "buffer_pool.misses");
      Alcotest.(check int) "segments scanned" 1
        (delta "engine.scan.segments");
      (* warm re-scan: pages now hit, extent accounting unchanged *)
      let before2 = Obs.snapshot () in
      Database.scan db master (fun _ -> ());
      let after2 = Obs.snapshot () in
      let delta2 name = List.assoc name (Obs.counters_diff before2 after2) in
      Alcotest.(check int) "warm scan misses nothing" 0
        (delta2 "buffer_pool.misses");
      Alcotest.(check int) "warm scan same page extent" expected_pages
        (delta2 "engine.scan.pages");
      (* the scan recorded a span + histogram sample *)
      Alcotest.(check bool) "hybrid.scan histogram fed" true
        ((Obs.summarize (Obs.histogram "hybrid.scan")).Obs.hs_count >= 2))

let test_write_back_stats () =
  Obs.set_enabled true;
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-test-obs-wb" in
  let pool = Buffer_pool.create ~page_size:512 ~capacity_pages:8 () in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      let hf = Heap_file.create ~pool (Filename.concat dir "h.dat") in
      let wb0 = (Buffer_pool.stats pool).Buffer_pool.write_backs in
      let reg0 = Obs.value_of "buffer_pool.write_backs" in
      let _ = Heap_file.append hf (String.make 100 'x') in
      Heap_file.flush hf;
      let s = Buffer_pool.stats pool in
      Alcotest.(check int) "write-back counted" (wb0 + 1)
        s.Buffer_pool.write_backs;
      Alcotest.(check int) "registry mirrors write-backs" (reg0 + 1)
        (Obs.value_of "buffer_pool.write_backs");
      Buffer_pool.reset_stats pool;
      let s2 = Buffer_pool.stats pool in
      Alcotest.(check int) "reset clears instance stats" 0
        (s2.Buffer_pool.hits + s2.Buffer_pool.misses + s2.Buffer_pool.evictions
        + s2.Buffer_pool.write_backs);
      Alcotest.(check bool) "registry is monotonic across resets" true
        (Obs.value_of "buffer_pool.write_backs" >= reg0 + 1);
      Heap_file.close hf)

let test_wal_counters () =
  Obs.set_enabled true;
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-test-obs-wal" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      let before = Obs.value_of "wal.records" in
      let bytes_before = Obs.value_of "wal.bytes" in
      let db =
        Database.open_ ~durable:true ~scheme:Database.Tuple_first ~dir
          ~schema ()
      in
      let master = Database.branch_named db "master" in
      for k = 1 to 10 do
        Database.insert db master (row k)
      done;
      Database.close db;
      Alcotest.(check bool) "wal.records counted" true
        (Obs.value_of "wal.records" >= before + 10);
      Alcotest.(check bool) "wal.bytes counted" true
        (Obs.value_of "wal.bytes" > bytes_before))

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "nested spans" `Quick test_nested_spans;
          Alcotest.test_case "enable/disable" `Quick test_enable_disable;
          Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
          Alcotest.test_case "histogram bucket mismatch" `Quick
            test_histogram_bucket_mismatch;
          Alcotest.test_case "empty histogram quantiles" `Quick
            test_empty_histogram_quantiles;
          Alcotest.test_case "counters_diff with fresh counter" `Quick
            test_counters_diff_created_between;
          Alcotest.test_case "span overflow counted" `Quick
            test_span_overflow_counted;
        ] );
      ( "events",
        [
          Alcotest.test_case "streaming trace" `Quick test_streaming_trace;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "hybrid scan accounting" `Quick
            test_hybrid_scan_accounting;
          Alcotest.test_case "write-back stats" `Quick test_write_back_stats;
          Alcotest.test_case "wal counters" `Quick test_wal_counters;
        ] );
    ]
