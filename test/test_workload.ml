(* Workload telemetry, storage advisor and health watchdog tests:
   EWMA rates over simulated time, domain-parallel hammering, the JSONL
   checkpoint round-trip (module-level and through Database
   flush/reopen), a property that the global counters, trace bags and
   per-branch rows count every operation's costs identically, advisor
   threshold flips per recommendation kind, JSON shape stability, and
   the watchdog rules engine with its sticky status and transition
   events. *)

open Decibel
open Decibel_storage
module Obs = Decibel_obs.Obs
module Prof = Obs.Prof
module Par = Decibel_par.Par
module Workload = Decibel_obs.Workload
module Advisor = Decibel_obs.Advisor
module Watchdog = Decibel_obs.Watchdog
module Report = Decibel_obs.Report
module Vg = Decibel_graph.Version_graph

let t0 = 1_700_000_000.0

let fresh () =
  Obs.set_enabled true;
  Workload.reset ();
  Workload.set_tau 60.0

(* an operation's trace-bag delta: the kinds a row keeps as given, the
   others set to a marker the row must ignore *)
let costs ?(scanned = 0) ?(emitted = 0) ?(fragments = 0) ?(hit = 0)
    ?(missed = 0) () =
  Array.of_list
    (List.map
       (function
         | Prof.Tuples_scanned -> scanned
         | Prof.Tuples_emitted -> emitted
         | Prof.Delta_fragments -> fragments
         | Prof.Pages_hit -> hit
         | Prof.Pages_missed -> missed
         | Prof.Bitmap_words | Prof.Wal_bytes | Prof.Bytes_decoded -> 7)
       Prof.all_kinds)

let note_reads ?(table = "t") ?(branch = "b") ?(scanned = 0) ?(emitted = 0)
    ?(fragments = 0) ~now n =
  let costs = costs ~scanned ~emitted ~fragments () in
  for _ = 1 to n do
    Workload.note_read ~now ~costs ~table ~branch ()
  done

let get ?now ~table ~branch () =
  match Workload.find ?now ~table ~branch () with
  | Some s -> s
  | None -> Alcotest.failf "no workload entry for (%s, %s)" table branch

(* ---------- EWMA rates over simulated time ---------- *)

let test_ewma_decay () =
  fresh ();
  Workload.set_tau 10.0;
  (* a steady stream of r events/s converges to ~r: send 1/s for many
     tau and read the rate at the time of the last event *)
  for i = 0 to 99 do
    Workload.note_read ~now:(t0 +. float_of_int i)
      ~costs:(costs ~scanned:10 ~emitted:5 ~fragments:2 ())
      ~table:"t" ~branch:"hot" ()
  done;
  let last = t0 +. 99.0 in
  let s = get ~now:last ~table:"t" ~branch:"hot" () in
  Alcotest.(check bool)
    "steady 1/s stream reads ~1"
    true
    (s.Workload.w_read_rate > 0.9 && s.Workload.w_read_rate < 1.1);
  (* decay: after 5 tau of silence the rate has fallen by e^-5 *)
  let cold = get ~now:(last +. 50.0) ~table:"t" ~branch:"hot" () in
  let expect = s.Workload.w_read_rate *. exp (-5.0) in
  Alcotest.(check bool)
    "5 tau of silence decays by e^-5"
    true
    (abs_float (cold.Workload.w_read_rate -. expect) < 1e-6);
  (* time never runs backwards: a snapshot before the last event does
     not inflate the rate *)
  let back = get ~now:(last -. 100.0) ~table:"t" ~branch:"hot" () in
  Alcotest.(check bool)
    "backwards clock leaves the rate alone"
    true
    (abs_float (back.Workload.w_read_rate -. s.Workload.w_read_rate) < 1e-9);
  (* an explicit sweep bakes the decay in, and a snapshot taken at the
     same instant agrees *)
  Workload.decay ~now:(last +. 50.0) ();
  let swept =
    List.find
      (fun s -> s.Workload.w_branch = "hot")
      (Workload.snapshot ~now:(last +. 50.0) ())
  in
  Alcotest.(check bool)
    "sweep and snapshot agree"
    true
    (abs_float (swept.Workload.w_read_rate -. cold.Workload.w_read_rate)
    < 1e-9);
  Workload.set_tau 60.0

let test_counts_and_ratios () =
  fresh ();
  note_reads ~scanned:100 ~emitted:25 ~fragments:7 ~now:t0 2;
  Workload.note_write ~now:t0 ~table:"t" ~branch:"b" ();
  Workload.note_write ~now:t0 ~table:"t" ~branch:"b" ();
  Workload.note_write ~now:t0 ~table:"t" ~branch:"b" ();
  let s = get ~now:t0 ~table:"t" ~branch:"b" () in
  Alcotest.(check int) "reads" 2 s.Workload.w_reads;
  Alcotest.(check int) "writes" 3 s.Workload.w_writes;
  Alcotest.(check int) "scanned" 200 s.Workload.w_scanned;
  Alcotest.(check int) "emitted" 50 s.Workload.w_emitted;
  Alcotest.(check int) "fragments" 14 s.Workload.w_fragments;
  Alcotest.(check (float 1e-9)) "selectivity" 0.25 (Workload.selectivity s);
  Alcotest.(check (float 1e-9))
    "fragments/read" 7.0
    (Workload.fragments_per_read s);
  Alcotest.(check (float 1e-9)) "last read stamp" t0 s.Workload.w_last_read;
  (* page traffic arrives in an operation's costs, a write's too; the
     kinds a row does not keep are dropped *)
  Workload.note_write ~now:t0
    ~costs:(costs ~hit:2 ~missed:1 ())
    ~table:"t" ~branch:"b" ();
  Workload.note_read ~now:t0 ~table:"t" ~branch:"b" ();
  let s = get ~now:t0 ~table:"t" ~branch:"b" () in
  Alcotest.(check int) "pages hit" 2 s.Workload.w_pages_hit;
  Alcotest.(check int) "pages missed" 1 s.Workload.w_pages_missed;
  Alcotest.(check int) "zero-cost touch still reads" 3 s.Workload.w_reads;
  Alcotest.(check int) "touch adds no scanned" 200 s.Workload.w_scanned

(* ---------- domain-parallel hammer ---------- *)

let test_parallel_hammer () =
  fresh ();
  let domains = 4 and per_domain = 5_000 in
  let worker d () =
    for i = 1 to per_domain do
      (* every domain hits the shared branch and one private branch,
         exercising both same-shard contention and disjoint shards *)
      Workload.note_read ~now:(t0 +. float_of_int i)
        ~costs:(costs ~scanned:3 ~emitted:1 ~fragments:2 ())
        ~table:"t" ~branch:"shared" ();
      Workload.note_write ~now:(t0 +. float_of_int i) ~table:"t"
        ~branch:(Printf.sprintf "own-%d" d) ()
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  let shared = get ~table:"t" ~branch:"shared" () in
  let n = domains * per_domain in
  Alcotest.(check int) "shared reads exact" n shared.Workload.w_reads;
  Alcotest.(check int) "shared scanned exact" (3 * n)
    shared.Workload.w_scanned;
  Alcotest.(check int) "shared emitted exact" n shared.Workload.w_emitted;
  Alcotest.(check int) "shared fragments exact" (2 * n)
    shared.Workload.w_fragments;
  for d = 0 to domains - 1 do
    let own = get ~table:"t" ~branch:(Printf.sprintf "own-%d" d) () in
    Alcotest.(check int)
      (Printf.sprintf "own-%d writes exact" d)
      per_domain own.Workload.w_writes
  done

(* ---------- JSONL checkpoint round-trip ---------- *)

let test_checkpoint_roundtrip () =
  fresh ();
  note_reads ~table:"t" ~branch:"alpha" ~scanned:40 ~emitted:10 ~fragments:4
    ~now:t0 5;
  Workload.note_write ~now:t0 ~table:"t" ~branch:"alpha" ();
  note_reads ~table:"other" ~branch:"beta" ~scanned:7 ~emitted:7 ~now:t0 1;
  let before = get ~now:t0 ~table:"t" ~branch:"alpha" () in
  let path = Filename.temp_file "decibel-workload" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Workload.save ~now:t0 ~path ();
      Workload.reset ();
      Alcotest.(check int) "reset empties" 0
        (List.length (Workload.snapshot ()));
      Workload.load ~path ();
      let after = get ~now:t0 ~table:"t" ~branch:"alpha" () in
      Alcotest.(check int) "reads survive" before.Workload.w_reads
        after.Workload.w_reads;
      Alcotest.(check int) "scanned survive" before.Workload.w_scanned
        after.Workload.w_scanned;
      Alcotest.(check int) "writes survive" before.Workload.w_writes
        after.Workload.w_writes;
      Alcotest.(check (float 1e-9))
        "rate resumes from checkpoint" before.Workload.w_read_rate
        after.Workload.w_read_rate;
      Alcotest.(check (float 1e-9))
        "timestamp survives" before.Workload.w_last_read
        after.Workload.w_last_read;
      Alcotest.(check bool)
        "other table came back too" true
        (Workload.find ~table:"other" ~branch:"beta" () <> None);
      (* merge semantics: the live table already holds what it saved,
         so loading the same checkpoint again counts nothing twice *)
      Workload.load ~path ();
      let merged = get ~now:t0 ~table:"t" ~branch:"alpha" () in
      Alcotest.(check int) "second load keeps totals"
        before.Workload.w_reads merged.Workload.w_reads;
      Alcotest.(check int) "second load keeps scanned"
        before.Workload.w_scanned merged.Workload.w_scanned;
      (* ~table filter writes only that table's entries *)
      Workload.save ~now:t0 ~table:"other" ~path ();
      Workload.reset ();
      Workload.load ~path ();
      Alcotest.(check bool)
        "filtered save drops foreign tables" true
        (Workload.find ~table:"t" ~branch:"alpha" () = None);
      Alcotest.(check bool)
        "filtered save keeps its table" true
        (Workload.find ~table:"other" ~branch:"beta" () <> None);
      (* loading a missing file is a no-op, not an error *)
      Workload.load ~path:(path ^ ".does-not-exist") ())

let schema = Schema.ints ~name:"wl" ~width:3

let row k v = [| Value.int k; Value.int v; Value.int 0 |]

let test_db_checkpoint () =
  fresh ();
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-wl-ckpt" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      let db =
        Database.open_ ~scheme:Database.Tuple_first ~dir ~schema ()
      in
      for k = 1 to 20 do
        Database.insert db Vg.master (row k k)
      done;
      let _ = Database.commit db Vg.master ~message:"v1" in
      for _ = 1 to 4 do
        Database.scan db Vg.master (fun _ -> ())
      done;
      let before = get ~table:"wl" ~branch:"master" () in
      Alcotest.(check bool) "scans recorded" true
        (before.Workload.w_reads >= 4);
      Database.close db;
      Alcotest.(check bool) "close writes workload.jsonl" true
        (Sys.file_exists (Filename.concat dir "workload.jsonl"));
      Workload.reset ();
      let db = Database.reopen ~dir () in
      let s = get ~table:"wl" ~branch:"master" () in
      Alcotest.(check bool)
        "reopen merges the checkpoint back" true
        (s.Workload.w_reads >= before.Workload.w_reads);
      Alcotest.(check bool)
        "Database.workload surfaces the entry" true
        (List.exists
           (fun s -> s.Workload.w_branch = "master")
           (Database.workload db));
      (* close and reopen within one process: the checkpoint the close
         wrote is what the live table already holds *)
      let db = ref db in
      for round = 1 to 2 do
        Database.close !db;
        db := Database.reopen ~dir ();
        let again = get ~table:"wl" ~branch:"master" () in
        let same what f =
          Alcotest.(check int)
            (Printf.sprintf "reopen %d keeps %s" round what)
            (f s) (f again)
        in
        same "reads" (fun s -> s.Workload.w_reads);
        same "writes" (fun s -> s.Workload.w_writes);
        same "scanned" (fun s -> s.Workload.w_scanned);
        same "emitted" (fun s -> s.Workload.w_emitted)
      done;
      Database.close !db)

(* ---------- the three views reconcile, per operation ---------- *)

(* A random history of single database operations.  Choices (branch,
   insert vs update) are resolved before an operation is measured, so
   each measured extent is exactly one [Database] call. *)
type op =
  | Put of int * int * int  (** branch seed, key, value *)
  | Del of int * int  (** branch seed, key *)
  | Commit of int
  | Branch of int  (** version seed *)
  | Merge of int * int
  | Scan of int
  | Filtered of int * int  (** branch seed, threshold on column 1 *)
  | Version of int
  | Multi
  | Diff of int * int

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (5, map3 (fun b k v -> Put (b, k, v)) nat (int_bound 1599) nat);
        (2, map2 (fun b k -> Del (b, k)) nat (int_bound 1599));
        (2, map (fun b -> Commit b) nat);
        (2, map (fun v -> Branch v) nat);
        (1, map2 (fun a b -> Merge (a, b)) nat nat);
        (3, map (fun b -> Scan b) nat);
        (3, map2 (fun b v -> Filtered (b, v)) nat (int_bound 1600));
        (2, map (fun v -> Version v) nat);
        (2, return Multi);
        (2, map2 (fun a b -> Diff (a, b)) nat nat);
      ])

let print_op = function
  | Put (b, k, v) -> Printf.sprintf "Put(%d,%d,%d)" b k v
  | Del (b, k) -> Printf.sprintf "Del(%d,%d)" b k
  | Commit b -> Printf.sprintf "Commit(%d)" b
  | Branch v -> Printf.sprintf "Branch(%d)" v
  | Merge (a, b) -> Printf.sprintf "Merge(%d,%d)" a b
  | Scan b -> Printf.sprintf "Scan(%d)" b
  | Filtered (b, v) -> Printf.sprintf "Filtered(%d,%d)" b v
  | Version v -> Printf.sprintf "Version(%d)" v
  | Multi -> "Multi"
  | Diff (a, b) -> Printf.sprintf "Diff(%d,%d)" a b

let row_kinds =
  [
    (Prof.Tuples_scanned, fun s -> s.Workload.w_scanned);
    (Prof.Tuples_emitted, fun s -> s.Workload.w_emitted);
    (Prof.Delta_fragments, fun s -> s.Workload.w_fragments);
    (Prof.Pages_hit, fun s -> s.Workload.w_pages_hit);
    (Prof.Pages_missed, fun s -> s.Workload.w_pages_missed);
  ]

(* Apply one op and check, for every cost kind: the global counter
   moved by the op's trace-bag total; the branch row of a
   single-branch op moved by its bag and no other row moved; the
   emitted count is the rows delivered.  Each row's read and write
   counts move once per time the op names its branch. *)
let check_op db op =
  let g = Database.graph db in
  let nb = Vg.branch_count g and nv = Vg.version_count g in
  let fail fmt = QCheck2.Test.fail_reportf ("%s: " ^^ fmt) (print_op op) in
  let delivered = ref 0 in
  let count _ = incr delivered in
  (* run, the branch whose row takes the costs, reads, writes *)
  let nothing = ((fun () -> ()), None, [], []) in
  let run, single, reads, writes =
    match op with
    | Put (b, k, v) ->
        let b = b mod nb in
        let tuple = row k v in
        if Database.lookup db b (Value.int k) = None then
          ((fun () -> Database.insert db b tuple), Some b, [], [ b ])
        else ((fun () -> Database.update db b tuple), Some b, [], [ b ])
    | Del (b, k) ->
        let b = b mod nb in
        if Database.lookup db b (Value.int k) = None then nothing
        else ((fun () -> Database.delete db b (Value.int k)), Some b, [], [ b ])
    | Commit b ->
        let b = b mod nb in
        ((fun () -> ignore (Database.commit db b ~message:"c")), Some b, [], [ b ])
    | Branch v ->
        ( (fun () ->
            ignore
              (Database.create_branch db
                 ~name:(Printf.sprintf "b%d" nb)
                 ~from:(v mod nv))),
          None, [], [] )
    | Merge (a, b) ->
        let into = a mod nb and from = b mod nb in
        if into = from then nothing
        else
          ( (fun () ->
              ignore
                (Database.merge db ~into ~from ~policy:Types.Three_way
                   ~message:"m")),
            None, [], [] )
    | Scan b ->
        let b = b mod nb in
        ((fun () -> Database.scan db b count), Some b, [ b ], [])
    | Filtered (b, v) ->
        let b = b mod nb in
        let preds = [ Col_pred.of_index 1 Col_pred.Lt (Value.int v) ] in
        ((fun () -> Database.scan_filtered db b ~preds count), Some b, [ b ], [])
    | Version v ->
        ((fun () -> Database.scan_version db (v mod nv) count), None, [], [])
    | Multi ->
        let heads = Database.heads db in
        ((fun () -> Database.multi_scan db heads count), None, heads, [])
    | Diff (a, b) ->
        let a = a mod nb and b = b mod nb in
        ( (fun () -> Database.diff db a b ~pos:count ~neg:count),
          None, [ a; b ], [] )
  in
  let globals () =
    List.map (fun k -> Obs.value_of (Prof.counter_name k)) Prof.all_kinds
  in
  let rows () =
    List.map (fun s -> (s.Workload.w_branch, s)) (Database.workload db)
  in
  let g0 = globals () and r0 = rows () in
  let (), p = Database.profile db run in
  let g1 = globals () and r1 = rows () in
  List.iteri
    (fun i k ->
      let moved = List.nth g1 i - List.nth g0 i in
      if moved <> Prof.total p k then
        fail "%s: counter moved %d, bag %d" (Prof.kind_name k) moved
          (Prof.total p k))
    Prof.all_kinds;
  let named name bs =
    List.length (List.filter (fun b -> Database.branch_name db b = name) bs)
  in
  let owner = Option.map (Database.branch_name db) single in
  List.iter
    (fun (name, after) ->
      let moved field =
        field after
        - match List.assoc_opt name r0 with Some s -> field s | None -> 0
      in
      List.iter
        (fun (k, field) ->
          let expect = if owner = Some name then Prof.total p k else 0 in
          if moved field <> expect then
            fail "row %s %s moved %d, expected %d" name (Prof.kind_name k)
              (moved field) expect)
        row_kinds;
      let r = moved (fun s -> s.Workload.w_reads)
      and w = moved (fun s -> s.Workload.w_writes) in
      if r <> named name reads || w <> named name writes then
        fail "row %s reads/writes moved %d/%d, expected %d/%d" name r w
          (named name reads) (named name writes))
    r1;
  if Prof.total p Prof.Tuples_emitted <> !delivered then
    fail "tuples_emitted %d, rows delivered %d"
      (Prof.total p Prof.Tuples_emitted)
      !delivered

let reconcile_run scheme ops =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-wl-recon" in
  (* a small pool, so histories see misses and evictions as well as
     hits *)
  let pool = Buffer_pool.create ~page_size:4096 ~capacity_pages:16 () in
  let db = Database.open_ ~pool ~scheme ~dir ~schema () in
  Fun.protect
    ~finally:(fun () ->
      Database.close db;
      Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      (* past one parallel chunk, so 4-domain scans fan out *)
      for k = 0 to 1199 do
        Database.insert db Vg.master (row k k)
      done;
      ignore (Database.commit db Vg.master ~message:"seed");
      List.iter (check_op db) ops)

let reconcile_test scheme =
  QCheck2.Test.make
    ~name:(Database.scheme_name scheme ^ " vs globals")
    ~count:30 ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_range 1 25) op_gen)
    (fun ops ->
      fresh ();
      List.iter
        (fun domains ->
          let saved = Par.domain_count () in
          Par.set_domain_count domains;
          Fun.protect
            ~finally:(fun () -> Par.set_domain_count saved)
            (fun () -> reconcile_run scheme ops))
        [ 0; 4 ];
      true)

(* ---------- synthetic report builders ---------- *)

let branch ?(name = "b") ?(id = 1) ?(live = 100) ?(dead = 0) ?(chain = 0)
    ?(delta_bytes = 0) () =
  {
    Report.br_name = name;
    br_id = id;
    br_head = id;
    br_active = true;
    br_live_tuples = live;
    br_dead_tuples = dead;
    br_bitmap_bits = live + dead;
    br_density = Report.density ~live ~bits:(live + dead);
    br_segments = 1;
    br_delta_chain = chain;
    br_delta_bytes = delta_bytes;
  }

let segment ?(id = 0) ?(file = "seg-0.dat") ?(bytes = 65536) ?(records = 100)
    ?(live = 100) () =
  {
    Report.sg_id = id;
    sg_file = file;
    sg_bytes = bytes;
    sg_pages = bytes / 4096;
    sg_records = records;
    sg_live_records = live;
    sg_fragmentation =
      (if records = 0 then 0.0
       else 1.0 -. (float_of_int live /. float_of_int records));
  }

let report ?(branches = []) ?(segments = []) ?(health = "healthy")
    ?(quarantined = []) () =
  {
    Report.r_scheme = "synthetic";
    r_format = 2;
    r_dataset_bytes = 0;
    r_commit_meta_bytes = 0;
    r_branches = branches;
    r_segments = segments;
    r_columns = [];
    r_history = Report.empty_history;
    r_graph =
      {
        Report.g_versions = 1;
        g_branches = List.length branches;
        g_active_branches = List.length branches;
        g_depth = 0;
        g_max_fanout = 0;
      };
    r_pool =
      {
        Report.p_page_size = 4096;
        p_capacity_pages = 0;
        p_resident_pages = 0;
        p_hits = 0;
        p_misses = 0;
        p_evictions = 0;
        p_write_backs = 0;
      };
    r_health = health;
    r_quarantined = quarantined;
  }

let wl_stats ?(table = "t") ?(branch = "b") ?(reads = 0) ?(read_rate = 0.0)
    ?(fragments = 0) () =
  {
    Workload.w_table = table;
    w_branch = branch;
    w_reads = reads;
    w_writes = 0;
    w_scanned = 0;
    w_emitted = 0;
    w_fragments = fragments;
    w_pages_hit = 0;
    w_pages_missed = 0;
    w_read_rate = read_rate;
    w_write_rate = 0.0;
    w_last_read = t0;
    w_last_write = 0.0;
  }

let kinds recs = List.map (fun r -> r.Advisor.rc_kind) recs

let has_kind k recs = List.mem k (kinds recs)

(* ---------- advisor threshold flips ---------- *)

let test_advisor_materialize () =
  let rep = report ~branches:[ branch ~name:"hot" ~chain:8 () ] () in
  let wl =
    [ wl_stats ~branch:"hot" ~reads:10 ~read_rate:0.5 ~fragments:80 () ]
  in
  let recs = Advisor.advise ~report:rep ~workload:wl () in
  Alcotest.(check bool) "hot long chain materializes" true
    (has_kind Advisor.Materialize recs);
  let r = List.find (fun r -> r.Advisor.rc_kind = Advisor.Materialize) recs in
  Alcotest.(check string) "targets the branch" "hot" r.Advisor.rc_target;
  Alcotest.(check string) "benefit unit" "fragments/s" r.Advisor.rc_unit;
  (* flip off via read-rate bar: same chain, cold branch *)
  let th = { Advisor.default with th_hot_read_rate = 1.0 } in
  let recs = Advisor.advise ~thresholds:th ~report:rep ~workload:wl () in
  Alcotest.(check bool) "raised hot bar suppresses it" false
    (has_kind Advisor.Materialize recs);
  (* flip off via chain bar *)
  let th = { Advisor.default with th_chain_min = 9 } in
  let recs = Advisor.advise ~thresholds:th ~report:rep ~workload:wl () in
  Alcotest.(check bool) "short chain suppresses it" false
    (has_kind Advisor.Materialize recs)

let test_advisor_rechunk () =
  (* long chain but cold: rechunk, not materialize *)
  let rep = report ~branches:[ branch ~name:"cold" ~chain:20 () ] () in
  let recs = Advisor.advise ~report:rep ~workload:[] () in
  Alcotest.(check bool) "cold long chain rechunks" true
    (has_kind Advisor.Rechunk recs);
  Alcotest.(check bool) "cold branch never materializes" false
    (has_kind Advisor.Materialize recs);
  let th = { Advisor.default with th_rechunk_chain = 32 } in
  let recs = Advisor.advise ~thresholds:th ~report:rep ~workload:[] () in
  Alcotest.(check bool) "raised rechunk bar suppresses it" false
    (has_kind Advisor.Rechunk recs)

let test_advisor_gc () =
  let rep =
    report ~branches:[ branch ~name:"dead" ~live:100 ~dead:100 () ] ()
  in
  let recs = Advisor.advise ~report:rep ~workload:[] () in
  Alcotest.(check bool) "50% dead gcs" true (has_kind Advisor.Gc recs);
  let th = { Advisor.default with th_dead_ratio = 0.6 } in
  let recs = Advisor.advise ~thresholds:th ~report:rep ~workload:[] () in
  Alcotest.(check bool) "raised dead bar suppresses it" false
    (has_kind Advisor.Gc recs);
  let th = { Advisor.default with th_min_dead_tuples = 1000 } in
  let recs = Advisor.advise ~thresholds:th ~report:rep ~workload:[] () in
  Alcotest.(check bool) "trivia floor suppresses it" false
    (has_kind Advisor.Gc recs)

let test_advisor_compact () =
  let rep =
    report
      ~segments:[ segment ~file:"seg-7.dat" ~records:100 ~live:50 () ]
      ()
  in
  let recs = Advisor.advise ~report:rep ~workload:[] () in
  Alcotest.(check bool) "fragmented segment compacts" true
    (has_kind Advisor.Compact recs);
  let r = List.find (fun r -> r.Advisor.rc_kind = Advisor.Compact) recs in
  Alcotest.(check string) "targets the file" "seg-7.dat" r.Advisor.rc_target;
  let th = { Advisor.default with th_frag_min = 0.6 } in
  let recs = Advisor.advise ~thresholds:th ~report:rep ~workload:[] () in
  Alcotest.(check bool) "raised frag bar suppresses it" false
    (has_kind Advisor.Compact recs);
  let th = { Advisor.default with th_min_seg_bytes = 1 lsl 30 } in
  let recs = Advisor.advise ~thresholds:th ~report:rep ~workload:[] () in
  Alcotest.(check bool) "tiny segments never compact" false
    (has_kind Advisor.Compact recs)

let test_advisor_ranking_and_json () =
  let rep =
    report
      ~branches:
        [
          branch ~name:"hot" ~chain:8 ();
          branch ~name:"dying" ~live:10 ~dead:990 ();
        ]
      ~segments:[ segment ~records:100 ~live:40 () ]
      ()
  in
  let wl =
    [ wl_stats ~branch:"hot" ~reads:100 ~read_rate:2.0 ~fragments:800 () ]
  in
  let recs = Advisor.advise ~report:rep ~workload:wl () in
  Alcotest.(check bool) "several kinds fire at once" true
    (List.length recs >= 3);
  let scores = List.map (fun r -> r.Advisor.rc_score) recs in
  Alcotest.(check bool) "sorted best first" true
    (List.sort (fun a b -> compare b a) scores = scores);
  (* JSON shape stability: every field present on every record, and
     empty input renders an empty array *)
  let json = Advisor.to_json recs in
  List.iter
    (fun key ->
      List.iteri
        (fun i r ->
          let j = Advisor.recommendation_json r in
          Alcotest.(check bool)
            (Printf.sprintf "record %d has %s" i key)
            true
            (let re = Printf.sprintf "\"%s\":" key in
             let rec find from =
               from + String.length re <= String.length j
               && (String.sub j from (String.length re) = re
                  || find (from + 1))
             in
             find 0))
        recs)
    [ "kind"; "target"; "score"; "benefit"; "unit"; "reason" ];
  Alcotest.(check bool) "list renders as a JSON array" true
    (String.length json >= 2 && json.[0] = '[');
  Alcotest.(check string) "empty input is []" "[]" (Advisor.to_json []);
  Alcotest.(check bool) "text mentions the count" true
    (String.length (Advisor.to_text recs) > 0)

(* ---------- watchdog rules ---------- *)

let tick ?(now = t0) ?(workload = []) w rep = Watchdog.tick ~now w ~report:rep ~workload

let test_watchdog_levels () =
  fresh ();
  Obs.reset ();
  Obs.set_enabled true;
  let w = Watchdog.create () in
  let st0 = Watchdog.status w in
  Alcotest.(check int) "no ticks before the first" 0 st0.Watchdog.st_ticks;
  Alcotest.(check bool) "all-ok before the first" true
    (st0.Watchdog.st_level = Watchdog.L_ok);
  let st = tick w (report ~branches:[ branch () ] ()) in
  Alcotest.(check bool) "clean report is ok" true
    (st.Watchdog.st_level = Watchdog.L_ok);
  Alcotest.(check int) "tick counted" 1 st.Watchdog.st_ticks;
  (* dead-ratio warn then crit *)
  let st = tick w (report ~branches:[ branch ~live:40 ~dead:60 () ] ()) in
  Alcotest.(check bool) "60% dead warns" true
    (st.Watchdog.st_level = Watchdog.L_warn);
  let st = tick w (report ~branches:[ branch ~live:5 ~dead:95 () ] ()) in
  Alcotest.(check bool) "95% dead is critical" true
    (st.Watchdog.st_level = Watchdog.L_critical);
  Alcotest.(check bool) "finding names the rule" true
    (List.exists
       (fun f ->
         f.Watchdog.fi_level = Watchdog.L_critical
         && f.Watchdog.fi_rule = "dead_ratio")
       st.Watchdog.st_findings);
  (* chain depth *)
  let st = tick w (report ~branches:[ branch ~chain:50 () ] ()) in
  Alcotest.(check bool) "chain 50 warns" true
    (st.Watchdog.st_level = Watchdog.L_warn);
  let st = tick w (report ~branches:[ branch ~chain:200 () ] ()) in
  Alcotest.(check bool) "chain 200 is critical" true
    (st.Watchdog.st_level = Watchdog.L_critical);
  (* degraded / quarantined *)
  let st = tick w (report ~health:"degraded: checksum" ()) in
  Alcotest.(check bool) "degraded store is critical" true
    (st.Watchdog.st_level = Watchdog.L_critical);
  let st = tick w (report ~quarantined:[ ("b", "bad page") ] ()) in
  Alcotest.(check bool) "quarantine is critical" true
    (st.Watchdog.st_level = Watchdog.L_critical);
  (* hot replay cost from the workload side *)
  let wl =
    [ wl_stats ~branch:"hot" ~reads:10 ~read_rate:0.5 ~fragments:40 () ]
  in
  let st = tick ~workload:wl w (report ()) in
  Alcotest.(check bool) "2 fragments/s replay warns" true
    (st.Watchdog.st_level = Watchdog.L_warn);
  Alcotest.(check bool) "hot_replay finding present" true
    (List.exists
       (fun f -> f.Watchdog.fi_rule = "hot_replay")
       st.Watchdog.st_findings);
  (* recovery: a clean tick drops back to ok *)
  let st = tick w (report ()) in
  Alcotest.(check bool) "clean tick recovers" true
    (st.Watchdog.st_level = Watchdog.L_ok)

let test_watchdog_rising_and_events () =
  fresh ();
  Obs.reset ();
  Obs.set_enabled true;
  let w = Watchdog.create () in
  (* rising rules baseline on the first tick and never fire there *)
  let dropped = Obs.counter "obs.events_dropped" in
  Obs.add dropped 5;
  let st = tick w (report ()) in
  Alcotest.(check bool) "first tick never fires rising rules" true
    (st.Watchdog.st_level = Watchdog.L_ok);
  let st = tick ~now:(t0 +. 1.0) w (report ()) in
  Alcotest.(check bool) "steady drop count stays ok" true
    (st.Watchdog.st_level = Watchdog.L_ok);
  Obs.add dropped 3;
  let st = tick ~now:(t0 +. 2.0) w (report ()) in
  Alcotest.(check bool) "drops rising warns" true
    (st.Watchdog.st_level = Watchdog.L_warn);
  Alcotest.(check bool) "events_dropped finding present" true
    (List.exists
       (fun f -> f.Watchdog.fi_rule = "events_dropped")
       st.Watchdog.st_findings);
  (* transitions emit one leveled event; steady state emits none *)
  let watchdog_events () =
    List.length
      (List.filter (fun e -> e.Obs.ev_comp = "watchdog") (Obs.events ()))
  in
  let before = watchdog_events () in
  Obs.add dropped 3;
  let _ = tick ~now:(t0 +. 3.0) w (report ()) in
  Alcotest.(check int) "steady level emits no event" before
    (watchdog_events ());
  let _ = tick ~now:(t0 +. 4.0) w (report ()) in
  Alcotest.(check int) "transition back to ok emits one" (before + 1)
    (watchdog_events ());
  (* counters / gauge *)
  Alcotest.(check bool) "watchdog.ticks counts" true
    (Obs.value_of "watchdog.ticks" >= 5);
  Alcotest.(check bool) "warnings counted" true
    (Obs.value_of "watchdog.warnings" >= 1);
  (* to_json shape *)
  let st = Watchdog.status w in
  let j = Watchdog.to_json st in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "json has %s" key)
        true
        (let re = Printf.sprintf "\"%s\":" key in
         let rec find from =
           from + String.length re <= String.length j
           && (String.sub j from (String.length re) = re || find (from + 1))
         in
         find 0))
    [ "status"; "ticks"; "time"; "findings" ]

let test_watchdog_maint_rules () =
  fresh ();
  Obs.reset ();
  Obs.set_enabled true;
  let w = Watchdog.create () in
  let st = tick w (report ()) in
  Alcotest.(check bool) "baseline tick is ok" true
    (st.Watchdog.st_level = Watchdog.L_ok);
  (* failures since the previous tick warn *)
  Obs.add (Obs.counter "maint.tasks_failed") 2;
  let st = tick ~now:(t0 +. 1.0) w (report ()) in
  Alcotest.(check bool) "maint failures warn" true
    (List.exists
       (fun f ->
         f.Watchdog.fi_rule = "maint_failed"
         && f.Watchdog.fi_level = Watchdog.L_warn)
       st.Watchdog.st_findings);
  (* a task running past its budget warns *)
  Obs.set_gauge (Obs.gauge "maint.running_since") (t0 -. 120.0);
  let st = tick ~now:(t0 +. 2.0) w (report ()) in
  Alcotest.(check bool) "stalled task warns" true
    (List.exists
       (fun f -> f.Watchdog.fi_rule = "maint_stalled")
       st.Watchdog.st_findings);
  Obs.set_gauge (Obs.gauge "maint.running_since") 0.0;
  (* repeated failures on one target are critical *)
  Obs.set_gauge (Obs.gauge "maint.consecutive_failures") 3.0;
  let st = tick ~now:(t0 +. 3.0) w (report ()) in
  Alcotest.(check bool) "failure streak is critical" true
    (st.Watchdog.st_level = Watchdog.L_critical
    && List.exists
         (fun f -> f.Watchdog.fi_rule = "maint_streak")
         st.Watchdog.st_findings);
  (* clears with the gauge *)
  Obs.set_gauge (Obs.gauge "maint.consecutive_failures") 0.0;
  let st = tick ~now:(t0 +. 4.0) w (report ()) in
  Alcotest.(check bool) "recovers when the streak clears" true
    (st.Watchdog.st_level = Watchdog.L_ok)

let test_database_health_and_advise () =
  fresh ();
  Obs.reset ();
  Obs.set_enabled true;
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-wl-health" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      let db =
        Database.open_ ~scheme:Database.Version_first ~dir ~schema ()
      in
      for k = 1 to 30 do
        Database.insert db Vg.master (row k k)
      done;
      let _ = Database.commit db Vg.master ~message:"v1" in
      for _ = 1 to 5 do
        Database.scan db Vg.master (fun _ -> ())
      done;
      let st = Database.health_tick db in
      Alcotest.(check bool) "healthy db ticks ok" true
        (st.Watchdog.st_level = Watchdog.L_ok);
      Alcotest.(check int) "sticky status kept" st.Watchdog.st_ticks
        (Database.watchdog_status db).Watchdog.st_ticks;
      (* the recreation/storage tradeoff under default thresholds: two
         depth-6 delta chains (a version-first scan replays the whole
         lineage), one hot and one read once; only the hot one is worth
         materializing *)
      let key = ref 100 in
      let grow name =
        let rec go parent i =
          let nm = if i = 6 then name else Printf.sprintf "%s-%d" name i in
          let b = Database.branch_from db ~name:nm ~of_branch:parent in
          for _ = 1 to 20 do
            incr key;
            Database.insert db b (row !key !key)
          done;
          ignore (Database.commit db b ~message:nm);
          if i = 6 then b else go b (i + 1)
        in
        go Vg.master 1
      in
      let hot = grow "hot" and cold = grow "cold" in
      for _ = 1 to 40 do
        Database.scan db hot (fun _ -> ())
      done;
      Database.scan db cold (fun _ -> ());
      let recs = Database.advise db in
      let materializes target =
        List.exists
          (fun r ->
            r.Advisor.rc_kind = Advisor.Materialize
            && r.Advisor.rc_target = target)
          recs
      in
      Alcotest.(check bool) "default thresholds materialize hot" true
        (materializes "hot");
      Alcotest.(check bool) "cold stays on deltas" false (materializes "cold");
      (* with a hostile threshold set it must fire on master too *)
      let th =
        {
          Advisor.default with
          th_chain_min = 0;
          th_hot_read_rate = 0.0;
          th_rechunk_chain = max_int;
        }
      in
      let recs = Database.advise ~thresholds:th db in
      Alcotest.(check bool)
        "zero thresholds recommend materializing the scanned branch" true
        (List.exists
           (fun r ->
             r.Advisor.rc_kind = Advisor.Materialize
             && r.Advisor.rc_target = "master")
           recs);
      Database.close db)

let () =
  Alcotest.run "workload"
    [
      ( "ewma",
        [
          Alcotest.test_case "decay over simulated time" `Quick
            test_ewma_decay;
          Alcotest.test_case "counts and ratios" `Quick
            test_counts_and_ratios;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "4-domain hammer, exact totals" `Quick
            test_parallel_hammer;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "module round-trip and merge" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "database flush/reopen" `Quick
            test_db_checkpoint;
        ] );
      ( "reconcile",
        List.map
          (fun s -> QCheck_alcotest.to_alcotest (reconcile_test s))
          (Database.all_schemes @ [ Database.Model ]) );
      ( "advisor",
        [
          Alcotest.test_case "materialize threshold flips" `Quick
            test_advisor_materialize;
          Alcotest.test_case "rechunk threshold flips" `Quick
            test_advisor_rechunk;
          Alcotest.test_case "gc threshold flips" `Quick test_advisor_gc;
          Alcotest.test_case "compact threshold flips" `Quick
            test_advisor_compact;
          Alcotest.test_case "ranking and json shape" `Quick
            test_advisor_ranking_and_json;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "levels and findings" `Quick
            test_watchdog_levels;
          Alcotest.test_case "rising rules and events" `Quick
            test_watchdog_rising_and_events;
          Alcotest.test_case "maintenance rules" `Quick
            test_watchdog_maint_rules;
          Alcotest.test_case "database health and advise" `Quick
            test_database_health_and_advise;
        ] );
    ]
