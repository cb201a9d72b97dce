(* Benchmark harness regenerating every table and figure of the
   paper's evaluation (§5), the DESIGN.md §5 ablations, Bechamel
   micro-benchmarks and the profiler-overhead gate.  One section per
   artifact; run all with `dune exec bench/main.exe`, or a subset with
   `--only fig7,tab2`.  Correctness gates live in `dune runtest`.
   DECIBEL_BENCH_SCALE=<n> scales the data volume (default 1: a small,
   minutes-long run; the paper's absolute numbers used 100 GB on a
   dedicated server, so only relative comparisons are meaningful —
   see EXPERIMENTS.md). *)

open Decibel
open Decibel_bench
open Decibel_util
module Vg = Decibel_graph.Version_graph
module Git_engine = Decibel_gitlike.Git_engine
module Par = Decibel_par.Par

let engines =
  [
    ("TF", Database.Tuple_first);
    ("VF", Database.Version_first);
    ("HY", Database.Hybrid);
  ]

let bench_root = Fsutil.fresh_dir "decibel-bench"

let fresh_dir name = Filename.concat bench_root name

let load_counter = ref 0

(* every load performed, for the build-time table (tab5) *)
let load_log : (string * string * int * float) list ref = ref []
(* (strategy, engine, branches, seconds) *)

let load ?(clustered = false) ~scheme_name ~scheme kind cfg =
  incr load_counter;
  let wl = Strategy.generate kind cfg in
  let dir =
    fresh_dir
      (Printf.sprintf "%s-%s-%d" (Strategy.kind_name kind) scheme_name
         !load_counter)
  in
  let l = Driver.load ~clustered ~scheme ~dir cfg wl in
  load_log :=
    (Strategy.kind_name kind, scheme_name, cfg.Config.branches,
     l.Driver.load_seconds)
    :: !load_log;
  l

(* ------------------------------------------------------------------ *)
(* Figure 6a: Q1 on flat while scaling the branch count (total dataset
   size fixed), and Figure 6b: Q4 on deep while scaling branches. *)

let branch_scales = [ 10; 50; 100 ]

let fig6a () =
  Report.section
    "Figure 6a — Q1 (single-branch scan) on FLAT, scaling branches";
  Report.note "total dataset size fixed; scanning a random child branch";
  let rows =
    List.map
      (fun nb ->
        let cfg = Config.with_branches nb Config.default in
        string_of_int nb
        :: List.map
             (fun (ename, scheme) ->
               let l = load ~scheme_name:ename ~scheme Strategy.Flat cfg in
               let samples =
                 Driver.q1 l ~branch:(Workload.role_exn l.Driver.workload "child")
               in
               Driver.close l;
               Report.fmt_ms samples)
             engines)
      branch_scales
  in
  Report.table ~headers:([ "branches" ] @ List.map fst engines) ~rows

let fig6b () =
  Report.section
    "Figure 6b — Q4 (scan all branch heads) on DEEP, scaling branches";
  let rows =
    List.map
      (fun nb ->
        let cfg = Config.with_branches nb Config.default in
        string_of_int nb
        :: List.map
             (fun (ename, scheme) ->
               let l = load ~scheme_name:ename ~scheme Strategy.Deep cfg in
               let samples = Driver.q4 l in
               Driver.close l;
               Report.fmt_ms samples)
             engines)
      branch_scales
  in
  Report.table ~headers:([ "branches" ] @ List.map fst engines) ~rows

(* ------------------------------------------------------------------ *)
(* Main suite: figures 7-10 and table 2 share one set of loads per
   strategy (default branch count), including a clustered tuple-first
   variant for figure 7. *)

type main_loads = {
  strategy : Strategy.kind;
  per_engine : (string * Driver.loaded) list; (* TF, VF, HY *)
  tf_clustered : Driver.loaded;
}

let load_main kind =
  let cfg = Config.default in
  {
    strategy = kind;
    per_engine =
      List.map
        (fun (ename, scheme) -> (ename, load ~scheme_name:ename ~scheme kind cfg))
        engines;
    tf_clustered =
      load ~clustered:true ~scheme_name:"TF-clustered"
        ~scheme:Database.Tuple_first kind cfg;
  }

let close_main m =
  List.iter (fun (_, l) -> Driver.close l) m.per_engine;
  Driver.close m.tf_clustered

(* query-target roles per strategy for Q1 (figure 7) *)
let q1_roles kind =
  match kind with
  | Strategy.Deep -> [ ("tail", "tail") ]
  | Strategy.Flat -> [ ("child", "child") ]
  | Strategy.Science ->
      [
        ("mainline", "mainline");
        ("old", "oldest-active");
        ("young", "youngest-active");
      ]
  | Strategy.Curation ->
      [ ("mainline", "mainline"); ("dev", "dev"); ("feat", "feature") ]

(* diff/join pairs per strategy for Q2/Q3 (figures 8, 9) *)
let pair_roles kind =
  match kind with
  | Strategy.Deep -> ("tail", "tail-parent")
  | Strategy.Flat -> ("child", "parent")
  | Strategy.Science -> ("oldest-active", "mainline")
  | Strategy.Curation -> ("mainline", "dev")

let fig7 m =
  List.concat_map
    (fun (label, role) ->
      let row_label =
        Printf.sprintf "%s/%s" (Strategy.kind_name m.strategy) label
      in
      let cells =
        List.map
          (fun (_, l) ->
            Report.fmt_ms
              (Driver.q1 l ~branch:(Workload.role_exn l.Driver.workload role)))
          m.per_engine
        @ [
            Report.fmt_ms
              (Driver.q1 m.tf_clustered
                 ~branch:
                   (Workload.role_exn m.tf_clustered.Driver.workload role));
          ]
      in
      [ row_label :: cells ])
    (q1_roles m.strategy)

let fig8 m =
  let r1, r2 = pair_roles m.strategy in
  let row_label = Strategy.kind_name m.strategy in
  let cells =
    List.map
      (fun (_, l) ->
        Report.fmt_ms
          (Driver.q2 l
             ~b1:(Workload.role_exn l.Driver.workload r1)
             ~b2:(Workload.role_exn l.Driver.workload r2)))
      m.per_engine
  in
  [ row_label :: cells ]

let fig9 m =
  let r1, r2 = pair_roles m.strategy in
  let row_label = Strategy.kind_name m.strategy in
  let cells =
    List.map
      (fun (_, l) ->
        Report.fmt_ms
          (Driver.q3 l
             ~b1:(Workload.role_exn l.Driver.workload r1)
             ~b2:(Workload.role_exn l.Driver.workload r2)))
      m.per_engine
  in
  [ row_label :: cells ]

let fig10 m =
  let row_label = Strategy.kind_name m.strategy in
  let cells =
    List.map (fun (_, l) -> Report.fmt_ms (Driver.q4 l)) m.per_engine
  in
  [ row_label :: cells ]

(* Table 2: commit-history sizes and commit/checkout latencies for the
   bitmap-backed schemes. *)
let tab2 m =
  let rng = Prng.create 99L in
  List.filter_map
    (fun (ename, l) ->
      if ename = "VF" then None
      else begin
        let mainline =
          match Workload.role l.Driver.workload "mainline" with
          | Some b -> b
          | None -> "master"
        in
        let commits = Driver.commit_samples l ~branch:mainline ~count:20 rng in
        let checkouts = Driver.checkout_samples l ~count:30 rng in
        Some
          [
            Printf.sprintf "%s %s" (Strategy.kind_name m.strategy) ename;
            Report.fmt_bytes (Driver.commit_meta_bytes l);
            Report.fmt_ms_pm commits;
            Report.fmt_ms_pm checkouts;
          ]
      end)
    m.per_engine

let main_suite () =
  let fig7_rows = ref [] and fig8_rows = ref [] in
  let fig9_rows = ref [] and fig10_rows = ref [] in
  let tab2_rows = ref [] in
  List.iter
    (fun kind ->
      let m = load_main kind in
      fig7_rows := !fig7_rows @ fig7 m;
      fig8_rows := !fig8_rows @ fig8 m;
      fig9_rows := !fig9_rows @ fig9 m;
      fig10_rows := !fig10_rows @ fig10 m;
      tab2_rows := !tab2_rows @ tab2 m;
      close_main m)
    Strategy.all;
  let eng_headers = List.map fst engines in
  Report.section "Figure 7 — Q1 (single-branch scan) per strategy and branch";
  Report.table
    ~headers:([ "case" ] @ eng_headers @ [ "TF-clust" ])
    ~rows:!fig7_rows;
  Report.section "Figure 8 — Q2 (positive diff of two branches)";
  Report.table ~headers:([ "strategy" ] @ eng_headers) ~rows:!fig8_rows;
  Report.section "Figure 9 — Q3 (join of two branches with predicate)";
  Report.table ~headers:([ "strategy" ] @ eng_headers) ~rows:!fig9_rows;
  Report.section "Figure 10 — Q4 (scan all heads with predicate)";
  Report.table ~headers:([ "strategy" ] @ eng_headers) ~rows:!fig10_rows;
  Report.section
    "Table 2 — bitmap commit data: history size, commit and checkout time";
  Report.table
    ~headers:[ "case"; "agg. history size"; "avg commit"; "avg checkout" ]
    ~rows:!tab2_rows

(* ------------------------------------------------------------------ *)
(* Table 3: merge throughput (two-way vs three-way), curation. *)

let override_policy policy (wl : Workload.t) =
  {
    wl with
    Workload.ops =
      List.map
        (fun (op : Workload.op) ->
          match op with
          | Workload.Merge m -> Workload.Merge { m with policy }
          | other -> other)
        wl.Workload.ops;
  }

let tab3 () =
  Report.section "Table 3 — merge throughput (MB/s of inter-branch diff)";
  let cfg = Config.default in
  let wl = Strategy.generate Strategy.Curation cfg in
  let run scheme_name scheme policy =
    incr load_counter;
    let dir = fresh_dir (Printf.sprintf "tab3-%s-%d" scheme_name !load_counter) in
    let l = Driver.load ~scheme ~dir cfg (override_policy policy wl) in
    let secs =
      List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 l.Driver.merge_stats
    in
    let bytes =
      List.fold_left (fun acc (_, _, b) -> acc + b) 0 l.Driver.merge_stats
    in
    let n = List.length l.Driver.merge_stats in
    Driver.close l;
    (Report.fmt_mbps ~bytes ~seconds:secs, n)
  in
  let rows =
    List.map
      (fun (ename, scheme) ->
        let two, n = run ename scheme Types.Ours in
        let three, _ = run ename scheme Types.Three_way in
        [ ename; two; three; string_of_int n ])
      engines
  in
  Report.table
    ~headers:[ "scheme"; "two-way"; "three-way"; "merges" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Figure 11 + Table 4: table-wise updates (10 branches). *)

let fig11_tab4 () =
  Report.section
    "Figure 11 — Q1 before/after a table-wise update (10 branches)";
  let cfg = Config.with_branches 10 Config.default in
  let tab4_rows = ref [] in
  let fig11_rows =
    List.map
      (fun kind ->
        let role =
          match kind with
          | Strategy.Deep -> "tail"
          | Strategy.Flat -> "child"
          | Strategy.Science | Strategy.Curation -> "mainline"
        in
        let cells =
          List.concat_map
            (fun (ename, scheme) ->
              let l = load ~scheme_name:ename ~scheme kind cfg in
              let branch = Workload.role_exn l.Driver.workload role in
              let before = Driver.q1 l ~branch in
              let pre_bytes = Driver.dataset_bytes l in
              Driver.table_wise_update l ~branch;
              let after = Driver.q1 l ~branch in
              let post_bytes = Driver.dataset_bytes l in
              if ename = "HY" then
                tab4_rows :=
                  !tab4_rows
                  @ [
                      [
                        Strategy.kind_name kind;
                        Report.fmt_bytes pre_bytes;
                        Report.fmt_bytes post_bytes;
                      ];
                    ];
              Driver.close l;
              [ Report.fmt_ms before; Report.fmt_ms after ])
            engines
        in
        Strategy.kind_name kind :: cells)
      Strategy.all
  in
  Report.table
    ~headers:
      [
        "strategy"; "TF pre"; "TF post"; "VF pre"; "VF post"; "HY pre";
        "HY post";
      ]
    ~rows:fig11_rows;
  Report.section "Table 4 — storage impact of table-wise updates";
  Report.table ~headers:[ "strategy"; "pre-size"; "post-size" ] ~rows:!tab4_rows

(* ------------------------------------------------------------------ *)
(* Table 5: build (load) times, from every load this run performed. *)

let tab5 () =
  Report.section "Table 5 — build times (seconds)";
  let rows =
    List.rev_map
      (fun (strategy, engine, branches, secs) ->
        [ strategy; engine; string_of_int branches;
          Printf.sprintf "%.2f s" secs ])
      !load_log
  in
  Report.table ~headers:[ "strategy"; "scheme"; "branches"; "load" ] ~rows

(* ------------------------------------------------------------------ *)
(* Tables 6 and 7: git-like baseline vs Decibel (hybrid) on the deep
   structure, insert-only and update-heavy. *)

let git_variants =
  [
    (Git_engine.One_file, Git_engine.Bin);
    (Git_engine.One_file, Git_engine.Csv);
    (Git_engine.File_per_tuple, Git_engine.Bin);
    (Git_engine.File_per_tuple, Git_engine.Csv);
  ]

let drive_git ~layout ~format cfg (wl : Workload.t) =
  let dir =
    fresh_dir
      (Printf.sprintf "git-%s-%s-%d"
         (Git_engine.layout_name layout)
         (Git_engine.format_name format)
         (incr load_counter; !load_counter))
  in
  let schema = Config.schema cfg in
  let g = Git_engine.create ~dir ~schema ~layout ~format in
  let commit_times = ref [] in
  let versions = ref [] in
  let commits : (string, Vg.version_id list) Hashtbl.t = Hashtbl.create 16 in
  let name_to_bid = Hashtbl.create 16 in
  Hashtbl.replace name_to_bid "master" Vg.master;
  let bid name = Hashtbl.find name_to_bid name in
  List.iter
    (fun (op : Workload.op) ->
      match op with
      | Workload.Insert { branch; key } | Workload.Update { branch; key } ->
          Git_engine.write g (bid branch) (Driver.tuple_of_key cfg key)
      | Workload.Commit branch ->
          let t0 = Unix.gettimeofday () in
          let v = Git_engine.commit g (bid branch) ~message:"bench" in
          commit_times := (Unix.gettimeofday () -. t0) :: !commit_times;
          versions := v :: !versions;
          Hashtbl.replace commits branch
            (v :: Option.value ~default:[] (Hashtbl.find_opt commits branch))
      | Workload.Create_branch { name; from_branch; commits_back } ->
          let vs = Option.value ~default:[] (Hashtbl.find_opt commits from_branch) in
          let from = List.nth vs commits_back in
          let b = Git_engine.create_branch g ~name ~from in
          Hashtbl.replace name_to_bid name b
      | Workload.Merge _ | Workload.Retire _ -> ())
    wl.Workload.ops;
  (* checkout sample over random commits *)
  let rng = Prng.create 31L in
  let varr = Array.of_list !versions in
  let checkout_times =
    List.init 20 (fun _ ->
        let v = varr.(Prng.int rng (Array.length varr)) in
        let t0 = Unix.gettimeofday () in
        ignore (Git_engine.read_version g v);
        Unix.gettimeofday () -. t0)
  in
  let t0 = Unix.gettimeofday () in
  Git_engine.repack g;
  let repack_time = Unix.gettimeofday () -. t0 in
  let tail =
    match Workload.role wl "tail" with Some b -> b | None -> "master"
  in
  let data = Git_engine.data_bytes g (bid tail) in
  let result =
    [
      Printf.sprintf "git %s (%s)"
        (Git_engine.layout_name layout)
        (Git_engine.format_name format);
      Report.fmt_bytes data;
      Report.fmt_bytes (Git_engine.repo_bytes g);
      Printf.sprintf "%.2f s" repack_time;
      Report.fmt_ms_pm !commit_times;
      Report.fmt_ms_pm checkout_times;
    ]
  in
  Fsutil.rm_rf dir;
  result

let drive_decibel_hybrid cfg (wl : Workload.t) =
  incr load_counter;
  let dir = fresh_dir (Printf.sprintf "tab6-hy-%d" !load_counter) in
  let l = Driver.load ~scheme:Database.Hybrid ~dir cfg wl in
  let rng = Prng.create 31L in
  let tail =
    match Workload.role wl "tail" with Some b -> b | None -> "master"
  in
  let commit_times = Driver.commit_samples l ~branch:tail ~count:20 rng in
  let checkout_times = Driver.checkout_samples l ~count:20 rng in
  let n = ref 0 in
  let schema = Database.schema l.Driver.db in
  Database.scan l.Driver.db (Database.branch_named l.Driver.db tail) (fun t ->
      n := !n + Decibel_storage.Tuple.encoded_size schema t);
  let row =
    [
      "Decibel (hybrid)";
      Report.fmt_bytes !n;
      Report.fmt_bytes (Driver.dataset_bytes l + Driver.commit_meta_bytes l);
      "n/a";
      Report.fmt_ms_pm commit_times;
      Report.fmt_ms_pm checkout_times;
    ]
  in
  Driver.close l;
  row

let git_table ~title cfg =
  Report.section title;
  let wl = Strategy.generate Strategy.Deep cfg in
  let rows =
    List.map (fun (layout, format) -> drive_git ~layout ~format cfg wl)
      git_variants
    @ [ drive_decibel_hybrid cfg wl ]
  in
  Report.table
    ~headers:
      [ "system"; "data size"; "repo size"; "repack"; "commit mean+-sd";
        "checkout mean+-sd" ]
    ~rows

let tab6 () =
  let cfg =
    {
      (Config.with_branches 10 Config.default) with
      Config.update_fraction = 0.0;
      commit_every = max 10 (20 * Config.scale);
      records_per_branch = 200 * Config.scale;
    }
  in
  git_table
    ~title:
      "Table 6 — git baseline vs Decibel (hybrid), deep, 100% inserts"
    cfg

let tab7 () =
  let cfg =
    {
      (Config.with_branches 10 Config.default) with
      Config.update_fraction = 0.5;
      commit_every = max 10 (20 * Config.scale);
      records_per_branch = 200 * Config.scale;
    }
  in
  git_table
    ~title:
      "Table 7 — git baseline vs Decibel (hybrid), deep, 50% updates"
    cfg

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md §5. *)

let ablations () =
  Report.section "Ablation — bitmap orientation (tuple- vs branch-oriented)";
  let cfg = Config.default in
  let rows =
    List.map
      (fun (ename, scheme) ->
        let l = load ~scheme_name:ename ~scheme Strategy.Flat cfg in
        let q1s =
          Driver.q1 l ~branch:(Workload.role_exn l.Driver.workload "child")
        in
        let q4s = Driver.q4 l in
        Driver.close l;
        [ ename; Report.fmt_ms q1s; Report.fmt_ms q4s ])
      [
        ("TF branch-oriented", Database.Tuple_first);
        ("TF tuple-oriented", Database.Tuple_first_tuple_oriented);
      ]
  in
  Report.table ~headers:[ "layout"; "Q1 flat"; "Q4 flat" ] ~rows;

  Report.section "Ablation — commit-history layering (replay lengths)";
  let open Decibel_index in
  let dir = fresh_dir "ablation-hist" in
  Fsutil.mkdir_p dir;
  let h = Commit_history.create ~path:(Filename.concat dir "h.chx") in
  let n = 200 in
  for i = 0 to n - 1 do
    ignore
      (Commit_history.commit h
         (Bitvec.of_list (List.init (i + 1) (fun j -> j * 7))))
  done;
  let avg_layered =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + Commit_history.replay_length h i
    done;
    float_of_int !acc /. float_of_int n
  in
  let avg_flat = float_of_int (n + 1) /. 2.0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    ignore (Commit_history.checkout h i)
  done;
  let per_checkout = (Unix.gettimeofday () -. t0) /. float_of_int n in
  Report.table
    ~headers:[ "variant"; "avg deltas replayed"; "measured avg checkout" ]
    ~rows:
      [
        [ "two-layer (stride 16)"; Printf.sprintf "%.1f" avg_layered;
          Printf.sprintf "%.3f ms" (per_checkout *. 1000.) ];
        [ "single layer (analytic)"; Printf.sprintf "%.1f" avg_flat; "-" ];
      ];

  Report.section "Ablation — clustered vs interleaved load (TF, flat, Q1)";
  let cfg = Config.default in
  let rows =
    List.map
      (fun (label, clustered) ->
        let l =
          load ~clustered ~scheme_name:("TF-" ^ label)
            ~scheme:Database.Tuple_first Strategy.Flat cfg
        in
        let s =
          Driver.q1 l ~branch:(Workload.role_exn l.Driver.workload "child")
        in
        Driver.close l;
        [ label; Report.fmt_ms s ])
      [ ("interleaved", false); ("clustered", true) ]
  in
  Report.table ~headers:[ "load mode"; "Q1 flat child" ] ~rows;

  Report.section
    "Ablation — record compression (HY, deep, 10 branches; paper §5.5)";
  Report.note
    "low-cardinality record content (compressible, unlike the uniform \
     random benchmark columns)";
  let cfg10 = Config.with_branches 10 Config.default in
  let rows =
    List.map
      (fun (label, compress) ->
        incr load_counter;
        let wl = Strategy.generate Strategy.Deep cfg10 in
        let dir = fresh_dir (Printf.sprintf "abl-comp-%d" !load_counter) in
        Fsutil.mkdir_p dir;
        let db =
          Database.open_ ~compress ~scheme:Database.Hybrid ~dir
            ~schema:(Config.schema cfg10) ()
        in
        (* minimal load *)
        let commits = Hashtbl.create 16 in
        List.iter
          (fun (op : Workload.op) ->
            match op with
            | Workload.Insert { branch; key } ->
                Database.insert db (Database.branch_named db branch)
                  (Driver.compressible_tuple_of_key cfg10 key)
            | Workload.Update { branch; key } ->
                Database.update db (Database.branch_named db branch)
                  (Driver.compressible_tuple_of_key cfg10 key)
            | Workload.Commit branch ->
                let v =
                  Database.commit db (Database.branch_named db branch)
                    ~message:"x"
                in
                Hashtbl.replace commits branch
                  (v
                  :: Option.value ~default:[] (Hashtbl.find_opt commits branch))
            | Workload.Create_branch { name; from_branch; commits_back } ->
                let vs =
                  Option.value ~default:[]
                    (Hashtbl.find_opt commits from_branch)
                in
                ignore
                  (Database.create_branch db ~name
                     ~from:(List.nth vs commits_back))
            | Workload.Merge _ | Workload.Retire _ -> ())
          wl.Workload.ops;
        Database.flush db;
        let pre = Database.dataset_bytes db in
        let tail = Workload.role_exn wl "tail" in
        let b = Database.branch_named db tail in
        let scan_time () =
          let samples =
            List.init 3 (fun _ ->
                Database.drop_caches db;
                let t0 = Unix.gettimeofday () in
                Database.scan db b (fun _ -> ());
                Unix.gettimeofday () -. t0)
          in
          Report.fmt_ms samples
        in
        let q1_pre = scan_time () in
        ignore
          (Database.update_all db b (fun t ->
               let t' = Array.copy t in
               t'.(1) <- Decibel_storage.Value.int 7;
               t'));
        let post = Database.dataset_bytes db in
        let q1_post = scan_time () in
        Database.close db;
        Fsutil.rm_rf dir;
        [ label; Report.fmt_bytes pre; Report.fmt_bytes post; q1_pre; q1_post ])
      [ ("plain", false); ("lz77-compressed", true) ]
  in
  Report.table
    ~headers:[ "records"; "pre-size"; "post-size"; "Q1 pre"; "Q1 post" ]
    ~rows;

  Report.section "Ablation — buffer-pool page size (HY, flat, Q1)";
  let rows =
    List.map
      (fun page_size ->
        incr load_counter;
        let wl = Strategy.generate Strategy.Flat cfg in
        let dir = fresh_dir (Printf.sprintf "abl-page-%d" !load_counter) in
        Fsutil.mkdir_p dir;
        let pool =
          Decibel_storage.Buffer_pool.create ~page_size ~capacity_pages:256 ()
        in
        let db =
          Database.open_ ~pool ~scheme:Database.Hybrid ~dir
            ~schema:(Config.schema cfg) ()
        in
        Database.close db;
        Fsutil.rm_rf dir;
        (* reload through the driver with default pool for timing
           consistency; page-size effect measured via a direct load *)
        let dir2 = fresh_dir (Printf.sprintf "abl-page2-%d" !load_counter) in
        let pool2 =
          Decibel_storage.Buffer_pool.create ~page_size ~capacity_pages:256 ()
        in
        let db2 =
          Database.open_ ~pool:pool2 ~scheme:Database.Hybrid ~dir:dir2
            ~schema:(Config.schema cfg) ()
        in
        (* minimal manual load of the workload *)
        let commits = Hashtbl.create 16 in
        List.iter
          (fun (op : Workload.op) ->
            match op with
            | Workload.Insert { branch; key } ->
                Database.insert db2
                  (Database.branch_named db2 branch)
                  (Driver.tuple_of_key cfg key)
            | Workload.Update { branch; key } ->
                Database.update db2
                  (Database.branch_named db2 branch)
                  (Driver.tuple_of_key cfg key)
            | Workload.Commit branch ->
                let v =
                  Database.commit db2
                    (Database.branch_named db2 branch)
                    ~message:"x"
                in
                Hashtbl.replace commits branch
                  (v
                  :: Option.value ~default:[]
                       (Hashtbl.find_opt commits branch))
            | Workload.Create_branch { name; from_branch; commits_back } ->
                let vs =
                  Option.value ~default:[]
                    (Hashtbl.find_opt commits from_branch)
                in
                ignore
                  (Database.create_branch db2 ~name
                     ~from:(List.nth vs commits_back))
            | Workload.Merge { into; from; policy } ->
                let r =
                  Database.merge db2
                    ~into:(Database.branch_named db2 into)
                    ~from:(Database.branch_named db2 from)
                    ~policy ~message:"m"
                in
                Hashtbl.replace commits into
                  (r.Types.merge_version
                  :: Option.value ~default:[] (Hashtbl.find_opt commits into))
            | Workload.Retire branch ->
                Vg.retire (Database.graph db2)
                  (Database.branch_named db2 branch))
          wl.Workload.ops;
        Database.flush db2;
        let child = Workload.role_exn wl "child" in
        let samples =
          List.init 3 (fun _ ->
              Database.drop_caches db2;
              let t0 = Unix.gettimeofday () in
              Database.scan db2 (Database.branch_named db2 child) (fun _ -> ());
              Unix.gettimeofday () -. t0)
        in
        Database.close db2;
        Fsutil.rm_rf dir2;
        [ Report.fmt_bytes page_size; Report.fmt_ms samples ])
      [ 16 * 1024; 64 * 1024; 256 * 1024 ]
  in
  Report.table ~headers:[ "page size"; "Q1 flat child" ] ~rows;

  (* informational only: that parallel output equals serial output is
     test_par's engine-identity check, not a timing *)
  Report.section "Ablation — domain pool size (flat; p50, 0 = pool off)";
  let domain_counts =
    List.sort_uniq compare [ 0; 1; 2; 4; Domain.recommended_domain_count () ]
  in
  let saved_domains = Par.domain_count () in
  let rows =
    List.concat_map
      (fun (ename, scheme) ->
        let l = load ~scheme_name:ename ~scheme Strategy.Flat cfg in
        let db = l.Driver.db in
        let role r =
          Driver.branch_id db (Workload.role_exn l.Driver.workload r)
        in
        let child = role "child" and parent = role "parent" in
        let heads = Database.heads db in
        let queries =
          [
            ("scan", fun () -> Database.scan db child ignore);
            ("multi_scan", fun () -> Database.multi_scan db heads ignore);
            ( "diff",
              fun () -> Database.diff db child parent ~pos:ignore ~neg:ignore );
          ]
        in
        let rows =
          List.map
            (fun (qname, run) ->
              Printf.sprintf "%s %s" ename qname
              :: List.map
                   (fun dc ->
                     Par.set_domain_count dc;
                     Report.fmt_ms
                       [ Report.percentile (Driver.measure l run) 0.50 ])
                   domain_counts)
            queries
        in
        Driver.close l;
        rows)
      engines
  in
  Par.set_domain_count saved_domains;
  Report.table
    ~headers:("scheme query" :: List.map string_of_int domain_counts)
    ~rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of core primitives. *)

let micro () =
  Report.section "Micro-benchmarks (Bechamel): core primitives";
  let open Bechamel in
  let open Toolkit in
  let bits = Bitvec.of_list (List.init 5000 (fun i -> i * 3)) in
  let bits2 = Bitvec.of_list (List.init 5000 (fun i -> (i * 5) + 1)) in
  let rle_enc = Rle.encode bits in
  let payload = String.concat "" (List.init 400 (fun i -> Printf.sprintf "rec-%d;" i)) in
  let compressed = Lz77.compress payload in
  let tests =
    [
      Test.make ~name:"bitvec-xor" (Staged.stage (fun () -> Bitvec.xor bits bits2));
      Test.make ~name:"bitvec-popcount"
        (Staged.stage (fun () -> Bitvec.pop_count bits));
      Test.make ~name:"rle-encode" (Staged.stage (fun () -> Rle.encode bits));
      Test.make ~name:"rle-decode"
        (Staged.stage (fun () -> Rle.decode rle_enc (ref 0)));
      Test.make ~name:"lz77-compress"
        (Staged.stage (fun () -> Lz77.compress payload));
      Test.make ~name:"lz77-decompress"
        (Staged.stage (fun () -> Lz77.decompress compressed));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let rows =
    List.concat_map
      (fun test ->
        let results = analyze (benchmark (Test.make_grouped ~name:"g" [ test ])) in
        Hashtbl.fold
          (fun name result acc ->
            let estimate =
              match Analyze.OLS.estimates result with
              | Some [ e ] -> Printf.sprintf "%.0f ns/run" e
              | _ -> "-"
            in
            [ name; estimate ] :: acc)
          results []
        )
      tests
  in
  Report.table ~headers:[ "primitive"; "time" ] ~rows

(* ------------------------------------------------------------------ *)
(* Profiler overhead, the one timing gate: Q1 latency with and without
   the request profiler (Database.profile) per scheme.  A round takes
   [repeat] samples of every arm, interleaved sample by sample and
   starting at a different arm each round, so clock drift, GC debt and
   page-cache state hit all arms equally; it yields one overhead ratio
   from the arms' medians.  The gate is the median of the per-round
   ratios, which a few noisy rounds cannot move.  The budget is < 5%.
   A third arm, Q1 with the metrics registry off (Obs.set_enabled
   false), reports what the registry itself costs; it is not gated. *)

module Obs = Decibel_obs.Obs

let prof_overhead () =
  Report.section
    "Profiler overhead — Q1 profiled vs unprofiled (< 5% median budget)";
  Obs.set_enabled true;
  let cfg = Config.default in
  let rounds = 16 and repeat = 7 in
  let budget_pct = 5.0 in
  (* sub-millisecond medians put 5% well inside clock jitter at small
     scales, so a breach must also clear an absolute 20 us delta *)
  let noise_floor_s = 20e-6 in
  let median xs = Report.percentile xs 0.50 in
  let pct ~base x = if base <= 0. then 0. else (x -. base) /. base *. 100. in
  let results =
    List.map
      (fun (ename, scheme) ->
        let l = load ~scheme_name:ename ~scheme Strategy.Flat cfg in
        let db = l.Driver.db in
        let bid =
          Driver.branch_id db (Workload.role_exn l.Driver.workload "child")
        in
        let q1 () = ignore (Query.q1_scan db bid) in
        let profiled () =
          ignore (Database.profile ~label:("q1-" ^ ename) db q1)
        in
        let obs_off () =
          Obs.set_enabled false;
          Fun.protect ~finally:(fun () -> Obs.set_enabled true) q1
        in
        let arms = [| q1; profiled; obs_off |] in
        let sample f =
          Database.drop_caches db;
          fst (Driver.time f)
        in
        (* unmeasured warm-up of every arm *)
        Array.iter (fun f -> ignore (sample f)) arms;
        let round i =
          Gc.full_major ();
          let times = Array.make_matrix 3 repeat 0. in
          for s = 0 to repeat - 1 do
            for j = 0 to 2 do
              let k = (i + j) mod 3 in
              times.(k).(s) <- sample arms.(k)
            done
          done;
          let arm k = median (Array.to_list times.(k)) in
          (arm 0, arm 1, arm 2)
        in
        let rs = List.init rounds round in
        Driver.close l;
        let med f = median (List.map f rs) in
        let prof_pct = med (fun (p, q, _) -> pct ~base:p q) in
        let over_budget =
          prof_pct > budget_pct
          && med (fun (p, q, _) -> q -. p) > noise_floor_s
        in
        ( ename,
          [
            Report.fmt_ms [ med (fun (p, _, _) -> p) ];
            Report.fmt_ms [ med (fun (_, q, _) -> q) ];
            Printf.sprintf "%+.2f%%" prof_pct;
            Report.fmt_ms [ med (fun (_, _, o) -> o) ];
            Printf.sprintf "%+.2f%%" (med (fun (p, _, o) -> pct ~base:o p));
            (if over_budget then "OVER BUDGET" else "ok");
          ],
          over_budget ))
      engines
  in
  Report.note "medians over %d rounds of %d samples per arm" rounds repeat;
  Report.table
    ~headers:
      [ "scheme"; "plain p50"; "profiled p50"; "profiler"; "Obs-off p50";
        "registry"; "budget" ]
    ~rows:(List.map (fun (e, cells, _) -> e :: cells) results);
  let breaches = List.filter (fun (_, _, over) -> over) results in
  if breaches <> [] then begin
    Printf.eprintf "profiler overhead over %.1f%% budget: %s\n%!" budget_pct
      (String.concat ", " (List.map (fun (e, _, _) -> e) breaches));
    exit 1
  end

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("main", main_suite); (* fig7, fig8, fig9, fig10, tab2 *)
    ("tab3", tab3);
    ("fig11", fig11_tab4); (* + tab4 *)
    ("tab6", tab6);
    ("tab7", tab7);
    ("ablations", ablations);
    ("micro", micro);
    ("profoverhead", prof_overhead);
    ("tab5", tab5); (* printed last: aggregates all loads this run *)
  ]

let aliases =
  [
    ("fig7", "main"); ("fig8", "main"); ("fig9", "main"); ("fig10", "main");
    ("tab2", "main"); ("tab4", "fig11");
  ]

let () =
  let only =
    let rec find = function
      | "--only" :: v :: _ -> Some (String.split_on_char ',' v)
      | _ :: rest -> find rest
      | [] -> None
    in
    find (Array.to_list Sys.argv)
  in
  let resolve n = Option.value ~default:n (List.assoc_opt n aliases) in
  (match only with
  | Some names -> (
      match
        List.filter
          (fun n -> not (List.mem_assoc (resolve n) experiments))
          names
      with
      | [] -> ()
      | unknown ->
          Printf.eprintf "unknown experiment(s): %s\n%!"
            (String.concat ", " unknown);
          exit 2)
  | None -> ());
  let wanted name =
    match only with
    | None -> true
    | Some names -> List.exists (fun n -> resolve n = name) names
  in
  Printf.printf "Decibel versioning benchmark (scale %d)\n" Config.scale;
  Printf.printf "config: %s\n"
    (Format.asprintf "%a" Config.pp Config.default);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) -> if wanted name then f ())
    experiments;
  Printf.printf "\ntotal benchmark wall time: %.1f s\n"
    (Unix.gettimeofday () -. t0);
  Fsutil.rm_rf bench_root
