(* Benchmark harness regenerating every table and figure of the
   paper's evaluation (§5).  One section per artifact; run all with
   `dune exec bench/main.exe`, or a subset with `--only fig7,tab2`.
   DECIBEL_BENCH_SCALE=<n> scales the data volume (default 1: a small,
   minutes-long run; the paper's absolute numbers used 100 GB on a
   dedicated server, so only relative comparisons are meaningful —
   see EXPERIMENTS.md). *)

open Decibel
open Decibel_bench
open Decibel_util
module Vg = Decibel_graph.Version_graph
module Git_engine = Decibel_gitlike.Git_engine

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

let load ?(clustered = false) ?(durable = false) ~scheme_name ~scheme kind cfg =
  incr load_counter;
  let wl = Strategy.generate kind cfg in
  let dir =
    fresh_dir
      (Printf.sprintf "%s-%s-%d" (Strategy.kind_name kind) scheme_name
         !load_counter)
  in
  let l = Driver.load ~clustered ~durable ~scheme ~dir cfg wl in
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
  Commit_history.close h;
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
  Report.table ~headers:[ "page size"; "Q1 flat child" ] ~rows

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
(* Observability report: per scheme x query latency distributions plus
   internal counter deltas, written to BENCH_<timestamp>.json.  Loads
   run durable so wal.* counters are exercised too. *)

module Obs = Decibel_obs.Obs

let obs_report () =
  Report.section "Observability: latency distributions + counter deltas";
  let cfg = Config.default in
  let repeat = 5 in
  let scheme_entries =
    List.map
      (fun (ename, scheme) ->
        let before_load = Obs.snapshot () in
        let l =
          load ~durable:true ~scheme_name:ename ~scheme Strategy.Flat cfg
        in
        let load_counters =
          List.filter_map
            (fun (k, v) -> if v <> 0 then Some (k, Report.J_int v) else None)
            (Obs.counters_diff before_load (Obs.snapshot ()))
        in
        let run_query qname f =
          let before = Obs.snapshot () in
          let samples = f () in
          let after = Obs.snapshot () in
          let counters =
            List.filter_map
              (fun (k, v) -> if v <> 0 then Some (k, Report.J_int v) else None)
              (Obs.counters_diff before after)
          in
          (* the four headline counters must always be present, zero or
             not, so downstream tooling can rely on the keys *)
          let counters =
            List.fold_left
              (fun acc k ->
                if List.mem_assoc k acc then acc else (k, Report.J_int 0) :: acc)
              counters
              [
                "buffer_pool.misses"; "wal.bytes"; "engine.scan.pages";
                "commit_history.delta_bytes";
              ]
          in
          Report.note "%s %s: p50 %s  p95 %s" ename qname
            (Report.fmt_ms [ Report.percentile samples 0.50 ])
            (Report.fmt_ms [ Report.percentile samples 0.95 ]);
          ( qname,
            Report.J_obj
              [
                ("p50_ms", Report.J_float (Report.percentile samples 0.50 *. 1e3));
                ("p95_ms", Report.J_float (Report.percentile samples 0.95 *. 1e3));
                ("p99_ms", Report.J_float (Report.percentile samples 0.99 *. 1e3));
                ( "samples_ms",
                  Report.J_list
                    (List.map (fun s -> Report.J_float (s *. 1e3)) samples) );
                ("counters", Report.J_obj counters);
              ] )
        in
        let role r = Workload.role_exn l.Driver.workload r in
        let b1, b2 = pair_roles Strategy.Flat in
        (* bind in sequence: list literals evaluate right-to-left *)
        let q1 = run_query "q1" (fun () -> Driver.q1 ~repeat l ~branch:(role "child")) in
        let q2 = run_query "q2" (fun () -> Driver.q2 ~repeat l ~b1:(role b1) ~b2:(role b2)) in
        let q3 = run_query "q3" (fun () -> Driver.q3 ~repeat l ~b1:(role b1) ~b2:(role b2)) in
        let q4 = run_query "q4" (fun () -> Driver.q4 ~repeat l) in
        let queries = [ q1; q2; q3; q4 ] in
        let storage =
          Decibel_obs.Report.to_json (Database.storage_report l.Driver.db)
        in
        let entry =
          Report.J_obj
            [
              ("load_seconds", Report.J_float l.Driver.load_seconds);
              ("dataset_bytes", Report.J_int (Driver.dataset_bytes l));
              ("load_counters", Report.J_obj load_counters);
              ("queries", Report.J_obj queries);
              ("storage_report", Report.J_raw storage);
            ]
        in
        Driver.close l;
        (ename, entry))
      engines
  in
  let stamp =
    let tm = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d%02d%02d_%02d%02d%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let doc =
    Report.J_obj
      [
        ("schema", Report.J_str "decibel-bench-v1");
        ("timestamp", Report.J_str stamp);
        ("scale", Report.J_int Config.scale);
        ("config", Report.J_str (Format.asprintf "%a" Config.pp cfg));
        ("repeat", Report.J_int repeat);
        ("schemes", Report.J_obj scheme_entries);
      ]
  in
  let path = Printf.sprintf "BENCH_%s.json" stamp in
  let oc = open_out path in
  output_string oc (Report.json_to_string doc);
  output_char oc '\n';
  close_out oc;
  Report.note "wrote %s" path;
  (* the spans recorded during the run, as a Chrome-trace artifact *)
  let trace_path = Printf.sprintf "BENCH_%s.trace.json" stamp in
  Obs.write_trace ~path:trace_path;
  Report.note "wrote %s (%d spans, %d events)" trace_path (Obs.span_count ())
    (Obs.events_emitted ())

(* ------------------------------------------------------------------ *)
(* Scalability: scan / multi-scan / diff throughput per scheme as the
   domain pool grows — not a paper figure; the repo's first multicore
   trajectory datapoint.  Emits BENCH_<stamp>.scale.json with speedup
   curves, and fails the process if any parallel run's result
   fingerprint diverges from the serial reference (the executor's
   determinism guarantee, checked end-to-end). *)

module Par = Decibel_par.Par

let scale_bench () =
  Report.section "Scalability — domain pool sweep (scan / multi-scan / diff)";
  let saved_domains = Par.domain_count () in
  let hw = Domain.recommended_domain_count () in
  (* 0 = pool off (serial reference); speedups are reported vs 1 *)
  let domain_counts = List.sort_uniq compare [ 0; 1; 2; 4; max 4 hw ] in
  (* fewer, fatter branches than Config.default so the scans are
     decode-bound (the part that parallelizes) rather than setup-bound *)
  let cfg =
    {
      Config.default with
      branches = 8;
      records_per_branch = 3000 * Config.scale;
      commit_every = 1500 * Config.scale;
    }
  in
  let repeat = 3 in
  let mismatches = ref 0 in
  let scheme_entries =
    List.map
      (fun (ename, scheme) ->
        let l =
          load ~durable:true ~scheme_name:ename ~scheme Strategy.Flat cfg
        in
        let role r = Workload.role_exn l.Driver.workload r in
        let child = role "child" and parent = role "parent" in
        Par.set_domain_count 0;
        let queries =
          [
            ( "scan",
              fun () -> Driver.scan_fingerprint l ~branch:child );
            ("multi_scan", fun () -> Driver.multi_scan_fingerprint l);
            ( "diff",
              fun () -> Driver.diff_fingerprint l ~b1:child ~b2:parent );
          ]
        in
        (* serial reference fingerprints, computed with the pool off *)
        let refs = List.map (fun (qname, run) -> (qname, run ())) queries in
        let query_entries =
          List.map
            (fun (qname, run) ->
              let ref_h, ref_n = List.assoc qname refs in
              let sweep =
                List.map
                  (fun dc ->
                    Par.set_domain_count dc;
                    let result = ref (0L, 0) in
                    let samples =
                      Driver.measure ~repeat l (fun () -> result := run ())
                    in
                    let h, n = !result in
                    let ok = h = ref_h && n = ref_n in
                    if not ok then begin
                      incr mismatches;
                      Report.note
                        "MISMATCH: %s %s with %d domain(s) diverges from serial"
                        ename qname dc
                    end;
                    (dc, Report.percentile samples 0.50, n, ok))
                  domain_counts
              in
              let t1 =
                match List.find_opt (fun (dc, _, _, _) -> dc = 1) sweep with
                | Some (_, m, _, _) -> m
                | None -> nan
              in
              let t4 =
                List.find_opt (fun (dc, _, _, _) -> dc = 4) sweep
                |> Option.map (fun (_, m, _, _) -> m)
              in
              (match t4 with
              | Some m ->
                  Report.note "%s %s: 1 domain %s, 4 domains %s (%.2fx)" ename
                    qname
                    (Report.fmt_ms [ t1 ])
                    (Report.fmt_ms [ m ])
                    (t1 /. m)
              | None -> ());
              ( qname,
                Report.J_obj
                  [
                    ( "serial_fingerprint",
                      Report.J_str (Printf.sprintf "%016Lx" ref_h) );
                    ("tuples", Report.J_int ref_n);
                    ( "sweep",
                      Report.J_list
                        (List.map
                           (fun (dc, med, n, ok) ->
                             Report.J_obj
                               [
                                 ("domains", Report.J_int dc);
                                 ("p50_ms", Report.J_float (med *. 1e3));
                                 ( "tuples_per_sec",
                                   Report.J_float (float_of_int n /. med) );
                                 ("speedup_vs_1", Report.J_float (t1 /. med));
                                 ( "identical_to_serial",
                                   Report.J_raw (if ok then "true" else "false")
                                 );
                               ])
                           sweep) );
                  ] ))
            queries
        in
        let entry =
          Report.J_obj
            [
              ("dataset_bytes", Report.J_int (Driver.dataset_bytes l));
              ("queries", Report.J_obj query_entries);
            ]
        in
        Driver.close l;
        (ename, entry))
      engines
  in
  Par.set_domain_count saved_domains;
  let stamp =
    let tm = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d%02d%02d_%02d%02d%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let doc =
    Report.J_obj
      [
        ("schema", Report.J_str "decibel-scale-v1");
        ("timestamp", Report.J_str stamp);
        ("scale", Report.J_int Config.scale);
        ("hardware_domains", Report.J_int hw);
        ("config", Report.J_str (Format.asprintf "%a" Config.pp cfg));
        ("repeat", Report.J_int repeat);
        ("schemes", Report.J_obj scheme_entries);
      ]
  in
  let path = Printf.sprintf "BENCH_%s.scale.json" stamp in
  let oc = open_out path in
  output_string oc (Report.json_to_string doc);
  output_char oc '\n';
  close_out oc;
  Report.note "wrote %s" path;
  if !mismatches > 0 then begin
    Printf.eprintf "scale bench: %d parallel/serial mismatch(es)\n%!"
      !mismatches;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Load shedding: not a paper artifact — the resource-governor
   walkthrough in EXPERIMENTS.md.  A fixed op mix (cheap branch scans
   with an occasional heavy multi-scan, plus a slice of tightly
   deadlined scans) hammers one governed database from a rising number
   of client threads.  The governor is provisioned well below the peak
   thread count, so higher levels must shed; the artifact is the
   latency/shed-rate curve in BENCH_<stamp>.shed.json.  After every
   level the full multi-scan fingerprint is compared against the
   pre-storm serial reference — shedding and deadline aborts must be
   invisible to the data — and any divergence fails the process. *)

module Governor = Decibel_governor.Governor

let shed_bench () =
  Report.section
    "Shed — governed op mix under rising concurrency (p99 + shed rate)";
  let cfg =
    {
      Config.default with
      Config.branches = 8;
      records_per_branch = 1200 * Config.scale;
      commit_every = 600 * Config.scale;
    }
  in
  incr load_counter;
  let dir = fresh_dir (Printf.sprintf "shed-%d" !load_counter) in
  let wl = Strategy.generate Strategy.Flat cfg in
  let l = Driver.load ~scheme:Database.Hybrid ~dir cfg wl in
  (* deliberately under-provisioned: 4 weighted slots and a 2-deep
     queue against up to 16 clients, so overload actually sheds *)
  let gov =
    Governor.Admission.create ~capacity:4 ~heavy_weight:4 ~max_queue:2 ()
  in
  Database.close l.Driver.db;
  let l = { l with Driver.db = Database.reopen ~governor:gov ~dir () } in
  let db = l.Driver.db in
  let heads = Database.heads db in
  let harr = Array.of_list heads in
  let reference = Driver.multi_scan_fingerprint l in
  let ops_per_thread = 40 in
  let levels = [ 1; 2; 4; 8; 16 ] in
  let mismatches = ref 0 in
  let level_entries =
    List.map
      (fun conc ->
        let lats = Array.make (conc * ops_per_thread) 0.0 in
        let ok = Atomic.make 0
        and shed = Atomic.make 0
        and deadlined = Atomic.make 0 in
        let worker tid =
          let rng =
            Prng.create (Int64.of_int (0x5EDD + (conc * 1000) + tid))
          in
          for k = 0 to ops_per_thread - 1 do
            let t0 = Unix.gettimeofday () in
            (try
               (match Prng.int rng 10 with
               | 0 ->
                   (* heavy: all-branch scan, weight 4 of 4 slots *)
                   Database.multi_scan db heads (fun _ -> ())
               | 1 ->
                   (* tightly deadlined cheap scan: exercises
                      cancellation while the pool is contended *)
                   let ctx = Governor.Ctx.create ~deadline_ms:1 () in
                   Database.scan ~ctx db
                     harr.(Prng.int rng (Array.length harr))
                     (fun _ -> ())
               | _ ->
                   Database.scan db
                     harr.(Prng.int rng (Array.length harr))
                     (fun _ -> ()));
               Atomic.incr ok
             with
            | Governor.Overloaded _ -> Atomic.incr shed
            | Governor.Deadline_exceeded -> Atomic.incr deadlined);
            lats.((tid * ops_per_thread) + k) <- Unix.gettimeofday () -. t0
          done
        in
        let threads =
          List.init conc (fun tid -> Thread.create worker tid)
        in
        List.iter Thread.join threads;
        let samples = Array.to_list lats in
        let total = conc * ops_per_thread in
        let shed_rate =
          float_of_int (Atomic.get shed) /. float_of_int total
        in
        let p50 = Report.percentile samples 0.50
        and p99 = Report.percentile samples 0.99 in
        (* a storm must never change what a later reader sees *)
        let ok_after = Driver.multi_scan_fingerprint l = reference in
        if not ok_after then begin
          incr mismatches;
          Report.note
            "MISMATCH: fingerprint diverged after %d-thread level" conc
        end;
        Report.note
          "%2d threads: p50 %s  p99 %s  ok %d  shed %d (%.0f%%)  deadline %d"
          conc
          (Report.fmt_ms [ p50 ])
          (Report.fmt_ms [ p99 ])
          (Atomic.get ok) (Atomic.get shed) (shed_rate *. 100.)
          (Atomic.get deadlined);
        Report.J_obj
          [
            ("threads", Report.J_int conc);
            ("ops", Report.J_int total);
            ("ok", Report.J_int (Atomic.get ok));
            ("shed", Report.J_int (Atomic.get shed));
            ("deadline_exceeded", Report.J_int (Atomic.get deadlined));
            ("shed_rate", Report.J_float shed_rate);
            ("p50_ms", Report.J_float (p50 *. 1e3));
            ("p99_ms", Report.J_float (p99 *. 1e3));
            ( "fingerprint_identical",
              Report.J_raw (if ok_after then "true" else "false") );
          ])
      levels
  in
  let st = Governor.Admission.stats gov in
  let stamp =
    let tm = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d%02d%02d_%02d%02d%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let ref_h, ref_n = reference in
  let doc =
    Report.J_obj
      [
        ("schema", Report.J_str "decibel-shed-v1");
        ("timestamp", Report.J_str stamp);
        ("scale", Report.J_int Config.scale);
        ("config", Report.J_str (Format.asprintf "%a" Config.pp cfg));
        ( "governor",
          Report.J_obj
            [
              ("capacity", Report.J_int st.Governor.Admission.capacity);
              ("heavy_weight", Report.J_int 4);
              ("max_queue", Report.J_int 2);
              ("admitted", Report.J_int st.Governor.Admission.admitted);
              ("shed", Report.J_int st.Governor.Admission.shed);
              ( "avg_hold_ms",
                Report.J_float st.Governor.Admission.avg_hold_ms );
            ] );
        ( "reference_fingerprint",
          Report.J_str (Printf.sprintf "%016Lx" ref_h) );
        ("reference_tuples", Report.J_int ref_n);
        ("levels", Report.J_list level_entries);
      ]
  in
  let path = Printf.sprintf "BENCH_%s.shed.json" stamp in
  let oc = open_out path in
  output_string oc (Report.json_to_string doc);
  output_char oc '\n';
  close_out oc;
  Report.note "wrote %s" path;
  Driver.close l;
  if !mismatches > 0 then begin
    Printf.eprintf "shed bench: %d fingerprint divergence(s)\n%!" !mismatches;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Crash torture: not a paper artifact — the robustness walkthrough in
   EXPERIMENTS.md.  Kills a scripted branch/insert/commit/merge
   workload at every failpoint site it crosses, recovers, checks
   against the model oracle, and writes the per-case results to
   FSCK_REPORT.json (the CI artifact). *)

let crash () =
  Report.section
    "Crash torture — induced crash at every failpoint site, then recover";
  (* deterministic fault schedule; DECIBEL_SEED overrides *)
  (match Sys.getenv_opt "DECIBEL_SEED" with
  | Some s -> ( try Decibel_fault.Failpoint.set_seed (Int64.of_string s) with _ -> ())
  | None -> Decibel_fault.Failpoint.set_seed 0x5EEDL);
  let root = fresh_dir "crash" in
  let summaries =
    List.map
      (fun (ename, scheme) -> (ename, Torture.torture ~root scheme))
      engines
  in
  let rows =
    List.map
      (fun (ename, (s : Torture.summary)) ->
        let fired =
          List.length (List.filter (fun c -> c.Torture.c_fired) s.Torture.s_cases)
        in
        let repairs =
          List.fold_left
            (fun acc c -> acc + c.Torture.c_fsck_findings)
            0 s.Torture.s_cases
        in
        [
          ename;
          string_of_int (List.length s.Torture.s_sites);
          string_of_int (List.length s.Torture.s_cases);
          string_of_int fired;
          string_of_int repairs;
          string_of_int s.Torture.s_failures;
        ])
      summaries
  in
  Report.table
    ~headers:[ "scheme"; "sites"; "cases"; "fired"; "fsck repairs"; "failures" ]
    ~rows;
  (* same deal inside maintenance: the journaled executor killed at
     every maint.* site mid-compaction/materialization/GC must recover
     fingerprint-identical *)
  let maint_summaries =
    List.map
      (fun (ename, scheme) -> (ename, Torture.maint_torture ~root scheme))
      engines
  in
  Report.section
    "Maintenance torture — crash at every maint.* site mid-rewrite";
  let maint_rows =
    List.map
      (fun (ename, (s : Torture.summary)) ->
        let fired =
          List.length (List.filter (fun c -> c.Torture.c_fired) s.Torture.s_cases)
        in
        [
          ename;
          string_of_int (List.length s.Torture.s_cases);
          string_of_int fired;
          string_of_int s.Torture.s_failures;
        ])
      maint_summaries
  in
  Report.table
    ~headers:[ "scheme"; "cases"; "fired"; "failures" ]
    ~rows:maint_rows;
  let transient_rows =
    List.map
      (fun (ename, scheme) ->
        let outcomes = Torture.transient_check ~root scheme in
        ename
        :: List.map
             (fun (_, outcome) -> if outcome = "" then "absorbed" else outcome)
             outcomes)
      engines
  in
  Report.section "Transient faults — one per retryable site, bounded retry";
  Report.table
    ~headers:[ "scheme"; "wal.sync"; "heap.flush"; "manifest.write_tmp" ]
    ~rows:transient_rows;
  let oc = open_out "FSCK_REPORT.json" in
  output_string oc "[";
  List.iteri
    (fun i (_, s) ->
      if i > 0 then output_char oc ',';
      output_string oc (Torture.summary_json s))
    (summaries @ maint_summaries);
  output_string oc "]\n";
  close_out oc;
  Report.note "wrote FSCK_REPORT.json";
  let total_failures =
    List.fold_left
      (fun acc (_, s) -> acc + s.Torture.s_failures)
      0
      (summaries @ maint_summaries)
  in
  if total_failures > 0 then begin
    Printf.eprintf "crash torture: %d failure(s)\n%!" total_failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Maintenance: build a fragmented, chain-heavy store per scheme, run
   the journaled executor, and report the before/after storage-report
   deltas (dead records, delta-chain depth, on-disk bytes) plus the
   hot-branch scan p50.  Maintenance that fails to reclaim dead space
   (TF/HY) or collapse the hot chain (VF) fails the process.  Writes
   BENCH_<stamp>.maint.json. *)

let maint_bench () =
  Report.section
    "Maint — journaled executor: fragmentation and chains, before/after";
  Obs.set_enabled true;
  let module R = Decibel_obs.Report in
  let dead (r : R.t) =
    List.fold_left
      (fun acc (s : R.segment) -> acc + (s.R.sg_records - s.R.sg_live_records))
      0 r.R.r_segments
  in
  let chain name (r : R.t) =
    match
      List.find_opt (fun (b : R.branch) -> b.R.br_name = name) r.R.r_branches
    with
    | Some b -> b.R.br_delta_chain
    | None -> 0
  in
  let repeat = 15 in
  let cfg = Config.default in
  let all_ok = ref true in
  let scheme_docs = ref [] in
  let rows =
    List.map
      (fun (ename, scheme) ->
        incr load_counter;
        let dir = fresh_dir (Printf.sprintf "maint-%s-%d" ename !load_counter) in
        Fsutil.mkdir_p dir;
        let db = Database.open_ ~scheme ~dir ~schema:(Config.schema cfg) () in
        let key = ref 0 in
        let n = 400 * Config.scale in
        (* every key is written twice before its first commit, so half
           the heap is dead the moment master commits: no checkout
           references the superseded versions *)
        for _ = 1 to n do
          incr key;
          Database.insert db Vg.master (Driver.tuple_of_key cfg !key)
        done;
        for k = 1 to n do
          Database.update db Vg.master (Driver.tuple_of_key cfg k)
        done;
        ignore (Database.commit db Vg.master ~message:"base");
        (* a stack of committing branches builds the delta chain the
           version-first materializer collapses; branching off the
           clean master head also freezes hybrid's fragmented segment *)
        let hot =
          let rec go parent i =
            let nm = if i = 6 then "hot" else Printf.sprintf "hot-%d" i in
            let b = Database.branch_from db ~name:nm ~of_branch:parent in
            for _ = 1 to 20 * Config.scale do
              incr key;
              Database.insert db b (Driver.tuple_of_key cfg !key)
            done;
            ignore (Database.commit db b ~message:nm);
            if i = 6 then b else go b (i + 1)
          in
          go Vg.master 1
        in
        Database.flush db;
        let scan_samples () =
          List.init repeat (fun _ ->
              let t = Unix.gettimeofday () in
              Database.scan db hot (fun _ -> ());
              Unix.gettimeofday () -. t)
        in
        let before = Database.storage_report db in
        let p50_before = Report.percentile (scan_samples ()) 0.50 in
        (* the executor: engine-chosen GC to a fixpoint, then
           materialize every active branch *)
        let reclaimed = ref 0 in
        let tasks = ref 0 in
        let note = function
          | Some (m : Database.maint_result) ->
              incr tasks;
              reclaimed := !reclaimed + m.Database.m_reclaimed
          | None -> ()
        in
        let rec gc_fix i =
          if i < 4 then
            match Database.run_maintenance db ~kind:Engine_intf.M_gc ~target:"" with
            | Some m ->
                note (Some m);
                gc_fix (i + 1)
            | None -> ()
        in
        gc_fix 0;
        List.iter
          (fun (br : Vg.branch) ->
            if br.Vg.active then
              note
                (Database.run_maintenance db ~kind:Engine_intf.M_materialize
                   ~target:br.Vg.name))
          (Vg.branches (Database.graph db));
        let after = Database.storage_report db in
        let p50_after = Report.percentile (scan_samples ()) 0.50 in
        Database.close db;
        let ok =
          match scheme with
          | Database.Version_first -> chain "hot" after < chain "hot" before
          | _ -> dead after < dead before
        in
        if not ok then all_ok := false;
        scheme_docs :=
          ( ename,
            Report.J_obj
              [
                ("tasks", Report.J_int !tasks);
                ("bytes_reclaimed", Report.J_int !reclaimed);
                ("dead_before", Report.J_int (dead before));
                ("dead_after", Report.J_int (dead after));
                ("chain_before", Report.J_int (chain "hot" before));
                ("chain_after", Report.J_int (chain "hot" after));
                ("bytes_before", Report.J_int before.R.r_dataset_bytes);
                ("bytes_after", Report.J_int after.R.r_dataset_bytes);
                ("scan_p50_ms_before", Report.J_float (p50_before *. 1e3));
                ("scan_p50_ms_after", Report.J_float (p50_after *. 1e3));
                ("improved", Report.J_raw (if ok then "true" else "false"));
              ] )
          :: !scheme_docs;
        [
          ename;
          string_of_int !tasks;
          Printf.sprintf "%d -> %d" (dead before) (dead after);
          Printf.sprintf "%d -> %d" (chain "hot" before) (chain "hot" after);
          Printf.sprintf "%d -> %d" before.R.r_dataset_bytes
            after.R.r_dataset_bytes;
          Printf.sprintf "%s -> %s"
            (Report.fmt_ms [ p50_before ])
            (Report.fmt_ms [ p50_after ]);
        ])
      engines
  in
  Report.table
    ~headers:
      [ "scheme"; "tasks"; "dead"; "hot chain"; "bytes"; "hot scan p50" ]
    ~rows;
  let stamp =
    let tm = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d%02d%02d_%02d%02d%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let doc =
    Report.J_obj
      [
        ("schema", Report.J_str "decibel-maint-v1");
        ("timestamp", Report.J_str stamp);
        ("scale", Report.J_int Config.scale);
        ("schemes", Report.J_obj (List.rev !scheme_docs));
      ]
  in
  let path = Printf.sprintf "BENCH_%s.maint.json" stamp in
  let oc = open_out path in
  output_string oc (Report.json_to_string doc);
  output_char oc '\n';
  close_out oc;
  Report.note "wrote %s" path;
  if not !all_ok then begin
    Printf.eprintf
      "maint bench: maintenance failed to improve the storage report\n%!";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Profiler overhead: Q1 latency with and without the request profiler
   (Database.profile) per scheme.  The tracing layer's budget is < 5%
   on the median; exceed it and the run fails.  Writes
   BENCH_<stamp>.prof.json with per-scheme medians plus one captured
   profile tree each, so the overhead claim ships with the evidence. *)

let prof_overhead () =
  Report.section
    "Profiler overhead — Q1 profiled vs unprofiled (< 5% median budget)";
  Obs.set_enabled true;
  let cfg = Config.default in
  let repeat = 7 in
  let budget_pct = 5.0 in
  (* sub-millisecond medians put 5% well inside clock jitter at small
     scales, so a breach must also clear an absolute 20 us delta *)
  let noise_floor_s = 20e-6 in
  let results =
    List.map
      (fun (ename, scheme) ->
        let l = load ~scheme_name:ename ~scheme Strategy.Flat cfg in
        let db = l.Driver.db in
        let bid =
          Driver.branch_id db (Workload.role_exn l.Driver.workload "child")
        in
        let run () = ignore (Query.q1_scan db bid) in
        let run_profiled () =
          ignore (Database.profile ~label:("q1-" ^ ename) db run)
        in
        (* interleave the two measurements in two blocks each, so clock
           drift and buffer-pool state hit both sides equally *)
        let plain1 = Driver.measure ~repeat l run in
        let prof1 = Driver.measure ~repeat l run_profiled in
        let plain2 = Driver.measure ~repeat l run in
        let prof2 = Driver.measure ~repeat l run_profiled in
        let plain = plain1 @ plain2 and prof = prof1 @ prof2 in
        let p50_plain = Report.percentile plain 0.50 in
        let p50_prof = Report.percentile prof 0.50 in
        let overhead_pct =
          if p50_plain <= 0. then 0.
          else (p50_prof -. p50_plain) /. p50_plain *. 100.
        in
        let over_budget =
          overhead_pct > budget_pct && p50_prof -. p50_plain > noise_floor_s
        in
        let sample_profile =
          match Database.last_profile db with
          | Some p -> Obs.Prof.profile_json p
          | None -> "null"
        in
        Report.note "%s: plain p50 %s  profiled p50 %s  overhead %+.2f%%%s"
          ename
          (Report.fmt_ms [ p50_plain ])
          (Report.fmt_ms [ p50_prof ])
          overhead_pct
          (if over_budget then "  OVER BUDGET" else "");
        Driver.close l;
        let entry =
          Report.J_obj
            [
              ("plain_p50_ms", Report.J_float (p50_plain *. 1e3));
              ("profiled_p50_ms", Report.J_float (p50_prof *. 1e3));
              ("overhead_pct", Report.J_float overhead_pct);
              ("over_budget", Report.J_raw (if over_budget then "true" else "false"));
              ("sample_profile", Report.J_raw sample_profile);
            ]
        in
        (ename, entry, over_budget))
      engines
  in
  let stamp =
    let tm = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d%02d%02d_%02d%02d%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let doc =
    Report.J_obj
      [
        ("schema", Report.J_str "decibel-prof-overhead-v1");
        ("timestamp", Report.J_str stamp);
        ("scale", Report.J_int Config.scale);
        ("repeat", Report.J_int (2 * repeat));
        ("budget_pct", Report.J_float budget_pct);
        ( "schemes",
          Report.J_obj (List.map (fun (e, j, _) -> (e, j)) results) );
      ]
  in
  let path = Printf.sprintf "BENCH_%s.prof.json" stamp in
  let oc = open_out path in
  output_string oc (Report.json_to_string doc);
  output_char oc '\n';
  close_out oc;
  Report.note "wrote %s" path;
  let breaches = List.filter (fun (_, _, over) -> over) results in
  if breaches <> [] then begin
    Printf.eprintf "profiler overhead over %.1f%% budget: %s\n%!" budget_pct
      (String.concat ", " (List.map (fun (e, _, _) -> e) breaches));
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Storage advisor: not a paper artifact — the workload-vs-storage
   walkthrough in EXPERIMENTS.md.  A skewed scan mix over three
   branches of a version-first store (hot and cold both sitting on
   long delta chains, plus a quiet mainline) must drive the advisor to
   recommend materializing the hot branch while leaving the cold one
   on deltas — the measured form of the recreation/storage tradeoff.
   Writes BENCH_<stamp>.advise.json; a wrong or missing recommendation
   fails the process. *)

module ObsWl = Decibel_obs.Workload
module Advisor = Decibel_obs.Advisor

let advise_bench () =
  Report.section
    "Advise — storage advisor on a skewed branch workload (VF, long chains)";
  Obs.set_enabled true;
  ObsWl.reset ();
  incr load_counter;
  let dir = fresh_dir (Printf.sprintf "advise-%d" !load_counter) in
  Fsutil.mkdir_p dir;
  let cfg = Config.default in
  let db =
    Database.open_ ~scheme:Database.Version_first ~dir
      ~schema:(Config.schema cfg) ()
  in
  let key = ref 0 in
  let insert_batch b n =
    for _ = 1 to n do
      incr key;
      Database.insert db b (Driver.tuple_of_key cfg !key)
    done
  in
  insert_batch Vg.master (50 * Config.scale);
  let _base = Database.commit db Vg.master ~message:"base" in
  (* version-first opens one segment per branch and a scan replays the
     whole branch lineage, so a stack of branches is what builds a long
     delta chain (depth fragments per read) *)
  let grow name depth =
    let rec go parent i =
      let nm = if i = depth then name else Printf.sprintf "%s-%d" name i in
      let b = Database.branch_from db ~name:nm ~of_branch:parent in
      insert_batch b (20 * Config.scale);
      ignore (Database.commit db b ~message:nm);
      if i = depth then b else go b (i + 1)
    in
    go Vg.master 1
  in
  let hot = grow "hot" 6 and cold = grow "cold" 6 in
  (* skew: hot absorbs almost all the reads, cold sees one *)
  for _ = 1 to 40 do
    Database.scan db hot (fun _ -> ())
  done;
  Database.scan db cold (fun _ -> ());
  Database.scan db Vg.master (fun _ -> ());
  let recs = Database.advise db in
  List.iter
    (fun r ->
      Report.note "%s %s: %s"
        (Advisor.kind_name r.Advisor.rc_kind)
        r.Advisor.rc_target r.Advisor.rc_reason)
    recs;
  let is_materialize target r =
    r.Advisor.rc_kind = Advisor.Materialize && r.Advisor.rc_target = target
  in
  let hot_flagged = List.exists (is_materialize "hot") recs in
  let cold_on_deltas = not (List.exists (is_materialize "cold") recs) in
  let workload_json = ObsWl.to_json (Database.workload db) in
  Database.close db;
  let stamp =
    let tm = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d%02d%02d_%02d%02d%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let doc =
    Report.J_obj
      [
        ("schema", Report.J_str "decibel-advise-v1");
        ("timestamp", Report.J_str stamp);
        ("scale", Report.J_int Config.scale);
        ("config", Report.J_str (Format.asprintf "%a" Config.pp cfg));
        ("workload", Report.J_raw workload_json);
        ("recommendations", Report.J_raw (Advisor.to_json recs));
        ( "assertions",
          Report.J_obj
            [
              ( "hot_materialize",
                Report.J_raw (if hot_flagged then "true" else "false") );
              ( "cold_on_deltas",
                Report.J_raw (if cold_on_deltas then "true" else "false") );
            ] );
      ]
  in
  let path = Printf.sprintf "BENCH_%s.advise.json" stamp in
  let oc = open_out path in
  output_string oc (Report.json_to_string doc);
  output_char oc '\n';
  close_out oc;
  Report.note "wrote %s" path;
  if not (hot_flagged && cold_on_deltas) then begin
    Printf.eprintf
      "advise bench: expected materialize(hot) and cold on deltas \
       (hot_materialize=%b cold_on_deltas=%b)\n%!"
      hot_flagged cold_on_deltas;
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
    ("obs", obs_report);
    ("scale", scale_bench);
    ("shed", shed_bench);
    ("profoverhead", prof_overhead);
    ("advise", advise_bench);
    ("crash", crash);
    ("maint", maint_bench);
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
  let wanted name =
    match only with
    | None -> true
    | Some names ->
        List.exists
          (fun n ->
            n = name
            || (match List.assoc_opt n aliases with
               | Some target -> target = name
               | None -> false))
          names
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
