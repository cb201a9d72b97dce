(* What a hybrid operation costs, and that it stays correct while it
   pays only for what changed:

   - diff is a join inside the XOR set: its output matches the model
     oracle, each side in the engine's own scan order, at 0 and 4
     domains; and it decodes no block that holds no XOR row;
   - a commit records only the segments that changed;
   - commit histories reach disk at checkpoints and hold no descriptor
     in between, so a repository with more histories than a descriptor
     budget still commits, flushes, reopens and scans;
   - a crash between a commit and the next checkpoint recovers to the
     oracle's state, and every history file then holds exactly the
     records a crash-free run writes (tuple-first shares the history
     code, so it is covered too);
   - commit metadata bytes do not depend on whether histories have been
     flushed yet. *)

open Decibel
open Decibel_storage
open Cmds
module Par = Decibel_par.Par
module Obs = Decibel_obs.Obs
module Fsutil = Decibel_util.Fsutil
module Binio = Decibel_util.Binio
module Vg = Decibel_graph.Version_graph

let with_dir prefix f =
  let dir = Fsutil.fresh_dir prefix in
  Fun.protect ~finally:(fun () -> Fsutil.rm_rf dir) (fun () -> f dir)

let with_domains n f =
  let saved = Par.domain_count () in
  Par.set_domain_count n;
  Fun.protect ~finally:(fun () -> Par.set_domain_count saved) f

let row4 k a b c = [| Value.int k; Value.int a; Value.int b; Value.int c |]
let schema4 = Schema.ints ~name:"r" ~width:4

(* ------------------------------------------------------------------ *)
(* Diff join *)

(* Values drawn from {0, 1, 2} make "updated to equal content on both
   sides" common; merges install the other branch's physical row, so
   branches share rows too. *)
let small_cmd_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun k v -> CInsert (k, v)) (int_bound 30) (int_bound 2));
        (5, map2 (fun k v -> CUpdate (k, v)) (int_bound 30) (int_bound 2));
        (2, map (fun k -> CDelete k) (int_bound 30));
        (3, map (fun b -> CCommit b) (int_bound 1000));
        (2, map (fun v -> CBranch v) (int_bound 1000));
        ( 2,
          map3
            (fun a b p -> CMerge (a, b, p))
            (int_bound 1000) (int_bound 1000) (int_bound 3) );
      ])

let tagged_diff db a b =
  let out = ref [] in
  Database.diff db a b
    ~pos:(fun t -> out := (true, Array.to_list t) :: !out)
    ~neg:(fun t -> out := (false, Array.to_list t) :: !out);
  List.rev !out

let side s l =
  List.filter_map (fun (s', t) -> if s' = s then Some t else None) l

(* in emission order *)
let scan_rows db b = List.map Array.to_list (Database.scan_list db b)

(* Each side's rows, in order, are the branch's own scan order
   (segments ascending, rows ascending) restricted to the oracle's
   diff, so the join keeps the order of the lookup-based diff. *)
let diff_matches_model domains cmds =
  with_domains domains @@ fun () ->
  with_dir "decibel-hy-diff" @@ fun dir ->
  let model =
    Database.open_ ~scheme:Database.Model ~dir:(Filename.concat dir "model")
      ~schema ()
  in
  let hy = Database.open_ ~scheme:Database.Hybrid ~dir ~schema () in
  Fun.protect
    ~finally:(fun () ->
      Database.close model;
      Database.close hy)
    (fun () ->
      apply_cmds model cmds;
      apply_cmds hy cmds;
      let nb = min 5 (Vg.branch_count (Database.graph hy)) in
      for a = 0 to nb - 1 do
        for b = 0 to nb - 1 do
          if a <> b then begin
            let m = tagged_diff model a b and h = tagged_diff hy a b in
            let check what expected got =
              if expected <> got then
                QCheck2.Test.fail_reportf "%s of diff %d %d differs" what a b
            in
            check "pos set" (List.sort compare (side true m))
              (List.sort compare (side true h));
            check "neg set" (List.sort compare (side false m))
              (List.sort compare (side false h));
            let keep set rows = List.filter (fun r -> List.mem r set) rows in
            check "pos order" (keep (side true m) (scan_rows hy a))
              (side true h);
            check "neg order" (keep (side false m) (scan_rows hy b))
              (side false h)
          end
        done
      done;
      true)

let diff_property domains =
  QCheck2.Test.make
    ~name:(Printf.sprintf "hybrid diff == model, %d domains" domains)
    ~count:80 ~print:print_cmds
    QCheck2.Gen.(list_size (int_range 1 80) small_cmd_gen)
    (diff_matches_model domains)

(* Two heads that rewrote the same 3000 keys in different orders: every
   live row of either is an XOR row, and each key's other copy sits in
   another block of the other head's segment.  The diff decodes each
   block that holds XOR rows once, not once per probe. *)
let test_diff_decode_count () =
  with_domains 0 @@ fun () ->
  with_dir "decibel-hy-decode" @@ fun dir ->
  let db = Database.open_ ~scheme:Database.Hybrid ~dir ~schema:schema4 () in
  Fun.protect ~finally:(fun () -> Database.close db) @@ fun () ->
  let n = 3000 in
  for k = 0 to n - 1 do
    Database.insert db Vg.master (row4 k 0 0 0)
  done;
  let v = Database.commit db Vg.master ~message:"base" in
  let child = Database.create_branch db ~name:"child" ~from:v in
  let sealed0 = Obs.value_of "colseg.blocks_sealed" in
  for i = 0 to n - 1 do
    (* the same content on both sides for even keys *)
    let k = i * 7 mod n in
    Database.update db child (row4 k 1 (k mod 2) 0);
    Database.update db Vg.master (row4 i 1 0 0)
  done;
  Database.flush db;
  let xor_blocks = Obs.value_of "colseg.blocks_sealed" - sealed0 in
  let before = Obs.value_of "colseg.blocks_decoded" in
  let pos = ref 0 and neg = ref 0 in
  Database.diff db child Vg.master
    ~pos:(fun _ -> incr pos)
    ~neg:(fun _ -> incr neg);
  let decoded = Obs.value_of "colseg.blocks_decoded" - before in
  Alcotest.(check (pair int int)) "odd keys differ" (n / 2, n / 2) (!pos, !neg);
  if decoded > xor_blocks then
    Alcotest.failf "diff decoded %d blocks; %d blocks hold XOR rows" decoded
      xor_blocks

(* ------------------------------------------------------------------ *)
(* Write path *)

(* A master whose live rows span [segs] segments: each clean-head
   branch freezes master's head segment and gives it a fresh one. *)
let spread_master db ~segs =
  for s = 0 to segs - 1 do
    for k = 0 to 4 do
      Database.insert db Vg.master (row4 ((s * 10) + k) s 0 0)
    done;
    let v = Database.commit db Vg.master ~message:"spread" in
    if s < segs - 1 then
      ignore (Database.create_branch db ~name:(Printf.sprintf "f%d" s) ~from:v)
  done

let test_commit_records_changed_segments () =
  with_dir "decibel-hy-snap" @@ fun dir ->
  let db = Database.open_ ~scheme:Database.Hybrid ~dir ~schema:schema4 () in
  Fun.protect ~finally:(fun () -> Database.close db) @@ fun () ->
  spread_master db ~segs:30;
  let records () = Obs.value_of "commit_history.commits" in
  let segments () =
    (List.hd (Database.storage_report db).Decibel_obs.Report.r_branches)
      .Decibel_obs.Report.br_segments
  in
  Alcotest.(check int) "master spans 30 segments" 30 (segments ());
  let before_rows = Database.scan_list db Vg.master in
  let before = records () in
  Database.insert db Vg.master (row4 9999 0 0 0);
  let v = Database.commit db Vg.master ~message:"one row" in
  Alcotest.(check int) "one history record" 1 (records () - before);
  (* an unchanged branch commits without any record *)
  let before = records () in
  let v' = Database.commit db Vg.master ~message:"nothing" in
  Alcotest.(check int) "no history record" 0 (records () - before);
  let sorted l = List.sort compare (List.map Array.to_list l) in
  let expect = sorted (row4 9999 0 0 0 :: before_rows) in
  Alcotest.(check bool) "checkout of the one-row commit" true
    (sorted (Database.scan_version_list db v) = expect);
  Alcotest.(check bool) "checkout of the empty commit" true
    (sorted (Database.scan_version_list db v') = expect)

let fd_dir = "/proc/self/fd"
let open_fds () = Array.length (Sys.readdir fd_dir)

let history_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.length f > 5 && String.sub f 0 5 = "hist_")
  |> List.sort compare

(* The budget covers the segment files (one descriptor each) with room
   to spare, but not one descriptor per history. *)
let test_descriptor_budget () =
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  with_dir "decibel-hy-fds" @@ fun dir ->
  let base = open_fds () in
  let budget = 100 in
  let check_budget what =
    let used = open_fds () - base in
    if used > budget then
      Alcotest.failf "%s: %d descriptors open, budget %d" what used budget
  in
  let db = Database.open_ ~scheme:Database.Hybrid ~dir ~schema:schema4 () in
  spread_master db ~segs:20;
  let heads = Database.heads db in
  (* a branch's first commit opens a history for every segment it
     inherits, the second one for its head segment *)
  List.iteri
    (fun i b ->
      ignore (Database.commit db b ~message:"inherit");
      check_budget "commit";
      List.iteri
        (fun j (t : Tuple.t) ->
          if j mod 3 = 0 then
            Database.update db b
              (row4 (Int64.to_int (Value.to_int_exn t.(0))) i 1 0))
        (Database.scan_list db b);
      ignore (Database.commit db b ~message:"touch");
      check_budget "commit")
    heads;
  Database.flush db;
  check_budget "flush";
  let n_hist = List.length (history_files dir) in
  if n_hist <= budget then
    Alcotest.failf "only %d histories, not more than the budget %d" n_hist
      budget;
  let expected = List.map (fun b -> (b, Database.scan_list db b)) heads in
  Database.close db;
  let db = Database.reopen ~dir () in
  Fun.protect ~finally:(fun () -> Database.close db) @@ fun () ->
  List.iter
    (fun (b, rows) ->
      Alcotest.(check int) "rows after reopen" (List.length rows)
        (List.length (Database.scan_list db b));
      ignore (Database.commit db b ~message:"again"))
  expected;
  List.iter
    (fun v -> ignore (Database.scan_version_list db v))
    (List.init (Vg.version_count (Database.graph db)) Fun.id);
  check_budget "reopen, commit and checkout"

let dir_bytes dir names =
  List.map (fun f -> (f, Binio.read_file (Filename.concat dir f))) names

let ops_before =
  [
    CInsert (1, 10); CInsert (2, 20); CInsert (3, 30); CCommit 0; CBranch 1;
    CUpdate (2, 21); CInsert (4, 40); CCommit 1; CCommit 0;
  ]

let ops_after =
  [
    CUpdate (3, 31); CInsert (5, 50); CCommit 0; CBranch 2; CInsert (6, 60);
    CCommit 1; CCommit 2; CMerge (0, 1, 2); CDelete 1; CCommit 0;
  ]

let test_crash_between_checkpoints scheme ~durable () =
  with_dir "decibel-wb-crash" @@ fun root ->
  let dir = Filename.concat root "db" in
  let ref_dir = Filename.concat root "ref" in
  let db = Database.open_ ~durable ~scheme ~dir ~schema () in
  apply_cmds db ops_before;
  Database.flush db;
  apply_cmds ~branch_offset:100 db ops_after;
  Database.crash db;
  let db = Database.reopen ~dir () in
  (* a crash-free run of what survives: everything logged when
     durable, the checkpoint otherwise *)
  let model =
    Database.open_ ~scheme:Database.Model ~dir:(Filename.concat root "model")
      ~schema ()
  in
  let reference = Database.open_ ~scheme ~dir:ref_dir ~schema () in
  List.iter
    (fun d ->
      apply_cmds d ops_before;
      Database.flush d;
      if durable then apply_cmds ~branch_offset:100 d ops_after)
    [ model; reference ];
  Alcotest.(check bool) "recovered == model" true
    (Torture.state_of db = Torture.state_of model);
  let g = Database.graph db in
  Alcotest.(check int) "versions" (Vg.version_count (Database.graph model))
    (Vg.version_count g);
  for v = 0 to Vg.version_count g - 1 do
    let rows d =
      List.sort compare
        (List.map Array.to_list (Database.scan_version_list d v))
    in
    if rows db <> rows model then
      Alcotest.failf "version %d differs from the model" v
  done;
  List.iter Database.close [ db; model; reference ];
  let hist = history_files dir in
  Alcotest.(check (list string)) "history files" (history_files ref_dir) hist;
  Alcotest.(check bool) "no history holds a record the manifest lacks" true
    (dir_bytes dir hist = dir_bytes ref_dir hist)

let test_meta_bytes_flush_invariant scheme () =
  with_dir "decibel-wb-meta" @@ fun dir ->
  let db = Database.open_ ~scheme ~dir ~schema () in
  Fun.protect ~finally:(fun () -> Database.close db) @@ fun () ->
  apply_cmds db (ops_before @ ops_after);
  let before = Database.commit_meta_bytes db in
  Database.flush db;
  Alcotest.(check int) "commit_meta_bytes across a flush" before
    (Database.commit_meta_bytes db);
  Alcotest.(check bool) "histories counted" true (before > 0)

let () =
  let both f =
    List.concat_map
      (fun (name, scheme) ->
        [
          Alcotest.test_case (name ^ ", not durable") `Quick
            (f scheme ~durable:false);
          Alcotest.test_case (name ^ ", durable") `Quick
            (f scheme ~durable:true);
        ])
      [ ("hybrid", Database.Hybrid); ("tuple-first", Database.Tuple_first) ]
  in
  Alcotest.run "hybrid"
    [
      ( "diff-join",
        [
          QCheck_alcotest.to_alcotest (diff_property 0);
          QCheck_alcotest.to_alcotest (diff_property 4);
          Alcotest.test_case "decode count" `Quick test_diff_decode_count;
        ] );
      ( "write-path",
        [
          Alcotest.test_case "one changed segment, one record" `Quick
            test_commit_records_changed_segments;
          Alcotest.test_case "descriptor budget" `Quick test_descriptor_budget;
        ]
        @ both test_crash_between_checkpoints
        @ [
            Alcotest.test_case "commit_meta_bytes across flush: hybrid" `Quick
              (test_meta_bytes_flush_invariant Database.Hybrid);
            Alcotest.test_case "commit_meta_bytes across flush: tuple-first"
              `Quick
              (test_meta_bytes_flush_invariant Database.Tuple_first);
          ] );
    ]
