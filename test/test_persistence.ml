(* Persistence tests: repositories survive close + reopen for every
   physical scheme — contents, historical versions, the version graph,
   and the ability to keep working (including merges) afterwards.  Also
   a property test: closing and reopening at a random point of a random
   operation sequence leaves the database equivalent to one that never
   closed. *)

open Decibel
open Decibel_storage
module Vg = Decibel_graph.Version_graph

let schema = Schema.ints ~name:"r" ~width:4

let row k a = [| Value.int k; Value.int a; Value.int 0; Value.int 0 |]

let schemes =
  [
    Database.Tuple_first;
    Database.Tuple_first_tuple_oriented;
    Database.Version_first;
    Database.Hybrid;
  ]

let contents db b =
  List.sort compare (List.map Array.to_list (Database.scan_list db b))

let version_contents db v =
  List.sort compare (List.map Array.to_list (Database.scan_version_list db v))

let test_reopen_roundtrip scheme () =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-persist" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      let db = Database.open_ ~scheme ~dir ~schema () in
      Database.insert db Vg.master (row 1 10);
      Database.insert db Vg.master (row 2 20);
      let v1 = Database.commit db Vg.master ~message:"v1" in
      let dev = Database.create_branch db ~name:"dev" ~from:v1 in
      Database.update db dev (row 1 99);
      Database.insert db dev (row 3 30);
      let _ = Database.commit db dev ~message:"dev" in
      Database.delete db Vg.master (Value.int 2);
      (* leave master dirty on purpose: working state must persist *)
      let master_before = contents db Vg.master in
      let dev_before = contents db dev in
      let v1_before = version_contents db v1 in
      Database.close db;

      (* scheme auto-detected from the manifest *)
      let db2 = Database.reopen ~dir () in
      Alcotest.(check bool) "master contents" true
        (contents db2 Vg.master = master_before);
      Alcotest.(check bool) "dev contents" true (contents db2 dev = dev_before);
      Alcotest.(check bool) "v1 contents" true
        (version_contents db2 v1 = v1_before);
      Alcotest.(check bool) "lookup" true
        (Database.lookup db2 dev (Value.int 1) <> None);
      (* graph survived *)
      Alcotest.(check int) "branches" 2
        (Vg.branch_count (Database.graph db2));

      (* keep working: modify, merge, commit, branch from old commit *)
      Database.insert db2 Vg.master (row 9 90);
      let r =
        Database.merge db2 ~into:Vg.master ~from:dev ~policy:Types.Three_way
          ~message:"merge after reopen"
      in
      Alcotest.(check int) "merge conflicts" 0 (List.length r.Types.conflicts);
      let old = Database.create_branch db2 ~name:"old" ~from:v1 in
      Alcotest.(check bool) "branch from historical commit" true
        (contents db2 old = v1_before);
      Database.close db2)

(* double reopen: persistence is stable across multiple cycles *)
let test_reopen_twice scheme () =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-persist2" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      let db = Database.open_ ~scheme ~dir ~schema () in
      Database.insert db Vg.master (row 1 1);
      let _ = Database.commit db Vg.master ~message:"a" in
      Database.close db;
      let db = Database.reopen ~dir () in
      Database.insert db Vg.master (row 2 2);
      let v = Database.commit db Vg.master ~message:"b" in
      Database.close db;
      let db = Database.reopen ~dir () in
      Alcotest.(check int) "count" 2
        (let n = ref 0 in
         Database.scan db Vg.master (fun _ -> incr n);
         !n);
      Alcotest.(check int) "versions survive" 2
        (let n = ref 0 in
         Database.scan_version db v (fun _ -> incr n);
         !n);
      Database.close db)

(* compression survives close/reopen: the flag is in the manifest and
   compressed payloads must decode identically *)
let test_reopen_compressed scheme () =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-persist-comp" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      let db = Database.open_ ~compress:true ~scheme ~dir ~schema () in
      for i = 1 to 30 do
        Database.insert db Vg.master (row i (i mod 4))
      done;
      let v = Database.commit db Vg.master ~message:"c" in
      let before = contents db Vg.master in
      Database.close db;
      let db2 = Database.reopen ~dir () in
      Alcotest.(check bool) "contents" true (contents db2 Vg.master = before);
      Alcotest.(check bool) "version" true
        (version_contents db2 v = before);
      (* new writes after reopen keep compressing and reading back *)
      Database.insert db2 Vg.master (row 99 1);
      Alcotest.(check bool) "post-reopen write" true
        (Database.lookup db2 Vg.master (Value.int 99) <> None);
      Database.close db2)

let test_reopen_missing () =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-persist3" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      match Database.reopen ~dir () with
      | exception Types.Engine_error _ -> ()
      | _ -> Alcotest.fail "expected Engine_error for empty dir")

(* every physical scheme refuses an empty directory the same way,
   whether or not the caller names the scheme *)
let test_reopen_missing_scheme () =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-persist4" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      List.iter
        (fun scheme ->
          match Database.reopen ~scheme ~dir () with
          | exception Types.Engine_error _ -> ()
          | exception e ->
              Alcotest.failf "%s: expected Engine_error, got %s"
                (Database.scheme_name scheme) (Printexc.to_string e)
          | _ ->
              Alcotest.failf "%s: empty directory opened"
                (Database.scheme_name scheme))
        [
          Database.Tuple_first;
          Database.Tuple_first_tuple_oriented;
          Database.Version_first;
          Database.Hybrid;
        ])

(* property: close+reopen at a random cut point ≡ never closing *)
let reopen_equivalence scheme (cmds, cut_hint) =
  let dir1 = Decibel_util.Fsutil.fresh_dir "decibel-pp1" in
  let dir2 = Decibel_util.Fsutil.fresh_dir "decibel-pp2" in
  Fun.protect
    ~finally:(fun () ->
      Decibel_util.Fsutil.rm_rf dir1;
      Decibel_util.Fsutil.rm_rf dir2)
    (fun () ->
      let n = List.length cmds in
      let cut = if n = 0 then 0 else cut_hint mod (n + 1) in
      let before = List.filteri (fun i _ -> i < cut) cmds in
      let after = List.filteri (fun i _ -> i >= cut) cmds in
      (* continuous run *)
      let db1 = Database.open_ ~scheme ~dir:dir1 ~schema:Cmds.schema () in
      Cmds.apply_cmds db1 cmds;
      (* interrupted run *)
      let db2 = Database.open_ ~scheme ~dir:dir2 ~schema:Cmds.schema () in
      Cmds.apply_cmds db2 before;
      Database.close db2;
      let db2 = Database.reopen ~dir:dir2 () in
      Cmds.apply_cmds ~branch_offset:(Vg.branch_count (Database.graph db2) - 1)
        db2 after;
      let g = Database.graph db1 in
      let ok = ref true in
      if Vg.serialize g <> Vg.serialize (Database.graph db2) then ok := false;
      for b = 0 to Vg.branch_count g - 1 do
        if contents db1 b <> contents db2 b then ok := false
      done;
      for v = 0 to Vg.version_count g - 1 do
        if version_contents db1 v <> version_contents db2 v then ok := false
      done;
      Database.close db1;
      Database.close db2;
      if not !ok then
        QCheck2.Test.fail_reportf "reopen divergence on %s (cut %d): %s"
          (Database.scheme_name scheme) cut (Cmds.print_cmds cmds);
      true)

let reopen_prop scheme =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "close+reopen mid-sequence == continuous: %s"
         (Database.scheme_name scheme))
    ~count:40
    ~print:(fun (cmds, cut) ->
      Printf.sprintf "cut=%d; %s" cut (Cmds.print_cmds cmds))
    QCheck2.Gen.(pair Cmds.cmds_gen (int_bound 1000))
    (reopen_equivalence scheme)

let () =
  Alcotest.run "persistence"
    [
      ( "reopen",
        List.concat_map
          (fun scheme ->
            let n = Database.scheme_name scheme in
            [
              Alcotest.test_case (n ^ " roundtrip") `Quick
                (test_reopen_roundtrip scheme);
              Alcotest.test_case (n ^ " twice") `Quick
                (test_reopen_twice scheme);
              Alcotest.test_case (n ^ " compressed") `Quick
                (test_reopen_compressed scheme);
            ])
          schemes
        @ [
            Alcotest.test_case "missing repository" `Quick test_reopen_missing;
            Alcotest.test_case "missing repository, scheme given" `Quick
              test_reopen_missing_scheme;
          ]
      );
      ( "reopen-equivalence",
        List.map
          (fun s -> QCheck_alcotest.to_alcotest (reopen_prop s))
          schemes );
    ]
