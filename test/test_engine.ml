(* Behavioural tests for the versioned storage engines.  Every test in
   [engine_cases] runs against all three physical schemes (plus the
   tuple-oriented bitmap variant and the model oracle), so the suite
   checks the engines agree on the paper's semantics (§2.2.3). *)

open Decibel
open Decibel_storage
module Vg = Decibel_graph.Version_graph

let schema = Schema.ints ~name:"r" ~width:4

let row k a b c =
  [| Value.int k; Value.int a; Value.int b; Value.int c |]

let key k = Value.int k

let with_db ?(compress = false) scheme f =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-test" in
  let db = Database.open_ ~compress ~scheme ~dir ~schema () in
  Fun.protect
    ~finally:(fun () ->
      Database.close db;
      Decibel_util.Fsutil.rm_rf dir)
    (fun () -> f db)

let sorted_tuples l =
  List.sort compare (List.map (fun t -> Array.to_list t) l)

let check_contents ?(msg = "contents") db b expected =
  let got = sorted_tuples (Database.scan_list db b) in
  let want = sorted_tuples expected in
  Alcotest.(check (list (list (testable Value.pp Value.equal)))) msg want got

let check_version_contents ?(msg = "version contents") db v expected =
  let got = sorted_tuples (Database.scan_version_list db v) in
  let want = sorted_tuples expected in
  Alcotest.(check (list (list (testable Value.pp Value.equal)))) msg want got

(* ------------------------------------------------------------------ *)

let test_insert_scan db =
  let b = Vg.master in
  Database.insert db b (row 1 10 20 30);
  Database.insert db b (row 2 11 21 31);
  check_contents db b [ row 1 10 20 30; row 2 11 21 31 ]

let test_update_delete db =
  let b = Vg.master in
  Database.insert db b (row 1 10 20 30);
  Database.insert db b (row 2 11 21 31);
  Database.update db b (row 1 99 20 30);
  Database.delete db b (key 2);
  check_contents db b [ row 1 99 20 30 ];
  Alcotest.check_raises "dup insert" (Types.Engine_error "")
    (fun () ->
      try Database.insert db b (row 1 0 0 0)
      with Types.Engine_error _ -> raise (Types.Engine_error ""));
  Alcotest.check_raises "absent update" (Types.Engine_error "")
    (fun () ->
      try Database.update db b (row 7 0 0 0)
      with Types.Engine_error _ -> raise (Types.Engine_error ""))

let test_lookup db =
  let b = Vg.master in
  Database.insert db b (row 5 1 2 3);
  (match Database.lookup db b (key 5) with
  | Some t -> Alcotest.(check bool) "found" true (Tuple.equal t (row 5 1 2 3))
  | None -> Alcotest.fail "lookup miss");
  Alcotest.(check bool) "absent" true (Database.lookup db b (key 9) = None)

let test_branch_isolation db =
  let m = Vg.master in
  Database.insert db m (row 1 10 0 0);
  Database.insert db m (row 2 20 0 0);
  let v1 = Database.commit db m ~message:"base" in
  let child = Database.create_branch db ~name:"child" ~from:v1 in
  (* modifications in the child are invisible to the parent and vice
     versa (§2.2.3 Branch) *)
  Database.insert db child (row 3 30 0 0);
  Database.update db child (row 1 99 0 0);
  Database.insert db m (row 4 40 0 0);
  check_contents ~msg:"child" db child
    [ row 1 99 0 0; row 2 20 0 0; row 3 30 0 0 ];
  check_contents ~msg:"master" db m
    [ row 1 10 0 0; row 2 20 0 0; row 4 40 0 0 ]

let test_commit_immutable db =
  let m = Vg.master in
  Database.insert db m (row 1 1 1 1);
  let v1 = Database.commit db m ~message:"one" in
  Database.update db m (row 1 2 2 2);
  Database.insert db m (row 2 5 5 5);
  let v2 = Database.commit db m ~message:"two" in
  Database.delete db m (key 1);
  check_version_contents ~msg:"v1" db v1 [ row 1 1 1 1 ];
  check_version_contents ~msg:"v2" db v2 [ row 1 2 2 2; row 2 5 5 5 ];
  check_contents ~msg:"head" db m [ row 2 5 5 5 ];
  check_version_contents ~msg:"root empty" db Vg.root_version []

let test_branch_from_old_commit db =
  let m = Vg.master in
  Database.insert db m (row 1 1 0 0);
  let v1 = Database.commit db m ~message:"v1" in
  Database.insert db m (row 2 2 0 0);
  let _v2 = Database.commit db m ~message:"v2" in
  Database.insert db m (row 3 3 0 0);
  (* branch rooted at the historical commit sees only its state *)
  let old = Database.create_branch db ~name:"old" ~from:v1 in
  check_contents ~msg:"old branch" db old [ row 1 1 0 0 ];
  Database.insert db old (row 9 9 0 0);
  check_contents ~msg:"old branch after insert" db old
    [ row 1 1 0 0; row 9 9 0 0 ];
  check_contents ~msg:"master untouched" db m
    [ row 1 1 0 0; row 2 2 0 0; row 3 3 0 0 ]

let test_diff db =
  let m = Vg.master in
  Database.insert db m (row 1 1 0 0);
  Database.insert db m (row 2 2 0 0);
  let v = Database.commit db m ~message:"base" in
  let b = Database.create_branch db ~name:"b" ~from:v in
  Database.update db b (row 2 99 0 0);
  Database.insert db b (row 3 3 0 0);
  Database.delete db m (key 1);
  let pos = ref [] and neg = ref [] in
  Database.diff db m b
    ~pos:(fun t -> pos := t :: !pos)
    ~neg:(fun t -> neg := t :: !neg);
  (* master: {2(old)}; b: {1, 2(new), 3} *)
  Alcotest.(check (list (list (testable Value.pp Value.equal))))
    "pos" (sorted_tuples [ row 2 2 0 0 ]) (sorted_tuples !pos);
  Alcotest.(check (list (list (testable Value.pp Value.equal))))
    "neg"
    (sorted_tuples [ row 1 1 0 0; row 2 99 0 0; row 3 3 0 0 ])
    (sorted_tuples !neg)

let test_multi_scan db =
  let m = Vg.master in
  Database.insert db m (row 1 1 0 0);
  Database.insert db m (row 2 2 0 0);
  let v = Database.commit db m ~message:"base" in
  let b = Database.create_branch db ~name:"b" ~from:v in
  Database.update db b (row 2 99 0 0);
  Database.insert db b (row 3 3 0 0);
  (* reduce the annotated output to per-branch multisets *)
  let per_branch = Hashtbl.create 8 in
  Database.multi_scan db [ m; b ] (fun (a : Types.annotated) ->
      List.iter
        (fun br ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt per_branch br)
          in
          Hashtbl.replace per_branch br (a.Types.tuple :: prev))
        a.Types.in_branches);
  let check_branch br expected =
    let got =
      sorted_tuples (Option.value ~default:[] (Hashtbl.find_opt per_branch br))
    in
    Alcotest.(check (list (list (testable Value.pp Value.equal))))
      (Printf.sprintf "branch %d" br)
      (sorted_tuples expected) got
  in
  check_branch m [ row 1 1 0 0; row 2 2 0 0 ];
  check_branch b [ row 1 1 0 0; row 2 99 0 0; row 3 3 0 0 ]

let test_merge_theirs_only db =
  let m = Vg.master in
  Database.insert db m (row 1 1 0 0);
  let v = Database.commit db m ~message:"base" in
  let b = Database.create_branch db ~name:"dev" ~from:v in
  Database.insert db b (row 2 2 0 0);
  Database.update db b (row 1 5 0 0);
  let _ = Database.commit db b ~message:"dev work" in
  let r =
    Database.merge db ~into:m ~from:b ~policy:Types.Three_way ~message:"m"
  in
  Alcotest.(check int) "no conflicts" 0 (List.length r.Types.conflicts);
  check_contents db m [ row 1 5 0 0; row 2 2 0 0 ];
  (* merged version is the new head of master and scannable *)
  check_version_contents db r.Types.merge_version
    [ row 1 5 0 0; row 2 2 0 0 ]

let test_merge_field_level db =
  let m = Vg.master in
  Database.insert db m (row 1 10 20 30);
  let v = Database.commit db m ~message:"base" in
  let b = Database.create_branch db ~name:"dev" ~from:v in
  (* ours changes field 1; theirs changes field 3: disjoint, automerge *)
  Database.update db m (row 1 99 20 30);
  Database.update db b (row 1 10 20 77);
  let _ = Database.commit db b ~message:"dev" in
  let r =
    Database.merge db ~into:m ~from:b ~policy:Types.Three_way ~message:"m"
  in
  Alcotest.(check int) "no conflicts" 0 (List.length r.Types.conflicts);
  check_contents db m [ row 1 99 20 77 ]

let test_merge_conflict_precedence db =
  let m = Vg.master in
  Database.insert db m (row 1 10 20 30);
  let v = Database.commit db m ~message:"base" in
  let b = Database.create_branch db ~name:"dev" ~from:v in
  (* both change field 1: conflicting field, destination precedence *)
  Database.update db m (row 1 111 20 30);
  Database.update db b (row 1 222 20 99);
  let _ = Database.commit db b ~message:"dev" in
  let r =
    Database.merge db ~into:m ~from:b ~policy:Types.Three_way ~message:"m"
  in
  Alcotest.(check int) "one conflict" 1 (List.length r.Types.conflicts);
  let c = List.hd r.Types.conflicts in
  Alcotest.(check (list int)) "conflicting fields" [ 1 ] c.Types.fields;
  (* conflicting field from ours, non-conflicting theirs change kept *)
  check_contents db m [ row 1 111 20 99 ]

let test_merge_two_way db =
  let m = Vg.master in
  Database.insert db m (row 1 10 0 0);
  Database.insert db m (row 2 20 0 0);
  let v = Database.commit db m ~message:"base" in
  let b = Database.create_branch db ~name:"dev" ~from:v in
  Database.update db m (row 1 11 0 0);
  Database.update db b (row 1 12 0 0);
  Database.update db b (row 2 22 0 0);
  let _ = Database.commit db b ~message:"dev" in
  let r =
    Database.merge db ~into:m ~from:b ~policy:Types.Theirs ~message:"m"
  in
  Alcotest.(check int) "conflict count" 1 (List.length r.Types.conflicts);
  (* theirs precedence: both keys take dev's state *)
  check_contents db m [ row 1 12 0 0; row 2 22 0 0 ]

let test_merge_delete_vs_modify db =
  let m = Vg.master in
  Database.insert db m (row 1 10 0 0);
  let v = Database.commit db m ~message:"base" in
  let b = Database.create_branch db ~name:"dev" ~from:v in
  Database.delete db m (key 1);
  Database.update db b (row 1 99 0 0);
  let _ = Database.commit db b ~message:"dev" in
  let r =
    Database.merge db ~into:m ~from:b ~policy:Types.Three_way ~message:"m"
  in
  Alcotest.(check int) "conflict" 1 (List.length r.Types.conflicts);
  (* destination precedence: stays deleted *)
  check_contents db m []

let test_merge_then_continue db =
  (* repeated merges with continued work on both sides: exercises LCAs
     that sit inside segment files and merge-commit lineage *)
  let m = Vg.master in
  Database.insert db m (row 1 1 0 0);
  let v = Database.commit db m ~message:"base" in
  let b = Database.create_branch db ~name:"dev" ~from:v in
  Database.insert db b (row 2 2 0 0);
  let _ = Database.commit db b ~message:"dev1" in
  let _ =
    Database.merge db ~into:m ~from:b ~policy:Types.Three_way ~message:"m1"
  in
  check_contents ~msg:"after m1" db m [ row 1 1 0 0; row 2 2 0 0 ];
  (* continue on dev, then merge again *)
  Database.update db b (row 2 22 0 0);
  Database.insert db b (row 3 3 0 0);
  let _ = Database.commit db b ~message:"dev2" in
  Database.update db m (row 1 11 0 0);
  let _ =
    Database.merge db ~into:m ~from:b ~policy:Types.Three_way ~message:"m2"
  in
  check_contents ~msg:"after m2" db m
    [ row 1 11 0 0; row 2 22 0 0; row 3 3 0 0 ];
  (* dev unaffected by merges into master *)
  check_contents ~msg:"dev" db b [ row 1 1 0 0; row 2 22 0 0; row 3 3 0 0 ]

let test_deep_chain db =
  (* deep branching strategy in miniature: a chain of branches, each
     built from the previous head *)
  let prev_branch = ref Vg.master in
  for i = 1 to 8 do
    Database.insert db !prev_branch (row (100 + i) i 0 0);
    let v =
      Database.commit db !prev_branch
        ~message:(Printf.sprintf "level %d" i)
    in
    let nb =
      Database.create_branch db ~name:(Printf.sprintf "deep%d" i) ~from:v
    in
    prev_branch := nb
  done;
  Alcotest.(check int) "tail size" 8 (Database.count db !prev_branch)

let test_flat_fanout db =
  let m = Vg.master in
  for i = 1 to 5 do
    Database.insert db m (row i i 0 0)
  done;
  let v = Database.commit db m ~message:"base" in
  let children =
    List.init 6 (fun i ->
        Database.create_branch db ~name:(Printf.sprintf "flat%d" i) ~from:v)
  in
  List.iteri
    (fun i c -> Database.insert db c (row (100 + i) i 0 0))
    children;
  List.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "child %d" i) 6
        (Database.count db c))
    children;
  Alcotest.(check int) "master" 5 (Database.count db m)

let test_update_all db =
  let m = Vg.master in
  for i = 1 to 10 do
    Database.insert db m (row i i 0 0)
  done;
  let before = Database.dataset_bytes db in
  let n =
    Database.update_all db m (fun t ->
        let t' = Array.copy t in
        t'.(1) <- Value.int 777;
        t')
  in
  Alcotest.(check int) "touched" 10 n;
  let after = Database.dataset_bytes db in
  (* the in-memory model does not track bytes; physical engines must
     grow by roughly the branch size (full record copies, §5.5) *)
  if Database.scheme_of db <> "model" then
    Alcotest.(check bool) "dataset grew" true (after > before);
  Database.scan db m (fun t ->
      Alcotest.(check bool) "updated" true (Value.equal t.(1) (Value.int 777)))

(* the list conveniences return rows in the order the callbacks see
   them *)
let test_scan_list_order db =
  let m = Vg.master in
  Database.insert db m (row 0 0 0 0);
  Database.insert db m (row 1 1 0 0);
  let v = Database.commit db m ~message:"two rows" in
  let emitted scan =
    let acc = ref [] in
    scan (fun t -> acc := Array.to_list t :: !acc);
    List.rev !acc
  in
  let check msg want got =
    Alcotest.(check (list (list (testable Value.pp Value.equal))))
      msg want (List.map Array.to_list got)
  in
  check "scan_list = scan order" (emitted (Database.scan db m))
    (Database.scan_list db m);
  check "scan_version_list = scan_version order"
    (emitted (Database.scan_version db v))
    (Database.scan_version_list db v)

let engine_cases =
  [
    ("insert-scan", test_insert_scan);
    ("update-delete", test_update_delete);
    ("lookup", test_lookup);
    ("branch-isolation", test_branch_isolation);
    ("commit-immutable", test_commit_immutable);
    ("branch-from-old-commit", test_branch_from_old_commit);
    ("diff", test_diff);
    ("multi-scan", test_multi_scan);
    ("merge-theirs-only", test_merge_theirs_only);
    ("merge-field-level", test_merge_field_level);
    ("merge-conflict-precedence", test_merge_conflict_precedence);
    ("merge-two-way", test_merge_two_way);
    ("merge-delete-vs-modify", test_merge_delete_vs_modify);
    ("merge-then-continue", test_merge_then_continue);
    ("deep-chain", test_deep_chain);
    ("flat-fanout", test_flat_fanout);
    ("update-all", test_update_all);
    ("scan-list-order", test_scan_list_order);
  ]

let suite_for ?(compress = false) scheme =
  ( (Database.scheme_name scheme ^ if compress then " (compressed)" else ""),
    List.map
      (fun (name, f) ->
        Alcotest.test_case name `Quick (fun () -> with_db ~compress scheme f))
      engine_cases )

let () =
  Alcotest.run "engines"
    (List.map suite_for
       [
         Database.Tuple_first;
         Database.Tuple_first_tuple_oriented;
         Database.Version_first;
         Database.Hybrid;
         Database.Model;
       ]
    (* the same behavioural suite with record compression on (§5.5):
       the codec must be invisible to semantics *)
    @ List.map
        (fun s -> suite_for ~compress:true s)
        [ Database.Tuple_first; Database.Version_first; Database.Hybrid ])
