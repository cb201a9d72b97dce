(* Tests for the index library: both bitmap layouts (against a common
   behavioural spec), the compressed commit history, and the per-branch
   primary-key index. *)

open Decibel_util
open Decibel_index
open Decibel_storage

let qtest t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Bitmap layouts: same test suite runs against both *)

module type BITMAP = Bitmap_intf.S

let bitmap_cases (module B : BITMAP) =
  let test_branch_clone () =
    let t = B.create () in
    let b0 = B.add_branch t ~from:None in
    let r0 = B.append_row t and r1 = B.append_row t in
    B.set t ~branch:b0 ~row:r0;
    B.set t ~branch:b0 ~row:r1;
    let b1 = B.add_branch t ~from:(Some b0) in
    Alcotest.(check bool) "cloned r0" true (B.get t ~branch:b1 ~row:r0);
    B.clear t ~branch:b1 ~row:r0;
    Alcotest.(check bool) "parent unaffected" true (B.get t ~branch:b0 ~row:r0);
    Alcotest.(check bool) "child cleared" false (B.get t ~branch:b1 ~row:r0)
  in
  let test_many_branches () =
    (* exceed the tuple-oriented initial capacity to force expansion *)
    let t = B.create () in
    let b0 = B.add_branch t ~from:None in
    let rows = List.init 20 (fun _ -> B.append_row t) in
    List.iteri (fun i r -> if i mod 2 = 0 then B.set t ~branch:b0 ~row:r) rows;
    let branches =
      List.init 20 (fun _ -> B.add_branch t ~from:(Some b0))
    in
    List.iter
      (fun b ->
        List.iteri
          (fun i r ->
            Alcotest.(check bool)
              (Printf.sprintf "b%d r%d" b r)
              (i mod 2 = 0)
              (B.get t ~branch:b ~row:r))
          rows)
      branches;
    Alcotest.(check int) "branch count" 21 (B.branch_count t)
  in
  let test_snapshot_immutable () =
    let t = B.create () in
    let b = B.add_branch t ~from:None in
    let r = B.append_row t in
    B.set t ~branch:b ~row:r;
    let snap = B.snapshot t ~branch:b in
    B.clear t ~branch:b ~row:r;
    Alcotest.(check bool) "snapshot keeps bit" true (Bitvec.get snap r);
    Alcotest.(check bool) "live cleared" false (B.get t ~branch:b ~row:r)
  in
  let test_overwrite_column () =
    let t = B.create () in
    let b = B.add_branch t ~from:None in
    let _ = B.append_row t and _ = B.append_row t and _ = B.append_row t in
    B.overwrite_column t ~branch:b (Bitvec.of_list [ 0; 2 ]);
    Alcotest.(check bool) "r0" true (B.get t ~branch:b ~row:0);
    Alcotest.(check bool) "r1" false (B.get t ~branch:b ~row:1);
    Alcotest.(check bool) "r2" true (B.get t ~branch:b ~row:2)
  in
  let test_row_membership () =
    let t = B.create () in
    let b0 = B.add_branch t ~from:None in
    let b1 = B.add_branch t ~from:None in
    let b2 = B.add_branch t ~from:None in
    let r = B.append_row t in
    B.set t ~branch:b0 ~row:r;
    B.set t ~branch:b2 ~row:r;
    ignore b1;
    Alcotest.(check (list int)) "membership" [ b0; b2 ]
      (B.row_membership t ~row:r)
  in
  [
    Alcotest.test_case "branch clone isolates" `Quick test_branch_clone;
    Alcotest.test_case "many branches / expansion" `Quick test_many_branches;
    Alcotest.test_case "snapshot immutable" `Quick test_snapshot_immutable;
    Alcotest.test_case "overwrite column" `Quick test_overwrite_column;
    Alcotest.test_case "row membership" `Quick test_row_membership;
  ]

(* layouts agree with each other on random operations *)
type bop = Add_branch of int option | Set of int * int | Clear of int * int

let bop_gen nbranches_hint =
  QCheck2.Gen.(
    frequency
      [
        (1, map (fun p -> Add_branch (if p mod 3 = 0 then None else Some p)) (int_bound nbranches_hint));
        (5, map2 (fun b r -> Set (b, r)) (int_bound 8) (int_bound 100));
        (2, map2 (fun b r -> Clear (b, r)) (int_bound 8) (int_bound 100));
      ])

let prop_layouts_agree =
  QCheck2.Test.make ~name:"branch- and tuple-oriented layouts agree"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) (bop_gen 8))
    (fun ops ->
      let a = Branch_bitmap.create () and b = Tuple_bitmap.create () in
      let apply (type tt) (module B : BITMAP with type t = tt) (t : tt) op =
        let nb = B.branch_count t in
        match op with
        | Add_branch None -> ignore (B.add_branch t ~from:None)
        | Add_branch (Some p) ->
            let from = if nb = 0 then None else Some (p mod nb) in
            ignore (B.add_branch t ~from)
        | Set (br, row) ->
            if nb > 0 then B.set t ~branch:(br mod nb) ~row
        | Clear (br, row) ->
            if nb > 0 then B.clear t ~branch:(br mod nb) ~row
      in
      List.iter
        (fun op ->
          apply (module Branch_bitmap) a op;
          apply (module Tuple_bitmap) b op)
        ops;
      if Branch_bitmap.branch_count a <> Tuple_bitmap.branch_count b then
        false
      else begin
        let ok = ref true in
        for br = 0 to Branch_bitmap.branch_count a - 1 do
          if
            not
              (Bitvec.equal
                 (Branch_bitmap.snapshot a ~branch:br)
                 (Tuple_bitmap.snapshot b ~branch:br))
          then ok := false
        done;
        !ok
      end)

(* ------------------------------------------------------------------ *)
(* Commit history *)

let with_history f =
  let dir = Fsutil.fresh_dir "decibel-hist" in
  let h = Commit_history.create ~path:(Filename.concat dir "h.chx") in
  Fun.protect ~finally:(fun () -> Fsutil.rm_rf dir) (fun () -> f dir h)

let test_history_checkout () =
  with_history (fun _dir h ->
      let snaps =
        List.init 50 (fun i ->
            Bitvec.of_list (List.init (i + 1) (fun j -> j * 3)))
      in
      let idxs = List.map (Commit_history.commit h) snaps in
      Alcotest.(check (list int)) "indices" (List.init 50 Fun.id) idxs;
      List.iteri
        (fun i snap ->
          Alcotest.(check bool)
            (Printf.sprintf "checkout %d" i)
            true
            (Bitvec.equal snap (Commit_history.checkout h i)))
        snaps)

let test_history_layering_bounds_replay () =
  with_history (fun _dir h ->
      for i = 0 to 99 do
        ignore (Commit_history.commit h (Bitvec.of_list [ i ]))
      done;
      (* with stride S, replay length is at most i/S + S *)
      for i = 0 to 99 do
        let r = Commit_history.replay_length h i in
        let s = Commit_history.layer_stride in
        Alcotest.(check bool)
          (Printf.sprintf "replay bound at %d" i)
          true
          (r <= (i / s) + s)
      done;
      (* far checkout strictly cheaper than replaying every delta *)
      Alcotest.(check bool) "layering helps" true
        (Commit_history.replay_length h 99 < 99))

let test_history_persistence () =
  let dir = Fsutil.fresh_dir "decibel-hist2" in
  let path = Filename.concat dir "h.chx" in
  let h = Commit_history.create ~path in
  let snaps =
    List.init 40 (fun i -> Bitvec.of_list (List.init i (fun j -> j * 2)))
  in
  List.iter (fun s -> ignore (Commit_history.commit h s)) snaps;
  let size = Commit_history.disk_bytes h in
  Commit_history.flush h;
  let h2 = Commit_history.open_existing ~path in
  Fun.protect
    ~finally:(fun () -> Fsutil.rm_rf dir)
    (fun () ->
      Alcotest.(check int) "count" 40 (Commit_history.count h2);
      Alcotest.(check int) "disk size" size (Commit_history.disk_bytes h2);
      List.iteri
        (fun i snap ->
          Alcotest.(check bool)
            (Printf.sprintf "reloaded checkout %d" i)
            true
            (Bitvec.equal snap (Commit_history.checkout h2 i)))
        snaps;
      (* appending after reload continues correctly *)
      let extra = Bitvec.of_list [ 1000 ] in
      let idx = Commit_history.commit h2 extra in
      Alcotest.(check bool) "append after reload" true
        (Bitvec.equal extra (Commit_history.checkout h2 idx)))

(* Commits stay in memory until [flush], which writes them and keeps
   no descriptor; records never flushed are not on disk. *)
let test_history_write_back () =
  let dir = Fsutil.fresh_dir "decibel-hist3" in
  Fun.protect ~finally:(fun () -> Fsutil.rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "h.chx" in
  let file_size () = (Unix.stat path).Unix.st_size in
  let h = Commit_history.create ~path in
  ignore (Commit_history.commit h (Bitvec.of_list [ 1; 5 ]));
  Alcotest.(check bool) "no file before the first flush" false
    (Sys.file_exists path);
  Commit_history.flush h;
  Alcotest.(check int) "flushed bytes on disk" (Commit_history.disk_bytes h)
    (file_size ());
  let flushed = file_size () in
  ignore (Commit_history.commit h (Bitvec.of_list [ 1; 7 ]));
  Alcotest.(check int) "pending commit not on disk" flushed (file_size ());
  Alcotest.(check bool) "pending bytes counted" true
    (Commit_history.disk_bytes h > flushed);
  (* dropped without a flush: only the flushed commit survives *)
  let h2 = Commit_history.open_existing ~path in
  Alcotest.(check int) "reopened count" 1 (Commit_history.count h2);
  Alcotest.(check bool) "latest after reopen" true
    (Commit_history.is_latest h2 (Bitvec.of_list [ 1; 5 ]));
  ignore (Commit_history.commit h2 (Bitvec.of_list [ 2 ]));
  Commit_history.flush h2;
  let h3 = Commit_history.open_existing ~path in
  Alcotest.(check int) "appended after reopen" 2 (Commit_history.count h3);
  Alcotest.(check bool) "appended checkout" true
    (Bitvec.equal (Bitvec.of_list [ 2 ]) (Commit_history.checkout h3 1))

let prop_history_roundtrip =
  QCheck2.Test.make ~name:"commit history checkout == snapshot" ~count:60
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (list_size (int_bound 50) (int_bound 300)))
    (fun snapshots ->
      let result = ref true in
      with_history (fun _dir h ->
          let snaps = List.map Bitvec.of_list snapshots in
          let idxs = List.map (Commit_history.commit h) snaps in
          List.iter2
            (fun snap i ->
              if not (Bitvec.equal snap (Commit_history.checkout h i)) then
                result := false)
            snaps idxs);
      !result)

(* ------------------------------------------------------------------ *)
(* Pk index *)

let test_pk_basic () =
  let t = Pk_index.create () in
  let b0 = Pk_index.add_branch t ~from:None in
  Pk_index.set t ~branch:b0 (Value.int 1) 100;
  Pk_index.set t ~branch:b0 (Value.int 2) 200;
  Alcotest.(check (option int)) "find" (Some 100)
    (Pk_index.find t ~branch:b0 (Value.int 1));
  Alcotest.(check int) "cardinal" 2 (Pk_index.cardinal t ~branch:b0);
  Pk_index.remove t ~branch:b0 (Value.int 1);
  Alcotest.(check (option int)) "removed" None
    (Pk_index.find t ~branch:b0 (Value.int 1))

let test_pk_branch_clone () =
  let t = Pk_index.create () in
  let b0 = Pk_index.add_branch t ~from:None in
  Pk_index.set t ~branch:b0 (Value.int 1) 100;
  let b1 = Pk_index.add_branch t ~from:(Some b0) in
  Pk_index.set t ~branch:b1 (Value.int 1) 999;
  Alcotest.(check (option int)) "parent keeps" (Some 100)
    (Pk_index.find t ~branch:b0 (Value.int 1));
  Alcotest.(check (option int)) "child overrides" (Some 999)
    (Pk_index.find t ~branch:b1 (Value.int 1))

let test_pk_unknown_branch () =
  let t = Pk_index.create () in
  Alcotest.check_raises "unknown branch"
    (Invalid_argument "Pk_index: unknown branch 0") (fun () ->
      ignore (Pk_index.find t ~branch:0 (Value.int 1)))

let () =
  Alcotest.run "index"
    [
      ("branch-bitmap", bitmap_cases (module Branch_bitmap));
      ("tuple-bitmap", bitmap_cases (module Tuple_bitmap));
      ("layout-agreement", [ qtest prop_layouts_agree ]);
      ( "commit-history",
        [
          Alcotest.test_case "checkout all" `Quick test_history_checkout;
          Alcotest.test_case "layering bounds replay" `Quick
            test_history_layering_bounds_replay;
          Alcotest.test_case "persistence" `Quick test_history_persistence;
          Alcotest.test_case "write-back" `Quick test_history_write_back;
          qtest prop_history_roundtrip;
        ] );
      ( "pk-index",
        [
          Alcotest.test_case "basic" `Quick test_pk_basic;
          Alcotest.test_case "branch clone" `Quick test_pk_branch_clone;
          Alcotest.test_case "unknown branch" `Quick test_pk_unknown_branch;
        ] );
    ]
