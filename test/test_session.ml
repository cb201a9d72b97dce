(* Tests for sessions and the Database facade: checkout semantics,
   two-phase locking between concurrent sessions (paper §2.2.3), and
   facade conveniences (update_all, heads, branch naming). *)

open Decibel
open Decibel_storage
module Vg = Decibel_graph.Version_graph

let schema = Schema.ints ~name:"r" ~width:3

let row k a = [| Value.int k; Value.int a; Value.int 0 |]

let with_db ?(scheme = Database.Hybrid) f =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-session" in
  let db = Database.open_ ~lock_timeout_s:0.1 ~scheme ~dir ~schema () in
  Fun.protect
    ~finally:(fun () ->
      Database.close db;
      Decibel_util.Fsutil.rm_rf dir)
    (fun () -> f db)

let test_session_basic () =
  with_db (fun db ->
      let s = Database.new_session db in
      Database.session_insert s (row 1 10);
      Database.session_insert s (row 2 20);
      let v = Database.session_commit s ~message:"via session" in
      Alcotest.(check bool) "version created" true (v > 0);
      let n = ref 0 in
      Database.session_scan s (fun _ -> incr n);
      Alcotest.(check int) "scan via session" 2 !n;
      Database.end_transaction s)

let test_session_checkout_version () =
  with_db (fun db ->
      let s = Database.new_session db in
      Database.session_insert s (row 1 10);
      let v1 = Database.session_commit s ~message:"v1" in
      Database.session_insert s (row 2 20);
      let _ = Database.session_commit s ~message:"v2" in
      (* point the session at the historical commit: reads see the
         snapshot, writes are rejected (§2.2.3 Checkout) *)
      Database.session_checkout_version s v1;
      let n = ref 0 in
      Database.session_scan s (fun _ -> incr n);
      Alcotest.(check int) "historical view" 1 !n;
      (match Database.session_insert s (row 9 9) with
      | exception Types.Engine_error _ -> ()
      | () -> Alcotest.fail "write at a version checkout must fail");
      (* back to a branch *)
      Database.session_checkout_branch s "master";
      Database.session_insert s (row 3 30);
      Database.end_transaction s)

let test_sessions_conflict () =
  with_db (fun db ->
      let s1 = Database.new_session db in
      let s2 = Database.new_session db in
      Database.session_insert s1 (row 1 10);
      (* s1 holds the exclusive branch lock until it commits; s2's
         write must block and time out (we use a short-lock manager via
         direct acquisition) *)
      let blocked =
        match
          Lock_manager.acquire
            (Database.locks_of db)
            ~owner:9999 ~resource:"master" Lock_manager.Exclusive
        with
        | exception Lock_manager.Deadlock _ -> true
        | () -> false
      in
      Alcotest.(check bool) "second writer blocks" true blocked;
      let _ = Database.session_commit s1 ~message:"s1" in
      (* after s1 commits (releasing locks), s2 can write *)
      Database.session_insert s2 (row 2 20);
      let _ = Database.session_commit s2 ~message:"s2" in
      Alcotest.(check int) "both rows" 2 (Database.count db Vg.master))

(* A session's updates and deletes stay invisible to every other
   session until it commits: a reader of the branch blocks on the
   writer's exclusive lock, and a reader of the last commit sees the
   old rows.  After the commit both see the change. *)
let test_session_update_delete scheme () =
  with_db ~scheme (fun db ->
      let contents scan =
        let rows = ref [] in
        scan (fun t ->
            rows :=
              (Int64.to_int (Value.to_int_exn t.(0)),
               Int64.to_int (Value.to_int_exn t.(1)))
              :: !rows);
        List.sort compare !rows
      in
      let writer = Database.new_session db in
      List.iter
        (fun k -> Database.session_insert writer (row k (10 * k)))
        [ 1; 2; 3 ];
      let v0 = Database.session_commit writer ~message:"base" in
      Database.session_update writer (row 1 99);
      Database.session_delete writer (Value.int 2);
      let reader = Database.new_session db in
      (match Database.session_scan reader (fun _ -> ()) with
      | exception Lock_manager.Deadlock _ -> ()
      | () -> Alcotest.fail "branch read must wait for the writer's commit");
      Database.session_checkout_version reader v0;
      Alcotest.(check (list (pair int int)))
        "last commit unchanged before commit"
        [ (1, 10); (2, 20); (3, 30) ]
        (contents (Database.session_scan reader));
      let v1 = Database.session_commit writer ~message:"update+delete" in
      let expected = [ (1, 99); (3, 30) ] in
      Database.session_checkout_branch reader "master";
      Alcotest.(check (list (pair int int))) "branch sees the change"
        expected
        (contents (Database.session_scan reader));
      Database.end_transaction reader;
      Database.session_checkout_version reader v1;
      Alcotest.(check (list (pair int int))) "new commit has the change"
        expected
        (contents (Database.session_scan reader)))

let test_branch_from () =
  with_db (fun db ->
      Database.insert db Vg.master (row 1 1);
      let _ = Database.commit db Vg.master ~message:"c" in
      let b = Database.branch_from db ~name:"side" ~of_branch:Vg.master in
      Alcotest.(check int) "inherits" 1 (Database.count db b);
      Alcotest.(check int) "resolvable by name" b
        (Database.branch_named db "side");
      Alcotest.check_raises "unknown branch name"
        (Types.Engine_error "no branch named \"nope\"") (fun () ->
          ignore (Database.branch_named db "nope")))

let test_heads_excludes_retired () =
  with_db (fun db ->
      Database.insert db Vg.master (row 1 1);
      let v = Database.commit db Vg.master ~message:"c" in
      let b = Database.create_branch db ~name:"tmp" ~from:v in
      Alcotest.(check int) "two heads" 2 (List.length (Database.heads db));
      Vg.retire (Database.graph db) b;
      Alcotest.(check (list int)) "one head" [ Vg.master ]
        (Database.heads db))

let () =
  Alcotest.run "session"
    [
      ( "sessions",
        [
          Alcotest.test_case "basic workflow" `Quick test_session_basic;
          Alcotest.test_case "version checkout" `Quick
            test_session_checkout_version;
          Alcotest.test_case "2PL conflict" `Quick test_sessions_conflict;
        ]
        @ List.map
            (fun scheme ->
              Alcotest.test_case
                ("update and delete: " ^ Database.scheme_name scheme)
                `Quick
                (test_session_update_delete scheme))
            [ Database.Tuple_first; Database.Version_first; Database.Hybrid ]
      );
      ( "facade",
        [
          Alcotest.test_case "branch_from" `Quick test_branch_from;
          Alcotest.test_case "heads exclude retired" `Quick
            test_heads_excludes_retired;
        ] );
    ]
