(* Durability: write-ahead logging, crash recovery, persistent
   repositories and isolated sessions — the operational features around
   the core versioning engine (the paper defers fault tolerance to
   future work, §2.1; this library implements it).

     dune exec examples/durable_workflows.exe
*)

open Decibel
open Decibel_storage
module Vg = Decibel_graph.Version_graph

let schema = Schema.ints ~name:"events" ~width:3

let row k a = [| Value.int k; Value.int a; Value.int (k * a) |]

let () =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-durable" in

  (* 1. a durable database journals every operation *)
  let db =
    Database.open_ ~durable:true ~scheme:Database.Hybrid ~dir ~schema ()
  in
  Database.insert db Vg.master (row 1 10);
  Database.insert db Vg.master (row 2 20);
  let v1 = Database.commit db Vg.master ~message:"first batch" in
  let dev = Database.create_branch db ~name:"dev" ~from:v1 in
  Database.insert db dev (row 3 30);

  (* 2. simulate a crash: the process dies without close or flush *)
  Printf.printf "pretend crash with %d rows on master, %d on dev...\n"
    (Database.count db Vg.master)
    (Database.count db dev);

  (* 3. reopen: the WAL tail is replayed onto the last checkpoint *)
  let db = Database.reopen ~dir () in
  Printf.printf "recovered: master=%d rows, dev=%d rows, %d versions\n"
    (Database.count db Vg.master)
    (Database.count db dev)
    (Vg.version_count (Database.graph db));

  (* 4. concurrent sessions are isolated by two-phase locking *)
  let s1 = Database.new_session db in
  Database.session_checkout_branch s1 "master";
  Database.session_insert s1 (row 6 60);
  let _ = Database.session_commit s1 ~message:"session work" in
  Printf.printf "final master rows: %d\n" (Database.count db Vg.master);

  Database.close db;
  Decibel_util.Fsutil.rm_rf dir
