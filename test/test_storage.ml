(* Tests for the storage substrate: values, schemas, tuple codecs,
   buffer pool, heap files and the lock manager. *)

open Decibel_util
open Decibel_storage

let qtest t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Value / Schema / Tuple *)

let test_value_compare () =
  Alcotest.(check bool) "int eq" true
    (Value.equal (Value.int 3) (Value.Int 3L));
  Alcotest.(check bool) "int lt" true
    (Value.compare (Value.int 1) (Value.int 2) < 0);
  Alcotest.(check bool) "str" true
    (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.(check bool) "cross type ordered" true
    (Value.compare (Value.int 9) (Value.Str "") < 0)

let test_value_roundtrip () =
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      Value.encode buf v;
      let pos = ref 0 in
      Alcotest.(check bool) "roundtrip" true
        (Value.equal v (Value.decode (Buffer.contents buf) pos)))
    [ Value.int 0; Value.int (-5); Value.Int Int64.max_int; Value.Str "";
      Value.Str "hello" ]

let test_schema_validation () =
  let s =
    Schema.make ~name:"t"
      ~columns:
        [
          { Schema.col_name = "id"; col_type = Schema.T_int };
          { Schema.col_name = "name"; col_type = Schema.T_str };
        ]
      ~pk:"id"
  in
  Alcotest.(check int) "pk index" 0 (Schema.pk_index s);
  Alcotest.(check bool) "valid" true
    (Schema.validate s [| Value.int 1; Value.Str "x" |] = Ok ());
  Alcotest.(check bool) "arity" true
    (Result.is_error (Schema.validate s [| Value.int 1 |]));
  Alcotest.(check bool) "type" true
    (Result.is_error (Schema.validate s [| Value.Str "x"; Value.Str "y" |]))

let test_schema_bad_construction () =
  Alcotest.check_raises "unknown pk"
    (Invalid_argument "Schema.make: unknown pk column nope") (fun () ->
      ignore
        (Schema.make ~name:"t"
           ~columns:[ { Schema.col_name = "a"; col_type = Schema.T_int } ]
           ~pk:"nope"));
  Alcotest.check_raises "dup columns"
    (Invalid_argument "Schema.make: duplicate column names") (fun () ->
      ignore
        (Schema.make ~name:"t"
           ~columns:
             [
               { Schema.col_name = "a"; col_type = Schema.T_int };
               { Schema.col_name = "a"; col_type = Schema.T_str };
             ]
           ~pk:"a"))

let test_schema_serialize () =
  let s = Schema.ints ~name:"bench" ~width:7 in
  let buf = Buffer.create 64 in
  Schema.serialize buf s;
  let pos = ref 0 in
  let s' = Schema.deserialize (Buffer.contents buf) pos in
  Alcotest.(check bool) "roundtrip" true (Schema.equal s s')

let mixed_schema =
  Schema.make ~name:"mixed"
    ~columns:
      [
        { Schema.col_name = "id"; col_type = Schema.T_int };
        { Schema.col_name = "label"; col_type = Schema.T_str };
        { Schema.col_name = "score"; col_type = Schema.T_int };
      ]
    ~pk:"id"

let tuple_gen =
  QCheck2.Gen.(
    map2
      (fun (k, s) n ->
        [| Value.int k; Value.Str s; Value.int n |])
      (pair int (string_size (int_bound 30)))
      int)

let prop_tuple_roundtrip =
  QCheck2.Test.make ~name:"tuple codec roundtrip" ~count:300 tuple_gen
    (fun t ->
      let enc = Tuple.encode mixed_schema t in
      let pos = ref 0 in
      let t' = Tuple.decode mixed_schema enc pos in
      Tuple.equal t t'
      && !pos = String.length enc
      && Tuple.encoded_size mixed_schema t = String.length enc)

let test_merge_fields () =
  let base = [| Value.int 1; Value.int 10; Value.int 20 |] in
  let ours = [| Value.int 1; Value.int 99; Value.int 20 |] in
  let theirs = [| Value.int 1; Value.int 10; Value.int 77 |] in
  (match Tuple.merge_fields ~base:(Some base) ~ours ~theirs with
  | Ok m ->
      Alcotest.(check bool) "disjoint merge" true
        (Tuple.equal m [| Value.int 1; Value.int 99; Value.int 77 |])
  | Error _ -> Alcotest.fail "unexpected conflict");
  let theirs2 = [| Value.int 1; Value.int 55; Value.int 20 |] in
  (match Tuple.merge_fields ~base:(Some base) ~ours ~theirs:theirs2 with
  | Ok _ -> Alcotest.fail "expected conflict"
  | Error fields -> Alcotest.(check (list int)) "field 1" [ 1 ] fields);
  (* both sides converging on the same value is not a conflict *)
  match Tuple.merge_fields ~base:(Some base) ~ours ~theirs:ours with
  | Ok m -> Alcotest.(check bool) "same change" true (Tuple.equal m ours)
  | Error _ -> Alcotest.fail "same change conflicted"

(* ------------------------------------------------------------------ *)
(* Buffer pool *)

let page n = Bytes.make 8 (Char.chr (n land 0xff))

let test_pool_hit_miss () =
  let p = Buffer_pool.create ~page_size:8 ~capacity_pages:4 () in
  Alcotest.(check bool) "miss" true (Buffer_pool.find p ~file:0 ~page:0 = None);
  Buffer_pool.add p ~file:0 ~page:0 (page 1);
  Alcotest.(check bool) "hit" true
    (Buffer_pool.find p ~file:0 ~page:0 = Some (page 1));
  let s = Buffer_pool.stats p in
  Alcotest.(check int) "hits" 1 s.Buffer_pool.hits;
  Alcotest.(check int) "misses" 1 s.Buffer_pool.misses

let test_pool_eviction () =
  let p = Buffer_pool.create ~page_size:8 ~capacity_pages:4 () in
  for i = 0 to 9 do
    Buffer_pool.add p ~file:0 ~page:i (page i)
  done;
  (* capacity is 4: at most 4 pages resident *)
  let resident = ref 0 in
  for i = 0 to 9 do
    if Buffer_pool.find p ~file:0 ~page:i <> None then incr resident
  done;
  Alcotest.(check bool) "bounded residency" true (!resident <= 4);
  Alcotest.(check bool) "evictions happened" true
    ((Buffer_pool.stats p).Buffer_pool.evictions >= 6)

let test_pool_invalidate () =
  let p = Buffer_pool.create ~page_size:8 ~capacity_pages:8 () in
  Buffer_pool.add p ~file:0 ~page:0 (page 0);
  Buffer_pool.add p ~file:1 ~page:0 (page 1);
  Buffer_pool.invalidate_file p 0;
  Alcotest.(check bool) "file 0 gone" true
    (Buffer_pool.find p ~file:0 ~page:0 = None);
  Alcotest.(check bool) "file 1 kept" true
    (Buffer_pool.find p ~file:1 ~page:0 <> None);
  Buffer_pool.drop_all p;
  Alcotest.(check bool) "all gone" true
    (Buffer_pool.find p ~file:1 ~page:0 = None)

(* ------------------------------------------------------------------ *)
(* Heap file *)

let with_heap ?(page_size = 64) f =
  let dir = Fsutil.fresh_dir "decibel-heap" in
  let pool = Buffer_pool.create ~page_size ~capacity_pages:16 () in
  let h = Heap_file.create ~pool (Filename.concat dir "h.dat") in
  Fun.protect
    ~finally:(fun () ->
      Heap_file.close h;
      Fsutil.rm_rf dir)
    (fun () -> f pool h)

let test_heap_append_get () =
  with_heap (fun _pool h ->
      let o1 = Heap_file.append h "hello" in
      let o2 = Heap_file.append h "world!" in
      Alcotest.(check string) "r1" "hello" (Heap_file.get h o1);
      Alcotest.(check string) "r2" "world!" (Heap_file.get h o2);
      Alcotest.(check bool) "offsets ordered" true (o2 > o1))

let test_heap_iter_order () =
  with_heap (fun _pool h ->
      let records = List.init 50 (fun i -> Printf.sprintf "record-%03d" i) in
      let offsets = List.map (Heap_file.append h) records in
      let got = ref [] in
      Heap_file.iter h (fun off payload -> got := (off, payload) :: !got);
      Alcotest.(check (list (pair int string)))
        "forward order"
        (List.combine offsets records)
        (List.rev !got);
      let got_rev = ref [] in
      Heap_file.iter_rev h (fun off payload ->
          got_rev := (off, payload) :: !got_rev);
      Alcotest.(check (list (pair int string)))
        "reverse order"
        (List.combine offsets records)
        !got_rev)

let test_heap_ranges () =
  with_heap (fun _pool h ->
      let o1 = Heap_file.append h "aaa" in
      let o2 = Heap_file.append h "bbb" in
      let o3 = Heap_file.append h "ccc" in
      ignore o1;
      let got = ref [] in
      Heap_file.iter ~from:o2 ~upto:o3 h (fun _ p -> got := p :: !got);
      Alcotest.(check (list string)) "window" [ "bbb" ] !got)

let test_heap_spanning_pages () =
  (* record bigger than a page must span cleanly *)
  with_heap ~page_size:64 (fun _pool h ->
      let big = String.init 1000 (fun i -> Char.chr (i mod 256)) in
      let o = Heap_file.append h big in
      Heap_file.flush h;
      Alcotest.(check string) "big record" big (Heap_file.get h o))

let test_heap_read_unflushed () =
  with_heap (fun _pool h ->
      let o = Heap_file.append h "pending" in
      (* no flush: the read must come from the in-memory tail *)
      Alcotest.(check string) "pending read" "pending" (Heap_file.get h o))

let test_heap_reopen () =
  let dir = Fsutil.fresh_dir "decibel-heap2" in
  let pool = Buffer_pool.create ~page_size:64 ~capacity_pages:16 () in
  let path = Filename.concat dir "h.dat" in
  let h = Heap_file.create ~pool path in
  let o1 = Heap_file.append h "persisted" in
  Heap_file.close h;
  let h2 = Heap_file.open_existing ~pool ~size:(Unix.stat path).st_size path in
  Fun.protect
    ~finally:(fun () ->
      Heap_file.close h2;
      Fsutil.rm_rf dir)
    (fun () ->
      Alcotest.(check string) "reopened" "persisted" (Heap_file.get h2 o1);
      let o2 = Heap_file.append h2 "more" in
      Alcotest.(check string) "appended after reopen" "more"
        (Heap_file.get h2 o2))

(* An open heap file costs bytes, not its flush threshold: the write
   buffer grows with pending appends and is released by the flush, so
   idle and sealed files (one per segment, and segments grow with
   branches) do not each pin a mebibyte. *)
let test_heap_buffer_follows_data () =
  let per_file_bound = 16 * 1024 / (Sys.word_size / 8) in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let dir = Fsutil.fresh_dir "decibel-heapmem" in
  let pool = Buffer_pool.create () in
  let n = 256 in
  let path i = Filename.concat dir (Printf.sprintf "h%d.dat" i) in
  for i = 0 to n - 1 do
    let h = Heap_file.create ~pool (path i) in
    ignore (Heap_file.append h (Printf.sprintf "record-%d" i));
    Heap_file.close h
  done;
  let before = live () in
  (* every constructor: fresh, reopened and staged-empty files *)
  let files =
    List.init n (fun i ->
        match i mod 3 with
        | 0 -> Heap_file.create ~pool (path i)
        | 1 ->
            Heap_file.open_existing ~pool ~size:(Unix.stat (path i)).st_size
              (path i)
        | _ -> Heap_file.open_reset ~pool (path i))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Heap_file.close files;
      Fsutil.rm_rf dir)
    (fun () ->
      let opened = live () in
      let per_file = (opened - before) / n in
      if per_file >= per_file_bound then
        Alcotest.failf "an open heap file holds %d words (bound %d)" per_file
          per_file_bound;
      (* a burst past the flush threshold, then back to idle *)
      let h = List.hd files in
      let chunk = String.make 4000 'x' in
      let last = ref 0 in
      for _ = 1 to (2 * 1024 * 1024 / String.length chunk) + 16 do
        last := Heap_file.append h chunk
      done;
      Heap_file.flush h;
      let after = live () in
      if after - opened >= per_file_bound then
        Alcotest.failf "a flushed heap file keeps %d words (bound %d)"
          (after - opened) per_file_bound;
      Alcotest.(check string) "burst readable" chunk (Heap_file.get h !last))

let prop_heap_roundtrip =
  QCheck2.Test.make ~name:"heap file roundtrips arbitrary records"
    ~count:60
    QCheck2.Gen.(list_size (int_range 1 40) (string_size (int_bound 300)))
    (fun records ->
      let result = ref true in
      with_heap ~page_size:128 (fun pool h ->
          let offsets = List.map (Heap_file.append h) records in
          Heap_file.flush h;
          Buffer_pool.drop_all pool;
          List.iter2
            (fun off r -> if Heap_file.get h off <> r then result := false)
            offsets records);
      !result)

(* ------------------------------------------------------------------ *)
(* Lock manager *)

let test_lock_shared_compatible () =
  let lm = Lock_manager.create () in
  Lock_manager.acquire lm ~owner:1 ~resource:"r" Lock_manager.Shared;
  Lock_manager.acquire lm ~owner:2 ~resource:"r" Lock_manager.Shared;
  Alcotest.(check int) "two holders" 2
    (List.length (Lock_manager.holders lm ~resource:"r"));
  Lock_manager.release_all lm ~owner:1;
  Lock_manager.release_all lm ~owner:2

let test_lock_exclusive_blocks () =
  let lm = Lock_manager.create ~timeout_s:0.05 () in
  Lock_manager.acquire lm ~owner:1 ~resource:"r" Lock_manager.Exclusive;
  Alcotest.check_raises "second writer times out"
    (Lock_manager.Deadlock "r") (fun () ->
      Lock_manager.acquire lm ~owner:2 ~resource:"r" Lock_manager.Exclusive);
  Lock_manager.release_all lm ~owner:1;
  (* now it can proceed *)
  Lock_manager.acquire lm ~owner:2 ~resource:"r" Lock_manager.Exclusive;
  Lock_manager.release_all lm ~owner:2

let test_lock_upgrade () =
  let lm = Lock_manager.create ~timeout_s:0.05 () in
  Lock_manager.acquire lm ~owner:1 ~resource:"r" Lock_manager.Shared;
  Lock_manager.acquire lm ~owner:1 ~resource:"r" Lock_manager.Exclusive;
  Alcotest.(check bool) "upgraded" true
    (Lock_manager.holders lm ~resource:"r" = [ (1, Lock_manager.Exclusive) ]);
  Lock_manager.release_all lm ~owner:1

let test_lock_reentrant () =
  let lm = Lock_manager.create () in
  Lock_manager.acquire lm ~owner:1 ~resource:"r" Lock_manager.Exclusive;
  Lock_manager.acquire lm ~owner:1 ~resource:"r" Lock_manager.Exclusive;
  Lock_manager.acquire lm ~owner:1 ~resource:"r" Lock_manager.Shared;
  Alcotest.(check int) "single entry" 1
    (List.length (Lock_manager.holders lm ~resource:"r"));
  Lock_manager.release_all lm ~owner:1

let test_lock_concurrent_writers () =
  (* two threads increment a counter under the same exclusive lock;
     without mutual exclusion the unprotected increments would race *)
  let lm = Lock_manager.create ~timeout_s:5.0 () in
  let counter = ref 0 in
  let worker owner () =
    for _ = 1 to 100 do
      Lock_manager.acquire lm ~owner ~resource:"c" Lock_manager.Exclusive;
      let v = !counter in
      Thread.yield ();
      counter := v + 1;
      Lock_manager.release_all lm ~owner
    done
  in
  let t1 = Thread.create (worker 1) () in
  let t2 = Thread.create (worker 2) () in
  Thread.join t1;
  Thread.join t2;
  Alcotest.(check int) "no lost updates" 200 !counter

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "storage"
    [
      ( "value-schema-tuple",
        [
          Alcotest.test_case "value compare" `Quick test_value_compare;
          Alcotest.test_case "value roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "schema validation" `Quick test_schema_validation;
          Alcotest.test_case "schema bad construction" `Quick
            test_schema_bad_construction;
          Alcotest.test_case "schema serialize" `Quick test_schema_serialize;
          qtest prop_tuple_roundtrip;
          Alcotest.test_case "three-way field merge" `Quick test_merge_fields;
        ] );
      ( "buffer-pool",
        [
          Alcotest.test_case "hit/miss" `Quick test_pool_hit_miss;
          Alcotest.test_case "eviction bounded" `Quick test_pool_eviction;
          Alcotest.test_case "invalidate" `Quick test_pool_invalidate;
        ] );
      ( "heap-file",
        [
          Alcotest.test_case "append/get" `Quick test_heap_append_get;
          Alcotest.test_case "iter order" `Quick test_heap_iter_order;
          Alcotest.test_case "ranges" `Quick test_heap_ranges;
          Alcotest.test_case "records span pages" `Quick
            test_heap_spanning_pages;
          Alcotest.test_case "read unflushed tail" `Quick
            test_heap_read_unflushed;
          Alcotest.test_case "reopen" `Quick test_heap_reopen;
          Alcotest.test_case "write buffer follows the data" `Quick
            test_heap_buffer_follows_data;
          qtest prop_heap_roundtrip;
        ] );
      ( "lock-manager",
        [
          Alcotest.test_case "shared compatible" `Quick
            test_lock_shared_compatible;
          Alcotest.test_case "exclusive blocks" `Quick
            test_lock_exclusive_blocks;
          Alcotest.test_case "upgrade" `Quick test_lock_upgrade;
          Alcotest.test_case "reentrant" `Quick test_lock_reentrant;
          Alcotest.test_case "concurrent writers" `Quick
            test_lock_concurrent_writers;
        ] );
    ]
