(* Tests for the parallel scan executor: the domain pool combinators,
   the in-place Bitvec kernels backing per-worker scratch, the
   parallel-vs-serial identity of every engine's scan/multi-scan/diff,
   and the domain-safety of the sharded buffer pool and the lock
   manager's condition-based waiting. *)

open Decibel
open Decibel_storage
module Par = Decibel_par.Par
module Bitvec = Decibel_util.Bitvec
module Vg = Decibel_graph.Version_graph

let qtest t = QCheck_alcotest.to_alcotest t

(* run [f] with the pool sized to [n] workers, restoring afterwards *)
let with_domains n f =
  let saved = Par.domain_count () in
  Par.set_domain_count n;
  Fun.protect ~finally:(fun () -> Par.set_domain_count saved) f

(* ------------------------------------------------------------------ *)
(* Bitvec kernels *)

let test_iter_set_matches_to_list () =
  List.iter
    (fun l ->
      let v = Bitvec.of_list l in
      let got = ref [] in
      Bitvec.iter_set (fun i -> got := i :: !got) v;
      Alcotest.(check (list int)) "iter_set order" (Bitvec.to_list v)
        (List.rev !got))
    [ []; [ 0 ]; [ 63 ]; [ 64 ]; [ 0; 63; 64; 127; 128; 500 ] ]

let test_iter_set_single_bits () =
  (* one test per bit position exercises the whole de Bruijn table *)
  for k = 0 to 191 do
    let v = Bitvec.of_list [ k ] in
    let got = ref [] in
    Bitvec.iter_set (fun i -> got := i :: !got) v;
    Alcotest.(check (list int))
      (Printf.sprintf "single bit %d" k)
      [ k ] (List.rev !got)
  done

let bits_gen = QCheck2.Gen.(list_size (int_range 0 200) (int_bound 500))

let prop_iter_set_range =
  QCheck2.Test.make ~name:"iter_set_range = filtered to_list" ~count:300
    QCheck2.Gen.(triple bits_gen (int_bound 520) (int_bound 520))
    (fun (l, a, b) ->
      let lo = min a b and hi = max a b in
      let v = Bitvec.of_list l in
      let got = ref [] in
      Bitvec.iter_set_range (fun i -> got := i :: !got) v ~lo ~hi;
      let want = List.filter (fun i -> i >= lo && i < hi) (Bitvec.to_list v) in
      List.rev !got = want)

let prop_in_place_match_pure =
  QCheck2.Test.make ~name:"in-place kernels match pure ops" ~count:300
    QCheck2.Gen.(pair bits_gen bits_gen)
    (fun (la, lb) ->
      let a = Bitvec.of_list la and b = Bitvec.of_list lb in
      let check pure in_place =
        let dst = Bitvec.create () in
        Bitvec.copy_into ~src:a ~dst;
        in_place dst b;
        Bitvec.equal dst (pure a b)
      in
      check Bitvec.inter Bitvec.inter_in_place
      && check Bitvec.diff Bitvec.diff_in_place
      && check Bitvec.xor Bitvec.xor_in_place
      && check Bitvec.union Bitvec.union_in_place)

let prop_copy_into_reuses =
  QCheck2.Test.make ~name:"copy_into overwrites dirty scratch" ~count:300
    QCheck2.Gen.(pair bits_gen bits_gen)
    (fun (la, lb) ->
      let scratch = Bitvec.of_list la in
      let src = Bitvec.of_list lb in
      Bitvec.copy_into ~src ~dst:scratch;
      Bitvec.equal scratch src && Bitvec.to_list scratch = Bitvec.to_list src)

(* ------------------------------------------------------------------ *)
(* pool combinators *)

let test_parallel_for () =
  with_domains 4 (fun () ->
      let n = 10_000 in
      let hits = Array.make n (Atomic.make 0) in
      for i = 0 to n - 1 do
        hits.(i) <- Atomic.make 0
      done;
      Par.parallel_for ~chunk:64 n (fun i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i a ->
          if Atomic.get a <> 1 then
            Alcotest.failf "index %d visited %d times" i (Atomic.get a))
        hits)

let test_parallel_fold () =
  with_domains 4 (fun () ->
      let n = 25_000 in
      let got =
        Par.parallel_fold ~chunk:97 ~n
          ~init:(fun () -> 0)
          ~body:(fun acc i -> acc + i)
          ~merge:(fun res acc -> res + acc)
          0
      in
      Alcotest.(check int) "sum" (n * (n - 1) / 2) got)

let test_parallel_fold_ordered_merge () =
  with_domains 4 (fun () ->
      (* list concatenation is order-sensitive: the merge order
         guarantee makes the parallel fold equal the serial one *)
      let n = 5000 in
      let got =
        Par.parallel_fold ~chunk:61 ~n
          ~init:(fun () -> [])
          ~body:(fun acc i -> i :: acc)
          ~merge:(fun res acc -> res @ List.rev acc)
          []
      in
      Alcotest.(check (list int)) "ordered" (List.init n Fun.id) got)

let test_parallel_iter_buffered_order () =
  with_domains 4 (fun () ->
      let n = 2000 in
      let got = ref [] in
      Par.parallel_iter_buffered ~n
        ~produce:(fun i -> i * 3)
        ~consume:(fun x -> got := x :: !got)
        ();
      Alcotest.(check (list int)) "consume order"
        (List.init n (fun i -> i * 3))
        (List.rev !got))

let test_exception_propagates () =
  with_domains 4 (fun () ->
      match
        Par.parallel_for 1000 (fun i -> if i = 617 then failwith "boom")
      with
      | () -> Alcotest.fail "expected exception"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m)

let test_nested_runs_serial () =
  with_domains 2 (fun () ->
      (* a combinator used from inside a pool worker must degrade to a
         serial loop rather than deadlock on the pool's own queue.
         (Tasks may also run on the submitting domain, which helps
         drain the queue — there [available] stays true and nested
         fan-out is legal, so only worker domains are checked.) *)
      let violations = Atomic.make 0 in
      Par.parallel_for ~chunk:1 8 (fun _ ->
          if Par.in_worker () && Par.available () then
            Atomic.incr violations;
          Par.parallel_for ~chunk:1 4 (fun _ -> ()));
      Alcotest.(check int) "workers see available()=false" 0
        (Atomic.get violations))

let test_set_domain_count_roundtrip () =
  with_domains 3 (fun () ->
      Alcotest.(check int) "resized" 3 (Par.domain_count ());
      Par.set_domain_count 0;
      Alcotest.(check bool) "serial fallback" false (Par.available ());
      Par.parallel_for 100 (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* engine identity: parallel output = serial output, all schemes *)

let schema = Schema.ints ~name:"r" ~width:4

let row k a b c = [| Value.int k; Value.int a; Value.int b; Value.int c |]

let key k = Value.int k

(* a small but branchy database: enough rows for several chunks, with
   updates and deletes so diff/multi-scan outputs are non-trivial *)
let build_db ?(compress = false) scheme dir =
  let db = Database.open_ ~compress ~scheme ~dir ~schema () in
  let m = Vg.master in
  for k = 0 to 599 do
    Database.insert db m (row k k (k * 2) 0)
  done;
  let v1 = Database.commit db m ~message:"base" in
  let child = Database.create_branch db ~name:"child" ~from:v1 in
  let other = Database.create_branch db ~name:"other" ~from:v1 in
  for k = 0 to 599 do
    if k mod 3 = 0 then Database.update db child (row k k (k * 2) 1);
    if k mod 7 = 0 then Database.delete db child (key k)
  done;
  for k = 600 to 699 do
    Database.insert db child (row k k 0 2)
  done;
  for k = 0 to 599 do
    if k mod 5 = 0 then Database.update db other (row k k (k * 2) 9)
  done;
  ignore (Database.commit db child ~message:"child");
  (db, m, child)

type snapshot = {
  scan : Tuple.t list;
  filtered : Tuple.t list;
  multi : (Tuple.t * Types.branch_id list) list;
  pos : Tuple.t list;
  neg : Tuple.t list;
}

(* pushed predicates: an equality the dictionary/const paths decide per
   block and a range over the delta-coded key column *)
let preds =
  [
    Col_pred.make schema ~column:"c3" Col_pred.Eq (Value.int 1);
    Col_pred.make schema ~column:"c1" Col_pred.Lt (Value.int 500);
  ]

let snapshot db ~b1 ~b2 =
  let scan = ref [] in
  Database.scan db b1 (fun t -> scan := t :: !scan);
  let filtered = ref [] in
  Database.scan_filtered db b1 ~preds (fun t -> filtered := t :: !filtered);
  let multi = ref [] in
  Database.multi_scan db (Database.heads db) (fun a ->
      multi := (a.Types.tuple, a.Types.in_branches) :: !multi);
  let pos = ref [] and neg = ref [] in
  Database.diff db b1 b2
    ~pos:(fun t -> pos := t :: !pos)
    ~neg:(fun t -> neg := t :: !neg);
  {
    scan = List.rev !scan;
    filtered = List.rev !filtered;
    multi = List.rev !multi;
    pos = List.rev !pos;
    neg = List.rev !neg;
  }

let check_snapshots_equal ~msg a b =
  let tuples = Alcotest.(list (testable Tuple.pp Tuple.equal)) in
  Alcotest.check tuples (msg ^ ": scan") a.scan b.scan;
  Alcotest.check tuples (msg ^ ": scan_filtered") a.filtered b.filtered;
  Alcotest.check tuples (msg ^ ": diff pos") a.pos b.pos;
  Alcotest.check tuples (msg ^ ": diff neg") a.neg b.neg;
  Alcotest.(check int)
    (msg ^ ": multi count")
    (List.length a.multi) (List.length b.multi);
  List.iter2
    (fun (ta, la) (tb, lb) ->
      if not (Tuple.equal ta tb && la = lb) then
        Alcotest.failf "%s: multi-scan row differs: %s vs %s" msg
          (Tuple.to_string ta) (Tuple.to_string tb))
    a.multi b.multi

let test_engine_identity ?compress scheme () =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-par-test" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf dir)
    (fun () ->
      let db, m, child = build_db ?compress scheme dir in
      Fun.protect
        ~finally:(fun () -> Database.close db)
        (fun () ->
          let run n =
            with_domains n (fun () -> snapshot db ~b1:child ~b2:m)
          in
          let serial = run 0 in
          Alcotest.(check bool) "pushed predicates select rows" true
            (serial.filtered <> []);
          check_snapshots_equal ~msg:"1 domain" serial (run 1);
          check_snapshots_equal ~msg:"4 domains" serial (run 4)))

(* ------------------------------------------------------------------ *)
(* buffer pool under concurrent hammering *)

let test_buffer_pool_hammer () =
  let pool = Buffer_pool.create ~page_size:256 ~capacity_pages:64 () in
  let nd = 4 and per_domain = 4000 in
  let finds = Atomic.make 0 in
  let worker seed () =
    let rng = ref seed in
    let next () =
      rng := (!rng * 1103515245) + 12345;
      (!rng lsr 7) land 0xFFFF
    in
    for _ = 1 to per_domain do
      let file = next () mod 4 and page = next () mod 128 in
      (match Buffer_pool.find pool ~file ~page with
      | Some b -> assert (Bytes.length b = 256)
      | None -> Buffer_pool.add pool ~file ~page (Bytes.create 256));
      Atomic.incr finds
    done
  in
  let domains =
    List.init nd (fun i -> Domain.spawn (worker ((i * 7919) + 1)))
  in
  List.iter Domain.join domains;
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "every find hit or missed" (Atomic.get finds)
    (s.Buffer_pool.hits + s.Buffer_pool.misses);
  Alcotest.(check bool) "residency bounded" true
    (Buffer_pool.resident_pages pool <= Buffer_pool.capacity_pages pool);
  Alcotest.(check bool) "evicted under pressure" true (s.evictions > 0)

(* ------------------------------------------------------------------ *)
(* lock manager: condition wake-up and deadline *)

let test_lock_wakeup () =
  let lm = Lock_manager.create ~timeout_s:10.0 () in
  Lock_manager.acquire lm ~owner:1 ~resource:"r" Lock_manager.Exclusive;
  let acquired_at = ref 0.0 in
  let waiter =
    Thread.create
      (fun () ->
        Lock_manager.acquire lm ~owner:2 ~resource:"r" Lock_manager.Exclusive;
        acquired_at := Unix.gettimeofday ();
        Lock_manager.release_all lm ~owner:2)
      ()
  in
  Thread.delay 0.05;
  let released_at = Unix.gettimeofday () in
  Lock_manager.release_all lm ~owner:1;
  Thread.join waiter;
  (* the release broadcast must wake the waiter promptly — orders of
     magnitude under the old 2 ms polling loop's worst case, and far
     under the 10 s deadline *)
  Alcotest.(check bool) "woken promptly" true
    (!acquired_at -. released_at < 1.0)

let test_lock_deadline () =
  let lm = Lock_manager.create ~timeout_s:0.1 () in
  Lock_manager.acquire lm ~owner:1 ~resource:"r" Lock_manager.Exclusive;
  match
    Lock_manager.acquire lm ~owner:2 ~resource:"r" Lock_manager.Shared
  with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Lock_manager.Deadlock r ->
      Alcotest.(check string) "resource" "r" r;
      Lock_manager.release_all lm ~owner:1

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "par"
    [
      ( "bitvec-kernels",
        [
          Alcotest.test_case "iter_set matches to_list" `Quick
            test_iter_set_matches_to_list;
          Alcotest.test_case "single bits 0..191" `Quick
            test_iter_set_single_bits;
          qtest prop_iter_set_range;
          qtest prop_in_place_match_pure;
          qtest prop_copy_into_reuses;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers range" `Quick
            test_parallel_for;
          Alcotest.test_case "parallel_fold sum" `Quick test_parallel_fold;
          Alcotest.test_case "parallel_fold merge order" `Quick
            test_parallel_fold_ordered_merge;
          Alcotest.test_case "iter_buffered consume order" `Quick
            test_parallel_iter_buffered_order;
          Alcotest.test_case "worker exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested combinators run serial" `Quick
            test_nested_runs_serial;
          Alcotest.test_case "set_domain_count roundtrip" `Quick
            test_set_domain_count_roundtrip;
        ] );
      ( "engine-identity",
        [
          Alcotest.test_case "tuple-first" `Quick
            (test_engine_identity Database.Tuple_first);
          Alcotest.test_case "version-first" `Quick
            (test_engine_identity Database.Version_first);
          Alcotest.test_case "hybrid" `Quick
            (test_engine_identity Database.Hybrid);
          (* the same identity over LZ77-wrapped v2 blocks: parallel
             workers decompress independently into per-domain scratch,
             so results must still be byte-identical to serial *)
          Alcotest.test_case "tuple-first compressed" `Quick
            (test_engine_identity ~compress:true Database.Tuple_first);
          Alcotest.test_case "version-first compressed" `Quick
            (test_engine_identity ~compress:true Database.Version_first);
          Alcotest.test_case "hybrid compressed" `Quick
            (test_engine_identity ~compress:true Database.Hybrid);
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "buffer pool hammer" `Quick
            test_buffer_pool_hammer;
          Alcotest.test_case "lock release wakes waiter" `Quick
            test_lock_wakeup;
          Alcotest.test_case "lock deadline still enforced" `Quick
            test_lock_deadline;
        ] );
    ]
