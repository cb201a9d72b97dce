(* Tests for the request-scoped profiler (EXPLAIN ANALYZE): operator
   trees with cost counters, trace-context propagation into pool
   worker domains, partial profiles flushed on governed aborts, the
   profile ring, tail-latency exemplars, and the ring's JSON
   serialisation. *)

open Decibel
open Decibel_storage
module Obs = Decibel_obs.Obs
module Prof = Obs.Prof
module Par = Decibel_par.Par
module Governor = Decibel_governor.Governor

let schema = Schema.ints ~name:"r" ~width:4

let row k = [| Value.int k; Value.int 1; Value.int 2; Value.int 3 |]

let with_db ?pool scheme f =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-test-prof" in
  let db = Database.open_ ?pool ~scheme ~dir ~schema () in
  Fun.protect
    ~finally:(fun () ->
      Database.close db;
      Decibel_util.Fsutil.rm_rf dir)
    (fun () -> f db)

let seed db n =
  let master = Database.branch_named db "master" in
  for k = 1 to n do
    Database.insert db master (row k)
  done;
  ignore (Database.commit db master ~message:"seed");
  master

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let find_node p name =
  let rec go n =
    if n.Prof.n_name = name then Some n
    else List.fold_left (fun acc c -> if acc = None then go c else acc)
           None n.Prof.n_children
  in
  go p.Prof.p_root

(* ------------------------------------------------------------------ *)
(* the operator tree of a plain scan *)

let test_profile_tree () =
  Obs.set_enabled true;
  Obs.reset ();
  with_db Database.Hybrid (fun db ->
      let master = seed db 100 in
      let n, p =
        Database.profile ~label:"t1" db (fun () ->
            let n = ref 0 in
            Database.scan db master (fun _ -> incr n);
            !n)
      in
      Alcotest.(check int) "scan sees every row" 100 n;
      Alcotest.(check string) "label kept" "t1" p.Prof.p_label;
      Alcotest.(check bool) "not aborted" true (p.Prof.p_aborted = None);
      Alcotest.(check bool) "trace id non-empty" true
        (String.length p.Prof.p_trace_id > 0);
      (* the engine scan span became an operator node under the root *)
      let scan =
        match find_node p "hybrid.scan" with
        | Some node -> node
        | None -> Alcotest.fail "no hybrid.scan node in the profile tree"
      in
      Alcotest.(check int) "scan node rows" 100 scan.Prof.n_rows;
      Alcotest.(check bool) "scan node timed" true (scan.Prof.n_dur >= 0.);
      (* request totals: every emitted tuple attributed to this trace *)
      Alcotest.(check int) "tuples_emitted total" 100
        (Prof.total p Prof.Tuples_emitted);
      Alcotest.(check bool) "tuples_scanned >= emitted" true
        (Prof.total p Prof.Tuples_scanned >= 100);
      (* cumulative semantics: the root includes its children *)
      let idx k =
        let rec go i = function
          | [] -> assert false
          | k' :: rest -> if k = k' then i else go (i + 1) rest
        in
        go 0 Prof.all_kinds
      in
      Alcotest.(check bool) "root >= child per kind" true
        (List.for_all
           (fun k ->
             p.Prof.p_root.Prof.n_counters.(idx k)
             >= scan.Prof.n_counters.(idx k))
           Prof.all_kinds);
      (* ring and accessors *)
      (match Database.last_profile db with
      | Some q ->
          Alcotest.(check string) "last_profile is this request"
            p.Prof.p_trace_id q.Prof.p_trace_id
      | None -> Alcotest.fail "last_profile empty");
      Alcotest.(check bool) "recent_profiles holds it" true
        (List.exists
           (fun q -> q.Prof.p_trace_id = p.Prof.p_trace_id)
           (Database.recent_profiles db));
      (* renders *)
      let text = Prof.render p in
      Alcotest.(check bool) "render names the operator" true
        (contains text "hybrid.scan");
      Alcotest.(check bool) "render shows rows" true
        (contains text "rows=100");
      let js = Prof.profile_json p in
      Alcotest.(check bool) "json object shape" true
        (js.[0] = '{' && js.[String.length js - 1] = '}');
      Alcotest.(check bool) "json carries the trace id" true
        (contains js p.Prof.p_trace_id))

(* ------------------------------------------------------------------ *)
(* trace propagation into pool worker domains *)

let with_domains n f =
  let saved = Par.domain_count () in
  Par.set_domain_count n;
  Fun.protect ~finally:(fun () -> Par.set_domain_count saved) f

let test_parallel_attribution () =
  Obs.set_enabled true;
  Obs.reset ();
  with_domains 4 (fun () ->
      Alcotest.(check int) "pool is 4 wide" 4 (Par.domain_count ());
      (* worker tasks run on other domains; their counter adds must
         land in the submitting request's bag *)
      let (), p =
        Prof.profiled ~label:"par" (fun () ->
            Par.parallel_for 1000 (fun _ -> Obs.charge Prof.Tuples_scanned 1))
      in
      Alcotest.(check int) "all worker increments attributed" 1000
        (Prof.total p Prof.Tuples_scanned);
      (* and a real 4-domain engine scan attributes its tuples *)
      with_db Database.Tuple_first (fun db ->
          let master = seed db 400 in
          let n, p =
            Database.profile ~label:"par-scan" db (fun () ->
                let n = ref 0 in
                let m = Mutex.create () in
                Database.multi_scan db [ master ] (fun _ ->
                    Mutex.lock m;
                    incr n;
                    Mutex.unlock m);
                !n)
          in
          Alcotest.(check int) "multi_scan visits every row" 400 n;
          Alcotest.(check bool) "worker-domain tuples attributed" true
            (Prof.total p Prof.Tuples_emitted >= 400)))

let test_iter_buffered_propagation () =
  Obs.set_enabled true;
  Obs.reset ();
  with_domains 4 (fun () ->
      let drained = ref 0 in
      let (), p =
        Prof.profiled ~label:"buf" (fun () ->
            Par.parallel_iter_buffered ~n:500
              ~produce:(fun i ->
                (* runs on a pool worker *)
                Obs.charge Prof.Tuples_scanned 1;
                i)
              ~consume:(fun i ->
                (* runs back on the calling domain, interleaved with
                   in-flight producers *)
                Obs.charge Prof.Tuples_emitted 1;
                Alcotest.(check int) "in-order drain" !drained i;
                incr drained)
              ())
      in
      Alcotest.(check int) "every produce attributed" 500
        (Prof.total p Prof.Tuples_scanned);
      Alcotest.(check int) "every consume attributed" 500
        (Prof.total p Prof.Tuples_emitted);
      Alcotest.(check int) "all items drained" 500 !drained)

(* ------------------------------------------------------------------ *)
(* governed aborts still flush a (partial) profile *)

let test_deadline_flushes_partial () =
  Obs.set_enabled true;
  Obs.reset ();
  with_db Database.Tuple_first (fun db ->
      let master = seed db 200 in
      let ctx = Governor.Ctx.create ~deadline_ms:0 () in
      Unix.sleepf 0.005;
      (match
         Database.profile ~label:"doomed" db (fun () ->
             Database.scan ~ctx db master (fun _ -> ()))
       with
      | _ -> Alcotest.fail "deadline did not fire"
      | exception Governor.Deadline_exceeded -> ());
      match Database.last_profile db with
      | None -> Alcotest.fail "aborted request left no profile"
      | Some p ->
          Alcotest.(check string) "partial profile kept" "doomed"
            p.Prof.p_label;
          Alcotest.(check bool) "marked aborted" true
            (p.Prof.p_aborted <> None);
          Alcotest.(check bool) "prof.aborted counted" true
            (Obs.value_of "prof.aborted" >= 1))

let test_cancel_flushes_partial () =
  Obs.set_enabled true;
  Obs.reset ();
  with_db Database.Hybrid (fun db ->
      let master = seed db 200 in
      let ctx = Governor.Ctx.create () in
      Governor.Ctx.cancel ctx;
      (match
         Database.profile ~label:"cancelled" db (fun () ->
             Database.scan ~ctx db master (fun _ -> ()))
       with
      | _ -> Alcotest.fail "cancel did not fire"
      | exception Governor.Cancelled -> ());
      match Database.last_profile db with
      | None -> Alcotest.fail "cancelled request left no profile"
      | Some p ->
          Alcotest.(check bool) "marked aborted" true
            (p.Prof.p_aborted <> None))

(* ------------------------------------------------------------------ *)
(* ring capacity, exemplars, ring serialisation *)

let test_ring_capacity () =
  Obs.set_enabled true;
  Obs.reset ();
  Prof.set_profile_capacity 4;
  Fun.protect
    ~finally:(fun () -> Prof.set_profile_capacity 16)
    (fun () ->
      for i = 1 to 6 do
        ignore (Prof.profiled ~label:(Printf.sprintf "r%d" i) (fun () -> ()))
      done;
      let ring = Prof.recent_profiles () in
      Alcotest.(check int) "ring capped" 4 (List.length ring);
      Alcotest.(check string) "oldest survivor" "r3"
        (List.hd ring).Prof.p_label;
      Alcotest.(check string) "newest last" "r6"
        (List.nth ring 3).Prof.p_label;
      Alcotest.(check bool) "profiles counted" true
        (Obs.value_of "prof.profiles" >= 6))

let test_latency_exemplars () =
  Obs.set_enabled true;
  Obs.reset ();
  let (), p =
    Prof.profiled ~label:"ex" (fun () ->
        Obs.with_span "test.exemplar_span" (fun () -> ()))
  in
  let h = Obs.histogram "test.exemplar_span" in
  (* the span's histogram bucket remembers which request it saw, so a
     p99 outlier links back to a trace id *)
  Alcotest.(check (option string)) "exemplar near p99 is this trace"
    (Some p.Prof.p_trace_id)
    (Obs.exemplar_near h 0.99);
  Alcotest.(check bool) "raw exemplar array populated" true
    (Array.exists (fun s -> s = p.Prof.p_trace_id) (Obs.hist_exemplars h))

let test_profile_route () =
  Obs.set_enabled true;
  Obs.reset ();
  with_db Database.Hybrid (fun db ->
      let master = seed db 10 in
      let _, p =
        Database.profile ~label:"ring" db (fun () ->
            Database.scan db master (fun _ -> ()))
      in
      let body = Prof.profiles_json () in
      Alcotest.(check bool) "body is a json array" true
        (String.length body > 0 && body.[0] = '[');
      Alcotest.(check bool) "carries the recorded profile" true
        (contains body p.Prof.p_trace_id))

let () =
  Alcotest.run "profile"
    [
      ( "tree",
        [
          Alcotest.test_case "operator tree + counters" `Quick
            test_profile_tree;
          Alcotest.test_case "ring capacity" `Quick test_ring_capacity;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "4-domain parallel_for + multi_scan" `Quick
            test_parallel_attribution;
          Alcotest.test_case "parallel_iter_buffered drains" `Quick
            test_iter_buffered_propagation;
        ] );
      ( "aborts",
        [
          Alcotest.test_case "deadline flushes partial" `Quick
            test_deadline_flushes_partial;
          Alcotest.test_case "cancel flushes partial" `Quick
            test_cancel_flushes_partial;
        ] );
      ( "surfacing",
        [
          Alcotest.test_case "latency exemplars" `Quick
            test_latency_exemplars;
          Alcotest.test_case "/profile route" `Quick test_profile_route;
        ] );
    ]
