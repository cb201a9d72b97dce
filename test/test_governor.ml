(* Tests for the resource governor: cancellation contexts (deadline,
   manual cancel, byte budget) firing mid-scan on every physical
   scheme, circuit breakers on every database, lock-wait deadlines,
   retry jitter, and — the acceptance property — that an aborted
   operation releases every pool pin and leaves the database returning
   the exact serial fingerprint. *)

open Decibel
open Decibel_bench
module Governor = Decibel_governor.Governor
module Obs = Decibel_obs.Obs
module Ctx = Governor.Ctx
module Breaker = Governor.Breaker
module Par = Decibel_par.Par
module Lock_manager = Decibel_storage.Lock_manager
module Retry = Decibel_fault.Retry
module Failpoint = Decibel_fault.Failpoint
module Prng = Decibel_util.Prng

let now () = Unix.gettimeofday ()

(* run [f] with the pool sized to [n] workers, restoring afterwards *)
let with_domains n f =
  let saved = Par.domain_count () in
  Par.set_domain_count n;
  Fun.protect ~finally:(fun () -> Par.set_domain_count saved) f

(* ------------------------------------------------------------------ *)
(* datasets: a flat branching workload *)

let gov_cfg =
  {
    Config.default with
    Config.branches = 4;
    records_per_branch = 700;
    columns = 8;
    commit_every = 200;
  }

let load_flat ~scheme cfg =
  let dir = Decibel_util.Fsutil.fresh_dir "decibel-gov" in
  let wl = Strategy.generate Strategy.Flat cfg in
  Driver.load ~scheme ~dir cfg wl

let biggest_branch db =
  List.fold_left
    (fun (bb, bn) b ->
      let n = Database.count db b in
      if n > bn then (b, n) else (bb, bn))
    (-1, -1) (Database.heads db)
  |> fst

(* ------------------------------------------------------------------ *)
(* Ctx *)

let test_ctx_basics () =
  let c = Ctx.create () in
  Ctx.check c;
  Ctx.cancel c;
  (match Ctx.check c with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Governor.Cancelled -> ());
  let c = Ctx.create ~deadline_ms:0 () in
  Unix.sleepf 0.002;
  (match Ctx.check c with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Governor.Deadline_exceeded -> ());
  (* cancel takes precedence over an expired deadline *)
  Ctx.cancel c;
  (match Ctx.check c with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Governor.Cancelled -> ());
  let c = Ctx.create ~budget_bytes:100 () in
  Ctx.charge c 50;
  Ctx.check c;
  Ctx.charge c 100;
  (match Ctx.check c with
  | () -> Alcotest.fail "expected Budget_exceeded"
  | exception Governor.Budget_exceeded { charged = 150; budget = 100 } -> ()
  | exception Governor.Budget_exceeded _ ->
      Alcotest.fail "wrong budget payload");
  Alcotest.(check int) "charged" 150 (Ctx.charged_bytes c);
  Ctx.uncharge c 30;
  Alcotest.(check int) "uncharged" 120 (Ctx.charged_bytes c);
  let before = Ctx.pinned_bytes () in
  Ctx.release c;
  Alcotest.(check int) "release drops pins" (before - 120) (Ctx.pinned_bytes ());
  Ctx.release c;
  Alcotest.(check int) "release idempotent" (before - 120) (Ctx.pinned_bytes ())

let test_poller_stride () =
  let c = Ctx.create () in
  Ctx.cancel c;
  let poll = Ctx.poller ~stride:4 (Some c) in
  poll ();
  poll ();
  poll ();
  (match poll () with
  | () -> Alcotest.fail "expected Cancelled on 4th call"
  | exception Governor.Cancelled -> ());
  (* a contextless poller never raises *)
  let noop = Ctx.poller None in
  for _ = 1 to 1000 do
    noop ()
  done

let test_ambient_ctx () =
  let c = Ctx.create ~budget_bytes:10 () in
  Alcotest.(check bool) "no ambient outside" true (Ctx.current () = None);
  Ctx.with_current (Some c) (fun () ->
      Alcotest.(check bool) "ambient inside" true (Ctx.current () = Some c);
      Ctx.charge_current 7);
  Alcotest.(check bool) "restored" true (Ctx.current () = None);
  Alcotest.(check int) "ambient charge landed" 7 (Ctx.charged_bytes c);
  Ctx.charge_current 5;
  Alcotest.(check int) "no ambient, no charge" 7 (Ctx.charged_bytes c);
  Ctx.release c

(* ------------------------------------------------------------------ *)
(* Breaker *)

let test_breaker_lifecycle () =
  let b = Breaker.create ~threshold:3 ~cooldown_s:0.05 ~name:"res" () in
  Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
  Breaker.failure b;
  Breaker.failure b;
  Breaker.check b (* still closed below threshold *);
  Breaker.failure b;
  Alcotest.(check bool) "tripped" true (Breaker.state b = Breaker.Open);
  (match Breaker.check b with
  | () -> Alcotest.fail "expected Tripped"
  | exception Breaker.Tripped "res" -> ()
  | exception Breaker.Tripped _ -> Alcotest.fail "wrong resource");
  Unix.sleepf 0.06;
  Breaker.check b (* cool-down elapsed: half-opens, no raise *);
  Alcotest.(check bool) "half-open" true (Breaker.state b = Breaker.Half_open);
  Breaker.failure b (* failed trial goes straight back open *);
  Alcotest.(check bool) "re-tripped" true (Breaker.state b = Breaker.Open);
  Unix.sleepf 0.06;
  Breaker.check b;
  Breaker.success b;
  Alcotest.(check bool) "closed after trial" true
    (Breaker.state b = Breaker.Closed);
  Alcotest.(check int) "streak cleared" 0 (Breaker.consecutive_failures b)

(* ------------------------------------------------------------------ *)
(* deadlines mid-scan, every physical scheme, serial and 4 domains *)

let deadline_mid_scan ~scheme () =
  let l = load_flat ~scheme gov_cfg in
  Fun.protect ~finally:(fun () -> Driver.close l) @@ fun () ->
  let db = l.Driver.db in
  let reference = Driver.multi_scan_fingerprint l in
  let ctx = Ctx.create ~deadline_ms:1 () in
  (* ~50 µs per consumed tuple, so the 1 ms deadline lands mid-scan *)
  (match
     Database.multi_scan ~ctx db (Database.heads db) (fun _ ->
         Unix.sleepf 0.00005)
   with
  | () -> Alcotest.fail "deadline did not fire mid-scan"
  | exception Governor.Deadline_exceeded -> ());
  Alcotest.(check int) "no pins leaked" 0 (Ctx.pinned_bytes ());
  (* the same on a plain branch scan *)
  let b = biggest_branch db in
  let ctx2 = Ctx.create ~deadline_ms:1 () in
  (match Database.scan ~ctx:ctx2 db b (fun _ -> Unix.sleepf 0.00005) with
  | () -> Alcotest.fail "deadline did not fire on scan"
  | exception Governor.Deadline_exceeded -> ());
  Alcotest.(check int) "no pins leaked (scan)" 0 (Ctx.pinned_bytes ());
  (* an unrestricted pass still sees exactly the same data *)
  Alcotest.(check bool) "multi_scan fingerprint unchanged" true
    (Driver.multi_scan_fingerprint l = reference)

let test_deadline_mid_scan scheme () = deadline_mid_scan ~scheme ()

let test_deadline_mid_scan_domains scheme () =
  with_domains 4 (fun () -> deadline_mid_scan ~scheme ())

(* ------------------------------------------------------------------ *)
(* acceptance: 1 ms deadline on a large multi_scan aborts fast,
   releases its pins, and the rerun matches the serial result *)

let test_acceptance_deadline_multi_scan () =
  let cfg =
    {
      gov_cfg with
      Config.branches = 8;
      records_per_branch = 2500;
      columns = 24;
    }
  in
  let l = load_flat ~scheme:Database.Hybrid cfg in
  Fun.protect ~finally:(fun () -> Driver.close l) @@ fun () ->
  let db = l.Driver.db in
  let t0 = now () in
  let reference = Driver.multi_scan_fingerprint l in
  let serial_s = now () -. t0 in
  let ctx = Ctx.create ~deadline_ms:1 () in
  let t1 = now () in
  (match Database.multi_scan ~ctx db (Database.heads db) (fun _ -> ()) with
  | () -> Alcotest.fail "deadline did not fire"
  | exception Governor.Deadline_exceeded -> ());
  let aborted_s = now () -. t1 in
  Alcotest.(check bool)
    (Printf.sprintf "aborted in %.1f ms, well under 100 ms"
       (aborted_s *. 1e3))
    true (aborted_s < 0.1);
  Alcotest.(check bool) "aborted faster than the serial pass" true
    (aborted_s < serial_s || serial_s < 0.02);
  Alcotest.(check int) "all pool pins released" 0 (Ctx.pinned_bytes ());
  Alcotest.(check bool) "rerun returns the exact serial fingerprint" true
    (Driver.multi_scan_fingerprint l = reference)

(* ------------------------------------------------------------------ *)
(* cancelled operation releases its pins *)

let test_cancel_releases_pins () =
  let l = load_flat ~scheme:Database.Tuple_first gov_cfg in
  Fun.protect ~finally:(fun () -> Driver.close l) @@ fun () ->
  let db = l.Driver.db in
  let b = biggest_branch db in
  let cancelled_before =
    Obs.value_of "governor.cancelled"
  in
  Database.drop_caches db (* force page loads so pins accumulate *);
  let ctx = Ctx.create () in
  let seen = ref 0 in
  (match
     Database.scan ~ctx db b (fun _ ->
         incr seen;
         if !seen = 10 then Ctx.cancel ctx)
   with
  | () -> Alcotest.fail "cancel did not fire"
  | exception Governor.Cancelled -> ());
  Alcotest.(check bool) "scan actually started" true (!seen >= 10);
  Alcotest.(check int) "pins released" 0 (Ctx.pinned_bytes ());
  Alcotest.(check int) "cancelled counted" (cancelled_before + 1)
    (Obs.value_of "governor.cancelled");
  (* the database is still fully readable *)
  let _, n = Driver.scan_fingerprint l ~branch:(Database.branch_name db b) in
  Alcotest.(check bool) "branch still readable" true (n > 0)

(* ------------------------------------------------------------------ *)
(* storm: 1, 4 and 16 client threads running cheap scans, multi-scans
   and 1 ms-deadline scans against one database.  Every op ends ok or
   with Deadline_exceeded, nothing leaks, and no op's context outlives
   it: the ambient context is per thread, so a thread restoring its
   own must never leave another thread's expired deadline behind for
   the lock wait that follows every op *)

let test_storm () =
  let l = load_flat ~scheme:Database.Hybrid gov_cfg in
  Fun.protect ~finally:(fun () -> Driver.close l) @@ fun () ->
  let db = l.Driver.db in
  let locks = Database.locks_of db in
  let heads = Database.heads db in
  let harr = Array.of_list heads in
  let reference = Driver.multi_scan_fingerprint l in
  let ops_per_thread = 20 in
  (* an uncontended lock acquisition raises only if an expired ambient
     deadline is installed on the calling thread *)
  let lock_wait_raises owner =
    match
      Lock_manager.acquire locks ~owner ~resource:"storm" Lock_manager.Shared
    with
    | () ->
        Lock_manager.release_all locks ~owner;
        false
    | exception Governor.Deadline_exceeded -> true
  in
  List.iter
    (fun conc ->
      let ok = Atomic.make 0
      and deadlined = Atomic.make 0
      and lock_raised = Atomic.make 0 in
      let worker tid =
        let rng = Prng.create (Int64.of_int (0x5EDD + (conc * 1000) + tid)) in
        let pick () = harr.(Prng.int rng (Array.length harr)) in
        for _ = 1 to ops_per_thread do
          (match
             match Prng.int rng 10 with
             | 0 -> Database.multi_scan db heads (fun _ -> ())
             | 1 ->
                 (* sleeping per tuple lets the deadline land mid-scan
                    and the other threads run inside its extent *)
                 let ctx = Ctx.create ~deadline_ms:1 () in
                 Database.scan ~ctx db (pick ()) (fun _ -> Unix.sleepf 0.00005)
             | _ -> Database.scan db (pick ()) (fun _ -> ())
           with
          | () -> Atomic.incr ok
          | exception Governor.Deadline_exceeded -> Atomic.incr deadlined);
          if lock_wait_raises (tid + 1) then Atomic.incr lock_raised
        done
      in
      List.iter Thread.join (List.init conc (Thread.create worker));
      let msg what = Printf.sprintf "%d threads: %s" conc what in
      Alcotest.(check int)
        (msg "ok + deadline = ops")
        (conc * ops_per_thread)
        (Atomic.get ok + Atomic.get deadlined);
      Alcotest.(check int) (msg "no pins leaked") 0 (Ctx.pinned_bytes ());
      Alcotest.(check bool)
        (msg "no ambient context left behind")
        true
        (Option.is_none (Ctx.current ()));
      Alcotest.(check int) (msg "no lock wait raised") 0
        (Atomic.get lock_raised);
      Alcotest.(check bool)
        (msg "lock wait after the storm")
        false (lock_wait_raises 0);
      Alcotest.(check bool)
        (msg "multi_scan fingerprint unchanged")
        true
        (Driver.multi_scan_fingerprint l = reference))
    [ 1; 4; 16 ]

(* ------------------------------------------------------------------ *)
(* circuit breaker wired through the facade *)

let test_db_breaker_wiring () =
  let l = load_flat ~scheme:Database.Hybrid gov_cfg in
  Fun.protect ~finally:(fun () -> Driver.close l) @@ fun () ->
  let db = l.Driver.db in
  let b = Database.branch_named db "master" in
  let br = Database.breaker db b in
  (* a successful governed op clears a sub-threshold failure streak *)
  Breaker.failure br;
  Breaker.failure br;
  Database.scan db b (fun _ -> ());
  Alcotest.(check int) "success cleared streak" 0
    (Breaker.consecutive_failures br);
  (* trip it: scans on that branch now fail fast, others are untouched *)
  for _ = 1 to 5 do
    Breaker.failure br
  done;
  Alcotest.(check bool) "open" true (Breaker.state br = Breaker.Open);
  (match Database.scan db b (fun _ -> ()) with
  | () -> Alcotest.fail "expected Tripped"
  | exception Breaker.Tripped name ->
      Alcotest.(check string) "names the branch" "master" name);
  (match List.find_opt (fun b' -> b' <> b) (Database.heads db) with
  | Some other -> Database.scan db other (fun _ -> ())
  | None -> ());
  (* operator reset: close it and the branch serves again *)
  Breaker.success br;
  Database.scan db b (fun _ -> ())

(* concurrent first users of a branch share one breaker: 16 threads
   start together on a fresh branch, each looks its breaker up, scans
   the branch, and looks it up again; every lookup must return the
   same breaker *)
let test_breaker_registry_race () =
  let l = load_flat ~scheme:Database.Hybrid gov_cfg in
  Fun.protect ~finally:(fun () -> Driver.close l) @@ fun () ->
  let db = l.Driver.db in
  let master = Database.branch_named db "master" in
  let fresh =
    Database.create_branch db ~name:"fresh"
      ~from:(Decibel_graph.Version_graph.head (Database.graph db) master)
  in
  let n = 16 in
  let ready = Atomic.make 0 in
  let seen = Array.make (2 * n) None in
  let worker i =
    Atomic.incr ready;
    while Atomic.get ready < n do
      Thread.yield ()
    done;
    seen.(i) <- Some (Database.breaker db fresh);
    Database.scan db fresh (fun _ -> ());
    seen.(n + i) <- Some (Database.breaker db fresh)
  in
  (* four domains of four threads each, so that first uses really
     overlap instead of waiting for a systhread switch *)
  let per = 4 in
  let domain d () =
    List.iter Thread.join
      (List.init per (fun k -> Thread.create worker ((d * per) + k)))
  in
  let domains = List.init (n / per) (fun d -> Domain.spawn (domain d)) in
  List.iter Domain.join domains;
  let first = Option.get seen.(0) in
  Array.iteri
    (fun i br ->
      Alcotest.(check bool)
        (Printf.sprintf "lookup %d is the one breaker" i)
        true
        (Option.get br == first))
    seen

(* ------------------------------------------------------------------ *)
(* byte budget: buffer-pool page loads charge the ambient context *)

let test_budget_on_page_loads () =
  let l = load_flat ~scheme:Database.Tuple_first gov_cfg in
  Fun.protect ~finally:(fun () -> Driver.close l) @@ fun () ->
  let db = l.Driver.db in
  let b = biggest_branch db in
  Database.drop_caches db (* cold cache: the scan must load pages *);
  let ctx = Ctx.create ~budget_bytes:1024 () in
  (match Database.scan ~ctx db b (fun _ -> ()) with
  | () -> Alcotest.fail "expected Budget_exceeded"
  | exception Governor.Budget_exceeded { charged; budget = 1024 } ->
      Alcotest.(check bool) "charged past budget" true (charged > 1024)
  | exception Governor.Budget_exceeded _ ->
      Alcotest.fail "wrong budget payload");
  Alcotest.(check int) "pins released" 0 (Ctx.pinned_bytes ());
  (* an unbudgeted scan over the same branch is unaffected *)
  let n = Database.count db b in
  Alcotest.(check bool) "still readable" true (n > 256)

(* ------------------------------------------------------------------ *)
(* byte budget: a version-first read charges its decoded extent once,
   whatever the domain count *)

let test_vf_charge_domain_independent () =
  let l = load_flat ~scheme:Database.Version_first gov_cfg in
  Fun.protect ~finally:(fun () -> Driver.close l) @@ fun () ->
  let db = l.Driver.db in
  let heads = Database.heads db in
  let b = biggest_branch db in
  let a = List.find (fun h -> h <> b) heads in
  let charged run =
    (* warm: the pool holds the dataset, so no page load charges *)
    run (Ctx.create ());
    let ctx = Ctx.create () in
    run ctx;
    Ctx.charged_bytes ctx
  in
  List.iter
    (fun (name, run) ->
      let serial = with_domains 0 (fun () -> charged run) in
      let par = with_domains 4 (fun () -> charged run) in
      Alcotest.(check bool) (name ^ " charges its extent") true (serial > 0);
      Alcotest.(check int) (name ^ ": 0 vs 4 domains") serial par)
    [
      ("scan", fun ctx -> Database.scan ~ctx db b ignore);
      ("diff", fun ctx -> Database.diff ~ctx db a b ~pos:ignore ~neg:ignore);
      ("multi_scan", fun ctx -> Database.multi_scan ~ctx db heads ignore);
    ]

(* ------------------------------------------------------------------ *)
(* lock waits respect deadlines *)

let test_lock_wait_deadline () =
  let lm = Lock_manager.create ~timeout_s:5.0 () in
  Lock_manager.acquire lm ~owner:1 ~resource:"r" Lock_manager.Exclusive;
  (* via the ambient governor context *)
  let ctx = Ctx.create ~deadline_ms:30 () in
  let t0 = now () in
  (match
     Ctx.with_current (Some ctx) (fun () ->
         Lock_manager.acquire lm ~owner:2 ~resource:"r" Lock_manager.Shared)
   with
  | () -> Alcotest.fail "expected Deadline_exceeded (ambient)"
  | exception Governor.Deadline_exceeded -> ());
  Alcotest.(check bool) "abandoned promptly, not at the 5 s timeout" true
    (now () -. t0 < 2.0);
  (* via an explicit per-call absolute deadline *)
  (match
     Lock_manager.acquire lm
       ~deadline:(now () +. 0.03)
       ~owner:3 ~resource:"r" Lock_manager.Shared
   with
  | () -> Alcotest.fail "expected Deadline_exceeded (explicit)"
  | exception Governor.Deadline_exceeded -> ());
  Lock_manager.release_all lm ~owner:1;
  (* the lock is grantable again afterwards *)
  Lock_manager.acquire lm ~owner:2 ~resource:"r" Lock_manager.Shared;
  Lock_manager.release_all lm ~owner:2

(* ------------------------------------------------------------------ *)
(* retry backoff with full jitter *)

let test_retry_backoff () =
  Alcotest.(check int) "base 0 never sleeps" 0
    (Retry.backoff_ms ~base_delay_ms:0 ~max_delay_ms:1000 ~attempt:5);
  for attempt = 1 to 8 do
    for _ = 1 to 50 do
      let d = Retry.backoff_ms ~base_delay_ms:10 ~max_delay_ms:80 ~attempt in
      let ceiling = min 80 (10 * (1 lsl (attempt - 1))) in
      if d < 0 || d > ceiling then
        Alcotest.fail
          (Printf.sprintf "attempt %d: backoff %d outside [0,%d]" attempt d
             ceiling)
    done
  done;
  (* the exponential actually widens before the cap *)
  let widened = ref false in
  for _ = 1 to 200 do
    if Retry.backoff_ms ~base_delay_ms:10 ~max_delay_ms:1000 ~attempt:4 > 10
    then widened := true
  done;
  Alcotest.(check bool) "later attempts draw past the base" true !widened;
  (* behaviour: transient failures retry, then succeed *)
  let calls = ref 0 in
  let r =
    Retry.with_retries ~attempts:3 ~base_delay_ms:1 (fun () ->
        incr calls;
        if !calls < 3 then raise (Failpoint.Fault_transient "jitter-test")
        else 42)
  in
  Alcotest.(check int) "succeeded on 3rd try" 42 r;
  Alcotest.(check int) "tried thrice" 3 !calls

(* ------------------------------------------------------------------ *)
(* Par combinators honor ?ctx *)

let test_par_ctx () =
  with_domains 4 (fun () ->
      let c = Ctx.create () in
      Ctx.cancel c;
      (match Par.parallel_for ~ctx:c 100_000 (fun _ -> ()) with
      | () -> Alcotest.fail "expected Cancelled from parallel_for"
      | exception Governor.Cancelled -> ());
      let c2 = Ctx.create ~deadline_ms:0 () in
      Unix.sleepf 0.002;
      (match
         Par.parallel_fold ~ctx:c2 ~n:100_000
           ~init:(fun () -> 0)
           ~body:(fun acc _ -> acc + 1)
           ~merge:( + ) 0
       with
      | _ -> Alcotest.fail "expected Deadline_exceeded from parallel_fold"
      | exception Governor.Deadline_exceeded -> ());
      let c3 = Ctx.create () in
      Ctx.cancel c3;
      match
        Par.parallel_iter_buffered ~ctx:c3 ~n:100_000
          ~produce:(fun i -> i)
          ~consume:(fun _ -> ())
          ()
      with
      | () -> Alcotest.fail "expected Cancelled from parallel_iter_buffered"
      | exception Governor.Cancelled -> ())

(* ------------------------------------------------------------------ *)

let scheme_cases name f =
  List.map
    (fun scheme ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name (Database.scheme_name scheme))
        `Quick (f scheme))
    [ Database.Tuple_first; Database.Version_first; Database.Hybrid ]

let () =
  Alcotest.run "governor"
    [
      ( "ctx",
        [
          Alcotest.test_case "check precedence and budget" `Quick
            test_ctx_basics;
          Alcotest.test_case "poller stride" `Quick test_poller_stride;
          Alcotest.test_case "ambient context" `Quick test_ambient_ctx;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trip, half-open, close" `Quick
            test_breaker_lifecycle;
        ] );
      ( "first-use",
        [
          Alcotest.test_case "breaker registry race" `Quick
            test_breaker_registry_race;
        ] );
      ( "deadline",
        scheme_cases "fires mid-scan" test_deadline_mid_scan
        @ scheme_cases "fires mid-scan, 4 domains"
            test_deadline_mid_scan_domains
        @ [
            Alcotest.test_case "acceptance: abort releases everything"
              `Quick test_acceptance_deadline_multi_scan;
          ] );
      ( "release",
        [
          Alcotest.test_case "cancel releases slot and pins" `Quick
            test_cancel_releases_pins;
          Alcotest.test_case "budget stops page-load blowup" `Quick
            test_budget_on_page_loads;
          Alcotest.test_case "storm at 1/4/16 threads" `Quick test_storm;
          Alcotest.test_case "version-first charge, 0 vs 4 domains" `Quick
            test_vf_charge_domain_independent;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "facade breakers" `Quick test_db_breaker_wiring;
          Alcotest.test_case "lock waits respect deadlines" `Quick
            test_lock_wait_deadline;
          Alcotest.test_case "retry backoff jitter" `Quick test_retry_backoff;
          Alcotest.test_case "par combinators" `Quick test_par_ctx;
        ] );
    ]
