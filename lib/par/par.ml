(* Process-global pool of Domain.spawn workers.

   Single-submitter design: batches are only ever submitted from a
   non-worker domain, and every combinator below is synchronous (it
   returns once its whole batch has drained).  The job queue therefore
   never holds jobs from two batches at once, which lets the
   submitting domain help execute queued jobs while it waits without
   risk of stealing work from an unrelated batch. *)

type pool = {
  size : int;
  jobs : (unit -> unit) Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Workers mark themselves via DLS so combinators invoked from inside
   a worker (nested parallelism) degrade to serial loops instead of
   deadlocking on their own pool. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

let worker_main pool () =
  Domain.DLS.set in_worker_key true;
  let rec loop () =
    Mutex.lock pool.m;
    let rec take () =
      if pool.stop then None
      else if Queue.is_empty pool.jobs then (
        Condition.wait pool.nonempty pool.m;
        take ())
      else Some (Queue.pop pool.jobs)
    in
    let job = take () in
    Mutex.unlock pool.m;
    match job with
    | None -> ()
    | Some job ->
        job ();
        loop ()
  in
  loop ()

let spawn_pool n =
  let p =
    {
      size = n;
      jobs = Queue.create ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      stop = false;
      workers = [];
    }
  in
  p.workers <- List.init n (fun _ -> Domain.spawn (worker_main p));
  p

let teardown p =
  Mutex.lock p.m;
  p.stop <- true;
  Condition.broadcast p.nonempty;
  Mutex.unlock p.m;
  List.iter Domain.join p.workers;
  p.workers <- []

let default_domains () = max 0 (Domain.recommended_domain_count () - 1)

let env_domains () =
  match Sys.getenv_opt "DECIBEL_DOMAINS" with
  | None -> default_domains ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> max 0 n
      | None -> default_domains ())

(* [state_m] guards [requested] and [pool_ref]; it is only touched
   from non-worker domains (pool management, not the hot path). *)
let state_m = Mutex.create ()
let requested = ref (env_domains ())
let pool_ref : pool option ref = ref None

let domain_count () =
  Mutex.lock state_m;
  let n = !requested in
  Mutex.unlock state_m;
  n

let shutdown () =
  Mutex.lock state_m;
  let p = !pool_ref in
  pool_ref := None;
  Mutex.unlock state_m;
  match p with None -> () | Some p -> teardown p

let () = at_exit shutdown

let set_domain_count n =
  let n = max 0 n in
  Mutex.lock state_m;
  requested := n;
  let stale =
    match !pool_ref with
    | Some p when p.size <> n ->
        pool_ref := None;
        Some p
    | _ -> None
  in
  Mutex.unlock state_m;
  match stale with None -> () | Some p -> teardown p

(* Returns the live pool, spawning it on first use.  [None] when the
   pool is disabled or the caller is itself a worker. *)
let usable_pool () =
  if in_worker () then None
  else begin
    Mutex.lock state_m;
    let p =
      if !requested = 0 then None
      else
        match !pool_ref with
        | Some p -> Some p
        | None ->
            let p = spawn_pool !requested in
            pool_ref := Some p;
            Some p
    in
    Mutex.unlock state_m;
    p
  end

let available () = (not (in_worker ())) && domain_count () > 0

(* A dedicated domain outside the pool, for long-lived background
   services.  Marked as a worker so combinators it calls stay serial
   rather than submitting batches into the scan pool (single-submitter
   invariant). *)
let spawn_domain f =
  Domain.spawn (fun () ->
      Domain.DLS.set in_worker_key true;
      f ())

(* ------------------------------------------------------------------ *)
(* batch execution *)

type batch = {
  bm : Mutex.t;
  done_ : Condition.t;
  mutable remaining : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

let run_tasks p (tasks : (unit -> unit) array) =
  let b =
    {
      bm = Mutex.create ();
      done_ = Condition.create ();
      remaining = Array.length tasks;
      failure = None;
    }
  in
  let wrap task () =
    (try task ()
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock b.bm;
       if b.failure = None then b.failure <- Some (e, bt);
       Mutex.unlock b.bm);
    Mutex.lock b.bm;
    b.remaining <- b.remaining - 1;
    if b.remaining = 0 then Condition.broadcast b.done_;
    Mutex.unlock b.bm
  in
  Mutex.lock p.m;
  Array.iter (fun t -> Queue.push (wrap t) p.jobs) tasks;
  Condition.broadcast p.nonempty;
  Mutex.unlock p.m;
  (* The submitter helps drain the queue, then blocks until stragglers
     running on workers finish. *)
  let rec help () =
    Mutex.lock p.m;
    let job = if Queue.is_empty p.jobs then None else Some (Queue.pop p.jobs) in
    Mutex.unlock p.m;
    match job with
    | Some j ->
        j ();
        help ()
    | None ->
        Mutex.lock b.bm;
        while b.remaining > 0 do
          Condition.wait b.done_ b.bm
        done;
        Mutex.unlock b.bm
  in
  help ();
  match b.failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ------------------------------------------------------------------ *)
(* combinators *)

module Ctx = Decibel_governor.Governor.Ctx
module Prof = Decibel_obs.Obs.Prof

(* Cooperative cancellation: serial paths poll the context on a
   stride; parallel chunk tasks check it once up front (all tasks of a
   batch are enqueued eagerly, so after the first failure the
   remaining chunks reduce to this check) and install the context as
   the worker domain's ambient context so that budget charging in
   lower layers (buffer-pool page loads) attributes to the right
   operation. *)
let ctx_check = function None -> () | Some c -> Ctx.check c

let with_ctx ctx f =
  match ctx with None -> f () | Some _ -> Ctx.with_current ctx f

(* Profiling-trace propagation: each combinator captures the
   submitting domain's ambient trace and re-installs it around every
   worker task, so cost counters hit on worker domains attribute to
   the requesting trace.  Serial paths stay on the submitting domain,
   where the trace is already ambient.  The captured trace is installed
   inside the context, so it wins over a trace the context carries: it
   is the operation's own meter, whose chain reaches that trace
   anyway. *)
let with_trace tr f =
  match tr with None -> f () | Some t -> Prof.with_attribution t f

let chunk_ranges ?chunk n =
  if n <= 0 then [||]
  else
    let size =
      match chunk with
      | Some c -> max 1 c
      | None ->
          (* a few chunks per worker, floored so tiny inputs stay in
             one piece *)
          let workers = max 1 (domain_count ()) in
          max 1024 (1 + ((n - 1) / (workers * 4)))
    in
    let nchunks = (n + size - 1) / size in
    Array.init nchunks (fun k -> (k * size, min n ((k + 1) * size)))

let serial_for ?ctx n f =
  let poll = Ctx.poller ctx in
  for i = 0 to n - 1 do
    poll ();
    f i
  done

let parallel_for ?ctx ?chunk n f =
  if n <= 0 then ()
  else
    match usable_pool () with
    | None -> serial_for ?ctx n f
    | Some p ->
        let ranges = chunk_ranges ?chunk n in
        if Array.length ranges <= 1 then serial_for ?ctx n f
        else
          let tr = Prof.current_trace () in
          run_tasks p
            (Array.map
               (fun (lo, hi) () ->
                 ctx_check ctx;
                 with_ctx ctx (fun () ->
                     with_trace tr (fun () ->
                         for i = lo to hi - 1 do
                           f i
                         done)))
               ranges)

let serial_fold ?ctx ~n ~init ~body ~merge z =
  let poll = Ctx.poller ctx in
  let acc = ref (init ()) in
  for i = 0 to n - 1 do
    poll ();
    acc := body !acc i
  done;
  merge z !acc

let parallel_fold ?ctx ?chunk ~n ~init ~body ~merge z =
  if n <= 0 then z
  else
    match usable_pool () with
    | None -> serial_fold ?ctx ~n ~init ~body ~merge z
    | Some p ->
        let ranges = chunk_ranges ?chunk n in
        let nchunks = Array.length ranges in
        if nchunks <= 1 then serial_fold ?ctx ~n ~init ~body ~merge z
        else begin
          let results = Array.make nchunks None in
          let tr = Prof.current_trace () in
          run_tasks p
            (Array.init nchunks (fun k () ->
                 ctx_check ctx;
                 with_ctx ctx (fun () ->
                     with_trace tr (fun () ->
                         let lo, hi = ranges.(k) in
                         let acc = ref (init ()) in
                         for i = lo to hi - 1 do
                           acc := body !acc i
                         done;
                         results.(k) <- Some !acc))));
          Array.fold_left
            (fun z r -> match r with Some a -> merge z a | None -> z)
            z results
        end

let parallel_iter_buffered ?ctx ~n ~produce ~consume () =
  if n <= 0 then ()
  else
    match usable_pool () with
    | None ->
        let poll = Ctx.poller ~stride:1 ctx in
        for i = 0 to n - 1 do
          poll ();
          consume (produce i)
        done
    | Some p when n > 1 ->
        let results = Array.make n None in
        let tr = Prof.current_trace () in
        run_tasks p
          (Array.init n (fun i () ->
               ctx_check ctx;
               with_ctx ctx (fun () ->
                   with_trace tr (fun () -> results.(i) <- Some (produce i)))));
        (* the consumer may cancel its own context mid-drain, so the
           drain loop polls between buffers, not just once up front *)
        let poll = Ctx.poller ~stride:1 ctx in
        Array.iter
          (function
            | Some r ->
                poll ();
                consume r
            | None -> ())
          results
    | Some _ ->
        ctx_check ctx;
        consume (produce 0)
