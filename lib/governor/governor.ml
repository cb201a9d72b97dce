(* Resource governor: cancellation contexts, weighted admission with
   bounded queues and load shedding, and per-resource circuit
   breakers.  See governor.mli for the model. *)

module Obs = Decibel_obs.Obs

exception Cancelled
exception Deadline_exceeded
exception Budget_exceeded of { charged : int; budget : int }
exception Overloaded of { retry_after_ms : int }

let () =
  Printexc.register_printer (function
    | Cancelled -> Some "Governor.Cancelled"
    | Deadline_exceeded -> Some "Governor.Deadline_exceeded"
    | Budget_exceeded { charged; budget } ->
        Some
          (Printf.sprintf "Governor.Budget_exceeded (%d of %d bytes)" charged
             budget)
    | Overloaded { retry_after_ms } ->
        Some
          (Printf.sprintf "Governor.Overloaded (retry after %d ms)"
             retry_after_ms)
    | _ -> None)

let c_admitted = Obs.counter "governor.admitted"
let c_shed = Obs.counter "governor.shed"
let c_cancelled = Obs.counter "governor.cancelled"
let c_deadline = Obs.counter "governor.deadline_exceeded"
let c_budget = Obs.counter "governor.budget_exceeded"
let g_queue = Obs.gauge "governor.queue_depth"
let g_pinned = Obs.gauge "governor.pinned_bytes"
let h_wait = Obs.histogram "governor.admission_wait"

(* ------------------------------------------------------------------ *)

module Ctx = struct
  type t = {
    deadline : float option; (* absolute, Unix.gettimeofday base *)
    budget : int option; (* transient bytes *)
    cancel_flag : bool Atomic.t;
    charged : int Atomic.t;
    released : bool Atomic.t;
    trace : Obs.Prof.trace option; (* request profiling identity *)
  }

  (* one global accumulator behind the pinned-bytes gauge; contexts
     add on charge and subtract what remains on [release] *)
  let global_pinned = Atomic.make 0

  let sync_pinned () = Obs.set_gauge g_pinned (float (Atomic.get global_pinned))

  let create ?deadline_ms ?budget_bytes ?trace () =
    let deadline =
      Option.map
        (fun ms -> Unix.gettimeofday () +. (float ms /. 1e3))
        deadline_ms
    in
    {
      deadline;
      budget = budget_bytes;
      cancel_flag = Atomic.make false;
      charged = Atomic.make 0;
      released = Atomic.make false;
      trace;
    }

  let cancel t = Atomic.set t.cancel_flag true
  let cancelled t = Atomic.get t.cancel_flag
  let deadline t = t.deadline
  let trace t = t.trace

  let remaining_ms t =
    Option.map
      (fun d -> int_of_float (ceil ((d -. Unix.gettimeofday ()) *. 1e3)))
      t.deadline

  let check t =
    if Atomic.get t.cancel_flag then raise Cancelled;
    (match t.deadline with
    | Some d when Unix.gettimeofday () > d -> raise Deadline_exceeded
    | _ -> ());
    match t.budget with
    | Some b when Atomic.get t.charged > b ->
        raise (Budget_exceeded { charged = Atomic.get t.charged; budget = b })
    | _ -> ()

  let poller ?(stride = 256) ctx =
    match ctx with
    | None -> fun () -> ()
    | Some c ->
        (* round the stride up to a power of two so the poll test is a
           single mask *)
        let s = ref 1 in
        while !s < stride do
          s := !s lsl 1
        done;
        let mask = !s - 1 in
        let n = ref 0 in
        fun () ->
          incr n;
          if !n land mask = 0 then check c

  let charge t n =
    if n > 0 && not (Atomic.get t.released) then begin
      ignore (Atomic.fetch_and_add t.charged n);
      ignore (Atomic.fetch_and_add global_pinned n);
      sync_pinned ()
    end

  let uncharge t n =
    if n > 0 && not (Atomic.get t.released) then begin
      ignore (Atomic.fetch_and_add t.charged (-n));
      ignore (Atomic.fetch_and_add global_pinned (-n));
      sync_pinned ()
    end

  let charged_bytes t = Atomic.get t.charged

  let release t =
    if not (Atomic.exchange t.released true) then begin
      let n = Atomic.get t.charged in
      if n <> 0 then ignore (Atomic.fetch_and_add global_pinned (-n));
      sync_pinned ()
    end

  let pinned_bytes () = Atomic.get global_pinned

  (* ambient context per thread: systhreads share their domain's DLS,
     so one per-domain slot would let a thread's restore leave another
     thread's context (and its expired deadline) behind.  Each domain
     keeps an immutable map from thread id, swapped atomically because
     threads of one domain may switch mid-update. *)
  module Tmap = Map.Make (Int)

  let current_key : t Tmap.t Atomic.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Atomic.make Tmap.empty)

  let current () =
    let m = Atomic.get (Domain.DLS.get current_key) in
    if Tmap.is_empty m then None
    else Tmap.find_opt (Thread.id (Thread.self ())) m

  let set_current ctx =
    let cell = Domain.DLS.get current_key in
    let id = Thread.id (Thread.self ()) in
    let rec go () =
      let m = Atomic.get cell in
      let m' =
        match ctx with Some c -> Tmap.add id c m | None -> Tmap.remove id m
      in
      if not (Atomic.compare_and_set cell m m') then go ()
    in
    go ()

  let with_current ctx f =
    let saved = current () in
    set_current ctx;
    let body () = Fun.protect ~finally:(fun () -> set_current saved) f in
    (* a context that carries a trace makes it ambient for its extent;
       a traceless context (or None) never severs an already-ambient
       trace, so Database.profile keeps attributing through the
       per-op governed contexts it did not create *)
    match ctx with
    | Some { trace = Some tr; _ } -> Obs.Prof.with_attribution tr body
    | _ -> body ()

  let charge_current n =
    match current () with Some c -> charge c n | None -> ()
end

(* ------------------------------------------------------------------ *)

type op_class = Cheap | Heavy

module Admission = struct
  type t = {
    mutex : Mutex.t;
    cond : Condition.t;
    capacity : int;
    heavy_weight : int;
    max_queue : int;
    mutable in_use : int;
    mutable waiting : int;
    mutable admitted : int;
    mutable shed : int;
    (* exponential moving average of slot-hold seconds; the basis of
       the [retry_after_ms] shedding hint *)
    mutable avg_hold_s : float;
    mutable watchdog : bool; (* ticker spawned? *)
  }

  type slot = { owner : t; weight : int; t_grant : float; done_ : bool Atomic.t }

  let create ?(capacity = 64) ?(heavy_weight = 4) ?(max_queue = 128) () =
    if capacity < 1 then invalid_arg "Admission.create: capacity < 1";
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      capacity;
      heavy_weight = max 1 (min heavy_weight capacity);
      max_queue = max 0 max_queue;
      in_use = 0;
      waiting = 0;
      admitted = 0;
      shed = 0;
      avg_hold_s = 0.005;
      watchdog = false;
    }

  let weight t = function Cheap -> 1 | Heavy -> t.heavy_weight

  let retry_after_ms t =
    (* expect to wait about one average hold per queued op ahead of us *)
    let per = max 0.001 t.avg_hold_s in
    max 1 (int_of_float (ceil (per *. float (t.waiting + 1) *. 1e3)))

  (* [Condition] has no timed wait, so deadline-bounded waiters rely on
     a lazily-spawned ticker broadcasting while anyone waits (same
     scheme as [Lock_manager]'s watchdog). *)
  let ensure_watchdog t =
    if not t.watchdog then begin
      t.watchdog <- true;
      let _tid =
        Thread.create
          (fun () ->
            let rec loop () =
              Thread.delay 0.002;
              Mutex.lock t.mutex;
              if t.waiting > 0 then Condition.broadcast t.cond;
              Mutex.unlock t.mutex;
              loop ()
            in
            loop ())
          ()
      in
      ()
    end

  let set_queue_gauge t = Obs.set_gauge g_queue (float t.waiting)

  let admit ?ctx t cls =
    let w = weight t cls in
    let t0 = Unix.gettimeofday () in
    Mutex.lock t.mutex;
    let granted () =
      t.in_use <- t.in_use + w;
      t.admitted <- t.admitted + 1;
      Mutex.unlock t.mutex;
      Obs.incr c_admitted;
      Obs.observe h_wait (Unix.gettimeofday () -. t0);
      { owner = t; weight = w; t_grant = Unix.gettimeofday ();
        done_ = Atomic.make false }
    in
    if t.in_use + w <= t.capacity then granted ()
    else if t.waiting >= t.max_queue then begin
      t.shed <- t.shed + 1;
      let hint = retry_after_ms t in
      Mutex.unlock t.mutex;
      Obs.incr c_shed;
      Obs.event ~level:Obs.Warn ~comp:"governor"
        ~attrs:[ ("retry_after_ms", string_of_int hint) ]
        "admission queue full; operation shed";
      raise (Overloaded { retry_after_ms = hint })
    end
    else begin
      (match ctx with Some _ -> ensure_watchdog t | None -> ());
      t.waiting <- t.waiting + 1;
      set_queue_gauge t;
      let leave_queue () =
        t.waiting <- t.waiting - 1;
        set_queue_gauge t
      in
      let rec wait () =
        (* poll the context while queued so a cancelled or expired
           operation never consumes a slot *)
        (match ctx with
        | Some c -> (
            try Ctx.check c
            with e ->
              leave_queue ();
              Mutex.unlock t.mutex;
              raise e)
        | None -> ());
        if t.in_use + w <= t.capacity then begin
          leave_queue ();
          granted ()
        end
        else begin
          Condition.wait t.cond t.mutex;
          wait ()
        end
      in
      wait ()
    end

  let release s =
    if not (Atomic.exchange s.done_ true) then begin
      let t = s.owner in
      let held = Unix.gettimeofday () -. s.t_grant in
      Mutex.lock t.mutex;
      t.in_use <- t.in_use - s.weight;
      t.avg_hold_s <- (0.8 *. t.avg_hold_s) +. (0.2 *. held);
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex
    end

  type stats = {
    capacity : int;
    in_use : int;
    queue_depth : int;
    admitted : int;
    shed : int;
    avg_hold_ms : float;
  }

  let stats t =
    Mutex.lock t.mutex;
    let s =
      {
        capacity = t.capacity;
        in_use = t.in_use;
        queue_depth = t.waiting;
        admitted = t.admitted;
        shed = t.shed;
        avg_hold_ms = t.avg_hold_s *. 1e3;
      }
    in
    Mutex.unlock t.mutex;
    s
end

(* ------------------------------------------------------------------ *)

module Breaker = struct
  type state = Closed | Open | Half_open

  exception Tripped of string

  let () =
    Printexc.register_printer (function
      | Tripped name -> Some (Printf.sprintf "Breaker.Tripped(%s)" name)
      | _ -> None)

  type t = {
    name : string;
    threshold : int;
    cooldown_s : float;
    mutex : Mutex.t;
    mutable state : state;
    mutable failures : int; (* consecutive *)
    mutable opened_at : float;
  }

  let create ?(threshold = 5) ?(cooldown_s = 30.) ~name () =
    {
      name;
      threshold = max 1 threshold;
      cooldown_s;
      mutex = Mutex.create ();
      state = Closed;
      failures = 0;
      opened_at = 0.;
    }

  let state_name = function
    | Closed -> "closed"
    | Open -> "open"
    | Half_open -> "half-open"

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let check t =
    locked t (fun () ->
        match t.state with
        | Closed | Half_open -> ()
        | Open ->
            if Unix.gettimeofday () -. t.opened_at >= t.cooldown_s then begin
              t.state <- Half_open;
              Obs.event ~comp:"governor"
                ~attrs:[ ("breaker", t.name) ]
                "circuit breaker half-open"
            end
            else raise (Tripped t.name))

  let success t =
    locked t (fun () ->
        t.failures <- 0;
        match t.state with
        | Half_open | Open ->
            t.state <- Closed;
            Obs.event ~comp:"governor"
              ~attrs:[ ("breaker", t.name) ]
              "circuit breaker closed"
        | Closed -> ())

  let trip t =
    t.state <- Open;
    t.opened_at <- Unix.gettimeofday ();
    Obs.event ~level:Obs.Warn ~comp:"governor"
      ~attrs:
        [ ("breaker", t.name); ("failures", string_of_int t.failures) ]
      "circuit breaker tripped"

  let failure t =
    locked t (fun () ->
        t.failures <- t.failures + 1;
        match t.state with
        | Half_open -> trip t (* the trial failed: straight back open *)
        | Closed -> if t.failures >= t.threshold then trip t
        | Open -> ())

  let state t = locked t (fun () -> t.state)
  let name t = t.name
  let consecutive_failures t = locked t (fun () -> t.failures)
end

(* ------------------------------------------------------------------ *)

let note_outcome = function
  | Cancelled -> Obs.incr c_cancelled
  | Deadline_exceeded -> Obs.incr c_deadline
  | Budget_exceeded _ -> Obs.incr c_budget
  | _ -> ()

let counters () =
  List.map
    (fun c -> (Obs.counter_name c, Obs.counter_value c))
    [ c_admitted; c_shed; c_cancelled; c_deadline; c_budget ]
