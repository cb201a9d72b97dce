(* Resource governor: cancellation contexts and per-resource circuit
   breakers.  See governor.mli for the model. *)

module Obs = Decibel_obs.Obs

exception Cancelled
exception Deadline_exceeded
exception Budget_exceeded of { charged : int; budget : int }

let () =
  Printexc.register_printer (function
    | Cancelled -> Some "Governor.Cancelled"
    | Deadline_exceeded -> Some "Governor.Deadline_exceeded"
    | Budget_exceeded { charged; budget } ->
        Some
          (Printf.sprintf "Governor.Budget_exceeded (%d of %d bytes)" charged
             budget)
    | _ -> None)

let c_cancelled = Obs.counter "governor.cancelled"
let c_deadline = Obs.counter "governor.deadline_exceeded"
let c_budget = Obs.counter "governor.budget_exceeded"
let g_pinned = Obs.gauge "governor.pinned_bytes"

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

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let check t =
    locked t (fun () ->
        match t.state with
        | Closed | Half_open -> ()
        | Open ->
            if Unix.gettimeofday () -. t.opened_at >= t.cooldown_s then
              t.state <- Half_open
            else raise (Tripped t.name))

  let success t =
    locked t (fun () ->
        t.failures <- 0;
        match t.state with
        | Half_open | Open -> t.state <- Closed
        | Closed -> ())

  let trip t =
    t.state <- Open;
    t.opened_at <- Unix.gettimeofday ()

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
