module Governor = Decibel_governor.Governor

type mode = Shared | Exclusive

exception Deadlock of string

type entry = { mutable locks : (int * mode) list }

type t = {
  mutex : Mutex.t;
  changed : Condition.t;
  table : (string, entry) Hashtbl.t;
  timeout_s : float;
  mutable waiters : int;
  mutable watchdog : bool; (* a deadline-tick thread is running *)
}

let create ?(timeout_s = 5.0) () =
  {
    mutex = Mutex.create ();
    changed = Condition.create ();
    table = Hashtbl.create 64;
    timeout_s;
    waiters = 0;
    watchdog = false;
  }

(* [Condition.wait] has no timeout, so a blocked [acquire] woken only
   by [release_all] could overshoot its deadline forever if the holder
   never releases.  While any waiter exists, a lazily spawned watchdog
   thread broadcasts [changed] periodically so waiters re-check their
   deadlines; it exits as soon as the last waiter is gone. *)
let rec watchdog_loop t =
  (* Tick fast enough that short per-call deadlines (a few ms) are
     honored with useful precision, not just the coarse lock timeout. *)
  Thread.delay (min 0.005 (max 0.002 (t.timeout_s /. 10.)));
  Mutex.lock t.mutex;
  let keep_going = t.waiters > 0 in
  if keep_going then Condition.broadcast t.changed else t.watchdog <- false;
  Mutex.unlock t.mutex;
  if keep_going then watchdog_loop t

let entry_of t resource =
  match Hashtbl.find_opt t.table resource with
  | Some e -> e
  | None ->
      let e = { locks = [] } in
      Hashtbl.replace t.table resource e;
      e

let compatible entry ~owner mode =
  match mode with
  | Shared ->
      List.for_all
        (fun (o, m) -> o = owner || m = Shared)
        entry.locks
  | Exclusive -> List.for_all (fun (o, _) -> o = owner) entry.locks

let acquire t ?deadline ~owner ~resource mode =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let e = entry_of t resource in
      let lock_deadline = Unix.gettimeofday () +. t.timeout_s in
      let ctx = Governor.Ctx.current () in
      (* A caller deadline (explicit or via the ambient governor
         context) abandons the wait with [Deadline_exceeded], not
         [Deadlock]: the wait was cut short by the caller's budget,
         not by suspected lock-graph starvation. *)
      let abandon () = raise Governor.Deadline_exceeded in
      let check_caller () =
        (match ctx with
        | Some c -> (
            try Governor.Ctx.check c
            with Governor.Deadline_exceeded -> abandon ())
        | None -> ());
        match deadline with
        | Some d when Unix.gettimeofday () > d -> abandon ()
        | _ -> ()
      in
      let rec wait () =
        check_caller ();
        if compatible e ~owner mode then begin
          let held = List.assoc_opt owner e.locks in
          match held, mode with
          | Some Exclusive, _ | Some Shared, Shared -> ()
          | Some Shared, Exclusive ->
              e.locks <-
                (owner, Exclusive) :: List.remove_assoc owner e.locks
          | None, _ -> e.locks <- (owner, mode) :: e.locks
        end
        else begin
          if Unix.gettimeofday () > lock_deadline then raise (Deadlock resource);
          t.waiters <- t.waiters + 1;
          if not t.watchdog then begin
            t.watchdog <- true;
            ignore (Thread.create watchdog_loop t)
          end;
          (* woken promptly by release_all's broadcast, or by the
             watchdog tick for the deadline re-check *)
          Condition.wait t.changed t.mutex;
          t.waiters <- t.waiters - 1;
          wait ()
        end
      in
      wait ())

let release_all t ~owner =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Hashtbl.iter
        (fun _ e -> e.locks <- List.filter (fun (o, _) -> o <> owner) e.locks)
        t.table;
      Condition.broadcast t.changed)

let holders t ~resource =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match Hashtbl.find_opt t.table resource with
      | Some e -> e.locks
      | None -> [])
