(** Maintenance-executor metrics.  The crash-safe protocol itself
    lives in [Database.run_maintenance]; this module is policy-free. *)

module Obs = Decibel_obs.Obs

let c_run = Obs.counter "maint.tasks_run"
let c_failed = Obs.counter "maint.tasks_failed"
let c_rolled_back = Obs.counter "maint.tasks_rolled_back"
let c_reclaimed = Obs.counter "maint.bytes_reclaimed"
let g_running = Obs.gauge "maint.running_since"
let g_streak = Obs.gauge "maint.consecutive_failures"

(* Per-target consecutive-failure streaks feed the watchdog's
   Critical rule: one flaky disk sector makes the same target fail
   again and again, which is a stronger signal than the global failure
   counter.  The gauge exports the worst current streak. *)
let streak_m = Mutex.create ()
let streaks : (string, int) Hashtbl.t = Hashtbl.create 8

let worst_streak () = Hashtbl.fold (fun _ n acc -> max n acc) streaks 0

let note_started () = Obs.set_gauge g_running (Unix.gettimeofday ())

let note_finished ~target ~ok =
  Obs.set_gauge g_running 0.;
  Mutex.lock streak_m;
  if ok then begin
    Obs.incr c_run;
    Hashtbl.remove streaks target
  end
  else begin
    Obs.incr c_failed;
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt streaks target) in
    Hashtbl.replace streaks target n
  end;
  Obs.set_gauge g_streak (float_of_int (worst_streak ()));
  Mutex.unlock streak_m

let note_rolled_back () = Obs.incr c_rolled_back
let note_reclaimed n = if n > 0 then Obs.add c_reclaimed n
