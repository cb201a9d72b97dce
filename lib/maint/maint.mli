(** Maintenance executor support: counters and gauges.

    The policy half lives in the advisor (what to do); this module
    holds the [maint.*] observability surface shared by the
    database-level executor.  The crash-safe rewrite protocol itself
    is implemented in [Database.run_maintenance] against the engine
    hooks, journaled via {!Journal}. *)

(** {1 Observability}

    Counters [maint.tasks_run], [maint.tasks_failed],
    [maint.tasks_rolled_back], [maint.bytes_reclaimed]; gauges
    [maint.running_since] (unix seconds the current task started, 0
    when idle — the watchdog's stall signal) and
    [maint.consecutive_failures] (worst per-target failure streak —
    the watchdog's Critical signal). *)

val note_started : unit -> unit
(** Mark a task as in flight ([maint.running_since] := now). *)

val note_finished : target:string -> ok:bool -> unit
(** Clear the in-flight gauge and update the run/failed counters and
    the per-target consecutive-failure streak. *)

val note_rolled_back : unit -> unit
(** Count one journal-driven rollback (recovery or failed task). *)

val note_reclaimed : int -> unit
(** Add reclaimed bytes (clamped at 0) to [maint.bytes_reclaimed]. *)
