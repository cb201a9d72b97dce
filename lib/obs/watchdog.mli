(** Health watchdog: a rules engine over report/workload/metric
    snapshots with a sticky, leveled status.

    Each {!tick} evaluates its threshold rules — dead-tuple ratio,
    delta-chain depth, quarantined branches / degraded health,
    event-ring drops, failed or stalled maintenance tasks — and stores
    the verdict as the new status.  The status is {e sticky}: it is
    held between ticks rather than recomputed per read, so
    {!status} is a constant-time read.  Level transitions emit a
    leveled [Obs] event (component ["watchdog"]); every tick bumps
    ["watchdog.ticks"] and the ["watchdog.level"] gauge (0/1/2).

    "Rising"-style rules compare counters against their value at the
    previous tick, so the first tick never fires them. *)

type level = L_ok | L_warn | L_critical

val level_name : level -> string
(** ["ok"], ["warn"], ["critical"]. *)

type finding = { fi_rule : string; fi_level : level; fi_detail : string }

type rules = {
  r_dead_ratio_warn : float;  (** branch dead/(live+dead) warning bar *)
  r_dead_ratio_crit : float;
  r_chain_warn : int;  (** delta-chain depth warning bar *)
  r_chain_crit : int;
  r_events_dropped_warn : int;  (** ring drops since the previous tick *)
  r_hot_replay_warn : float;
      (** warn when a branch's [read rate x fragments/read] — the
          continuous delta-replay cost the advisor's materialize rule
          targets — reaches this many fragments/s *)
  r_maint_fail_warn : int;
      (** maintenance tasks failed since the previous tick *)
  r_maint_stall_s : float;
      (** warn when one maintenance task has been running this long *)
  r_maint_streak_crit : int;
      (** critical when the same target keeps failing: worst current
          consecutive-failure streak ([maint.consecutive_failures]) *)
}

val default_rules : rules

type status = {
  st_level : level;
  st_findings : finding list;
  st_ticks : int;  (** ticks evaluated so far *)
  st_time : float;  (** unix epoch seconds of the last tick; [0.] = never *)
}

type t

val create : ?rules:rules -> unit -> t

val tick :
  ?now:float ->
  t ->
  report:Report.t ->
  workload:Workload.stats list ->
  status
(** Evaluate all rules against the given snapshots and store (and
    return) the new status. *)

val status : t -> status
(** The last tick's verdict (all-ok with [st_ticks = 0] before the
    first tick). *)

val to_json : status -> string
val to_text : status -> string
