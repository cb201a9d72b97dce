(* Health watchdog: a rules engine over report/workload/metric
   snapshots with a sticky leveled status.  See watchdog.mli. *)

type level = L_ok | L_warn | L_critical

let level_name = function
  | L_ok -> "ok"
  | L_warn -> "warn"
  | L_critical -> "critical"

let level_rank = function L_ok -> 0 | L_warn -> 1 | L_critical -> 2
let worse a b = if level_rank a >= level_rank b then a else b

type finding = { fi_rule : string; fi_level : level; fi_detail : string }

type rules = {
  r_dead_ratio_warn : float;
  r_dead_ratio_crit : float;
  r_chain_warn : int;
  r_chain_crit : int;
  r_events_dropped_warn : int;  (** event-ring drops since previous tick *)
  r_hot_replay_warn : float;  (** fragments/s of hot-branch delta replay *)
  r_maint_fail_warn : int;  (** maintenance failures since previous tick *)
  r_maint_stall_s : float;  (** one maintenance task running this long *)
  r_maint_streak_crit : int;  (** consecutive failures on one target *)
}

let default_rules =
  {
    r_dead_ratio_warn = 0.5;
    r_dead_ratio_crit = 0.9;
    r_chain_warn = 32;
    r_chain_crit = 128;
    r_events_dropped_warn = 1;
    r_hot_replay_warn = 1.0;
    r_maint_fail_warn = 1;
    r_maint_stall_s = 60.0;
    r_maint_streak_crit = 3;
  }

type status = {
  st_level : level;
  st_findings : finding list;
  st_ticks : int;
  st_time : float;  (** unix epoch seconds of the tick; [0.] = never *)
}

type t = {
  rules : rules;
  m : Mutex.t;
  mutable status : status;
  (* counter baselines so "rising" rules compare against the previous
     tick rather than process start *)
  mutable prev_dropped : int;
  mutable prev_maint_failed : int;
}

let create ?(rules = default_rules) () =
  {
    rules;
    m = Mutex.create ();
    status = { st_level = L_ok; st_findings = []; st_ticks = 0; st_time = 0.0 };
    prev_dropped = 0;
    prev_maint_failed = 0;
  }

let status t =
  Mutex.lock t.m;
  let s = t.status in
  Mutex.unlock t.m;
  s

let c_ticks = Obs.counter "watchdog.ticks"
let c_warnings = Obs.counter "watchdog.warnings"
let c_criticals = Obs.counter "watchdog.criticals"
let g_level = Obs.gauge "watchdog.level"

let dead_ratio (b : Report.branch) =
  let total = b.Report.br_live_tuples + b.Report.br_dead_tuples in
  if total = 0 then 0.0
  else float_of_int b.Report.br_dead_tuples /. float_of_int total

(* the maintenance gauges live in decibel_maint, which layers above
   this library; the shared metric registry is the seam *)
let g_maint_running = Obs.gauge "maint.running_since"
let g_maint_streak = Obs.gauge "maint.consecutive_failures"

let evaluate t ~now ~(report : Report.t) ~workload =
  let findings = ref [] in
  let found rule level detail =
    findings := { fi_rule = rule; fi_level = level; fi_detail = detail } :: !findings
  in
  (* degraded / quarantined: the database is already refusing writes,
     so a load balancer should stop routing here *)
  if report.Report.r_health <> "healthy" then
    found "degraded" L_critical
      (Printf.sprintf "database health: %s" report.Report.r_health);
  List.iter
    (fun (name, reason) ->
      found "quarantined_branch" L_critical
        (Printf.sprintf "branch %s quarantined: %s" name reason))
    report.Report.r_quarantined;
  List.iter
    (fun (b : Report.branch) ->
      if b.Report.br_active then begin
        let dr = dead_ratio b in
        if dr >= t.rules.r_dead_ratio_crit then
          found "dead_ratio" L_critical
            (Printf.sprintf "branch %s is %.0f%% dead tuples" b.Report.br_name
               (100.0 *. dr))
        else if dr >= t.rules.r_dead_ratio_warn then
          found "dead_ratio" L_warn
            (Printf.sprintf "branch %s is %.0f%% dead tuples" b.Report.br_name
               (100.0 *. dr));
        let chain = b.Report.br_delta_chain in
        if chain >= t.rules.r_chain_crit then
          found "delta_chain" L_critical
            (Printf.sprintf "branch %s delta chain is %d fragments deep"
               b.Report.br_name chain)
        else if chain >= t.rules.r_chain_warn then
          found "delta_chain" L_warn
            (Printf.sprintf "branch %s delta chain is %d fragments deep"
               b.Report.br_name chain)
      end)
    report.Report.r_branches;
  (* workload rule: a branch continuously paying delta replay — hot
     reads times fragments per scan — is the advisor's materialize
     case showing up as a health signal *)
  List.iter
    (fun (s : Workload.stats) ->
      let replay = s.Workload.w_read_rate *. Workload.fragments_per_read s in
      if replay >= t.rules.r_hot_replay_warn then
        found "hot_replay" L_warn
          (Printf.sprintf
             "branch %s replays %.1f delta fragments/s; run advise"
             s.Workload.w_branch replay))
    workload;
  let dropped = Obs.value_of "obs.events_dropped" in
  let d_dropped = dropped - t.prev_dropped in
  if t.status.st_ticks > 0 && d_dropped >= t.rules.r_events_dropped_warn then
    found "events_dropped" L_warn
      (Printf.sprintf "%d events dropped from the ring since the last tick"
         d_dropped);
  t.prev_dropped <- dropped;
  (* maintenance executor health: failures since the previous tick,
     a task stalled past its budget, and the same target failing over
     and over (a rewrite that will never succeed) *)
  let mfailed = Obs.value_of "maint.tasks_failed" in
  let d_mfailed = mfailed - t.prev_maint_failed in
  if t.status.st_ticks > 0 && d_mfailed >= t.rules.r_maint_fail_warn then
    found "maint_failed" L_warn
      (Printf.sprintf "%d maintenance task(s) failed since the last tick"
         d_mfailed);
  t.prev_maint_failed <- mfailed;
  let since = Obs.gauge_value g_maint_running in
  if since > 0. && now -. since >= t.rules.r_maint_stall_s then
    found "maint_stalled" L_warn
      (Printf.sprintf "a maintenance task has been running for %.0fs"
         (now -. since));
  let streak = int_of_float (Obs.gauge_value g_maint_streak) in
  if streak >= t.rules.r_maint_streak_crit then
    found "maint_streak" L_critical
      (Printf.sprintf
         "a maintenance target has failed %d times in a row" streak);
  List.rev !findings

let tick ?now t ~report ~workload =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      let findings = evaluate t ~now ~report ~workload in
      let level =
        List.fold_left (fun acc f -> worse acc f.fi_level) L_ok findings
      in
      let prev = t.status.st_level in
      let st =
        {
          st_level = level;
          st_findings = findings;
          st_ticks = t.status.st_ticks + 1;
          st_time = now;
        }
      in
      t.status <- st;
      Obs.incr c_ticks;
      Obs.set_gauge g_level (float_of_int (level_rank level));
      (match level with
      | L_warn -> Obs.incr c_warnings
      | L_critical -> Obs.incr c_criticals
      | L_ok -> ());
      (* leveled events on every transition, so the log shows when the
         status changed and why — not one line per tick *)
      if level <> prev then begin
        let ev_level =
          match level with
          | L_ok -> Obs.Info
          | L_warn -> Obs.Warn
          | L_critical -> Obs.Error
        in
        let attrs =
          ("level", level_name level)
          :: List.map (fun f -> (f.fi_rule, f.fi_detail)) findings
        in
        Obs.event ~level:ev_level ~comp:"watchdog" ~attrs
          (Printf.sprintf "health %s -> %s" (level_name prev)
             (level_name level))
      end;
      st)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let esc = Obs.json_escape
let fl = Obs.json_float

let finding_json f =
  Printf.sprintf "{\"rule\":\"%s\",\"level\":\"%s\",\"detail\":\"%s\"}"
    (esc f.fi_rule) (level_name f.fi_level) (esc f.fi_detail)

let to_json st =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "{\"status\":\"%s\",\"ticks\":%d,\"time\":%s,\"findings\":["
       (level_name st.st_level) st.st_ticks (fl st.st_time));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (finding_json f))
    st.st_findings;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_text st =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "health: %s (%d ticks)\n" (level_name st.st_level) st.st_ticks;
  List.iter
    (fun f ->
      pf "  [%s] %s: %s\n" (level_name f.fi_level) f.fi_rule f.fi_detail)
    st.st_findings;
  Buffer.contents buf
