(** Top-level database facade.

    Wraps any storage engine ({!Engine_intf.S}) behind one concrete
    type, adds branch-name resolution, persistence with optional
    write-ahead logging, and sessions with two-phase locking (paper
    §2.2.3).  This is the API applications use; the engines are
    selected by {!scheme} and otherwise indistinguishable. *)

open Decibel_storage
open Types

(** Storage scheme selector (paper §3, plus the testing oracle). *)
type scheme =
  | Tuple_first  (** Branch-oriented bitmap — the paper's default (§5). *)
  | Tuple_first_tuple_oriented
  | Version_first
  | Hybrid
  | Model  (** In-memory oracle for tests; does not persist. *)

val scheme_name : scheme -> string

val all_schemes : scheme list
(** The four physical schemes (excludes {!Model}). *)

type t

val open_ :
  ?pool:Buffer_pool.t ->
  ?durable:bool ->
  ?compress:bool ->
  ?lock_timeout_s:float ->
  ?governor:Decibel_governor.Governor.Admission.t ->
  scheme:scheme ->
  dir:string ->
  schema:Schema.t ->
  unit ->
  t
(** Initialize a fresh repository in [dir], stored in the columnar
    segment format of {!Decibel_storage.Col_segment} (v2, the only
    format the engines write).  [durable] arms write-ahead logging of
    every operation (default off); [compress] LZ77-compresses each
    sealed block where that pays (the paper's §5.5
    space/materialization trade-off, default off); [lock_timeout_s]
    bounds session lock waits; [governor] arms
    admission control, load shedding and per-branch circuit breakers on
    the long-running operations (see {e Resource governance} below). *)

val reopen :
  ?pool:Buffer_pool.t -> ?scheme:scheme -> ?durable:bool ->
  ?governor:Decibel_governor.Governor.Admission.t -> dir:string ->
  unit -> t
(** Reopen a persisted repository: reloads the last checkpoint and
    replays the intact write-ahead-log tail beyond the checkpoint's
    LSN marker (crash recovery; entries the checkpoint already
    reflects are never double-applied).  The scheme is auto-detected
    from the manifest unless given.  [durable] defaults to whether the
    repository ever had a log.  A repository still in the pre-columnar
    segment format v1 does not open: this (and {!reopen_checkpoint})
    raises [Types.Engine_error "segment format v1: run fsck --migrate"]
    until {!upgrade_v1} has rewritten it. *)

val reopen_checkpoint :
  ?pool:Buffer_pool.t -> ?scheme:scheme ->
  ?governor:Decibel_governor.Governor.Admission.t -> dir:string -> unit -> t
(** Reopen the last checkpoint only — no WAL replay, no checkpoint
    rewrite, no log arming.  The read-only half of {!reopen}; fsck
    uses it to inspect a repository without mutating it. *)

val upgrade_v1 : ?pool:Buffer_pool.t -> dir:string -> unit -> bool
(** Offline, crash-atomic rewrite of a segment-format-v1 repository
    as v2, row order preserved (the engine of [fsck --migrate]; see
    {!Decibel_storage.Seg_v1.upgrade} for the staging protocol).
    Returns [false], touching nothing, when [dir] is already v2; a
    rerun after a crash finishes or restarts the upgrade.  Raises
    [Decibel_util.Binio.Corrupt] on corrupt v1 input, leaving the
    repository as it was.  The repository must not be open. *)

val scheme_of : t -> string
val schema : t -> Schema.t
val graph : t -> Decibel_graph.Version_graph.t

val branch_named : t -> string -> branch_id
(** Raises {!Types.Engine_error} for unknown names. *)

val branch_name : t -> branch_id -> string

(** {1 Version control} *)

val create_branch : t -> name:string -> from:version_id -> branch_id

val branch_from : t -> name:string -> of_branch:branch_id -> branch_id
(** Branch from another branch's current head commit. *)

val commit : t -> branch_id -> message:string -> version_id

val merge :
  ?ctx:Decibel_governor.Governor.Ctx.t ->
  t ->
  into:branch_id ->
  from:branch_id ->
  policy:merge_policy ->
  message:string ->
  merge_result
(** [ctx] is polled during the merge's read phase only (computing
    change sets and decisions); once installation begins the merge
    runs to completion, so a deadline or cancel never tears state. *)

(** {1 Data modification (branch working heads)} *)

val insert : t -> branch_id -> Tuple.t -> unit
val update : t -> branch_id -> Tuple.t -> unit
val delete : t -> branch_id -> Value.t -> unit
val lookup : t -> branch_id -> Value.t -> Tuple.t option

(** {1 Scans and comparison} *)

val scan :
  ?ctx:Decibel_governor.Governor.Ctx.t ->
  t -> branch_id -> (Tuple.t -> unit) -> unit

val scan_filtered :
  ?ctx:Decibel_governor.Governor.Ctx.t ->
  t -> branch_id -> preds:Col_pred.t list -> (Tuple.t -> unit) -> unit
(** {!scan} restricted to records satisfying every structured
    predicate.  On columnar segments the predicates are pushed below
    tuple materialization (and the branch bitmap below block
    decompression); engines without a batch path filter row-wise. *)

val scan_version :
  ?ctx:Decibel_governor.Governor.Ctx.t ->
  t -> version_id -> (Tuple.t -> unit) -> unit

val multi_scan :
  ?ctx:Decibel_governor.Governor.Ctx.t ->
  t -> branch_id list -> (annotated -> unit) -> unit

val diff :
  ?ctx:Decibel_governor.Governor.Ctx.t ->
  t -> branch_id -> branch_id -> pos:(Tuple.t -> unit) ->
  neg:(Tuple.t -> unit) -> unit

val scan_list : t -> branch_id -> Tuple.t list
val scan_version_list : t -> version_id -> Tuple.t list
val count : t -> branch_id -> int

val update_all : t -> branch_id -> (Tuple.t -> Tuple.t) -> int
(** Table-wise update (paper §5.5): rewrite every live record; returns
    the number touched. *)

val heads : t -> branch_id list
(** Active (non-retired) branches. *)

(** {1 Storage introspection and lifecycle} *)

val dataset_bytes : t -> int
val commit_meta_bytes : t -> int
val pool : t -> Buffer_pool.t

val drop_caches : t -> unit
(** Flush, then empty the buffer pool (cold-cache benchmarking). *)

val metrics : t -> Decibel_obs.Obs.snapshot
(** Snapshot of the process-wide metrics registry ({!Decibel_obs.Obs}).
    Counters are monotonic over the process lifetime, so diff two
    snapshots to attribute work to an interval. *)

val metrics_json : t -> string
(** [metrics t] rendered as one JSON object. *)

val storage_report : t -> Decibel_obs.Report.t
(** [ANALYZE]-style storage introspection: the engine's per-branch /
    per-segment statistics (live vs. dead tuples, bitmap density,
    delta-chain depth and bytes) composed with version-graph shape and
    buffer-pool residency.  Read-only, and independent of the
    {!Decibel_obs.Obs} recording switch. *)

val dump_trace : t -> path:string -> unit
(** Write recorded tracing spans to [path] in Chrome trace format
    (one JSON event per line; load via chrome://tracing or Perfetto). *)

val profile :
  ?label:string -> t -> (unit -> 'a) -> 'a * Decibel_obs.Obs.Prof.profile
(** EXPLAIN ANALYZE: run [f] — any sequence of operations against this
    database — under a fresh request trace and return its result with
    the per-operator profile tree (rows, timings and cost counters per
    node, worker-domain work attributed to the request).  If [f]
    raises, a partial profile is still flushed (see
    {!Decibel_obs.Obs.Prof.profiled}) and the exception propagates.
    The profile is also kept in the profiler's bounded ring, which the
    monitor serves at [/profile]. *)

val last_profile : t -> Decibel_obs.Obs.Prof.profile option
(** The most recently completed profile, if any. *)

val recent_profiles : t -> Decibel_obs.Obs.Prof.profile list
(** The profiler ring's contents, oldest first. *)

val flush : t -> unit
(** Checkpoint: persist engine manifests and truncate the WAL.  Also
    checkpoints this database's per-branch workload statistics to
    [workload.jsonl] next to the manifest; {!reopen} and
    {!reopen_checkpoint} merge it back, so access frequencies survive
    restarts. *)

val close : t -> unit

(** {1 Workload telemetry, storage advice and health}

    Per-branch access accounting ({!Decibel_obs.Workload}) is fed from
    hooks inside the engines and the buffer pool whenever the
    {!Decibel_obs.Obs} recording switch is on.  The advisor joins it
    with {!storage_report} through the recreation/storage cost model;
    the watchdog turns both into a sticky ok/warn/critical status. *)

val workload : t -> Decibel_obs.Workload.stats list
(** This database's slice of the process-wide workload table (entries
    whose table name matches the schema), rates decayed to now. *)

val advise :
  ?thresholds:Decibel_obs.Advisor.thresholds ->
  t ->
  Decibel_obs.Advisor.recommendation list
(** Ranked, explained storage recommendations (materialize / compact /
    gc / rechunk) from the current report and workload. *)

val health_tick : t -> Decibel_obs.Watchdog.status
(** Run one watchdog evaluation over fresh report/workload snapshots
    and return (and store) the new sticky status.  On a governed
    database the tick takes a cheap admission slot under a short
    deadline; if the governor sheds or expires it, the previous sticky
    status is returned unchanged. *)

val watchdog_status : t -> Decibel_obs.Watchdog.status
(** The sticky status from the last {!health_tick} (all-ok with
    [st_ticks = 0] before the first). *)

(** {1 Crash-safe maintenance}

    The executor for advisor recommendations: compaction, delta-chain
    materialization and GC, run through the engines'
    {!Engine_intf.S.plan_maintenance} hooks under a journaled protocol
    ([maint.jsonl]) whose atomic commit point is the engine manifest
    write.  A crash at any point leaves either the old or the new
    physical state — never a torn hybrid; {!reopen} (and
    [fsck --repair]) finish or roll back whatever the journal left
    pending.  Results are fingerprint-checked against the
    pre-maintenance content before the swap commits. *)

type maint_result = {
  m_kind : string;  (** "compact" | "materialize" | "gc" *)
  m_target : string;  (** branch name or segment file rewritten *)
  m_reclaimed : int;  (** on-disk bytes freed (>= 0) *)
}

type maint_resolution = {
  mr_id : int;  (** journal task id *)
  mr_kind : string;
  mr_target : string;
  mr_action : [ `Finished | `Rolled_back ];
  mr_removed : string list;  (** files reclaimed or rolled back *)
}

val run_maintenance :
  t -> kind:Engine_intf.maint_kind -> target:string -> maint_result option
(** Plan and execute one maintenance task crash-safely.  [None] when
    the engine has nothing to do for this kind/target.  Raises on a failed task; the store is
    left on its pre-task state (in memory for plan/apply failures, on
    disk always — recovery rolls back the journaled intent). *)

val maintenance_tick :
  ?thresholds:Decibel_obs.Advisor.thresholds -> t -> maint_result list
(** One advisor-driven pass: execute every current recommendation
    that maps to an engine task.  No-op on degraded stores. *)

val start_maintenance :
  ?interval_s:float ->
  ?thresholds:Decibel_obs.Advisor.thresholds ->
  t ->
  unit
(** Arm the background maintenance service: {!maintenance_tick} every
    [interval_s] (default 1.0) seconds on a dedicated domain.  The
    tick serializes against explicit {!run_maintenance} calls through
    the maintenance mutex, but the engines are not internally
    synchronized — concurrent user writes during a tick need
    application-level quiescing.  Stopped by {!stop_maintenance},
    {!close} and {!crash}. *)

val stop_maintenance : t -> unit
val maintenance_running : t -> bool

val resolve_maintenance : ?dry_run:bool -> t -> maint_resolution list
(** Finish or roll back maintenance the journal left pending: a task
    whose new files all reached the committed manifest is finished
    (surviving old files reclaimed), anything else is rolled back
    (surviving new files removed).  Truncates an all-terminal journal.
    {!reopen} runs this before WAL replay; [fsck] uses [dry_run] to
    report without repairing. *)

val fingerprint : t -> string
(** Digest of the logical content (per active branch, sorted encoded
    live tuples) — layout-independent, so any correct physical rewrite
    preserves it.  The torture harness's state identity check. *)

(** {1 Fault tolerance}

    Detected corruption (a checksum failure escaping an engine
    operation) quarantines the branch it surfaced on and degrades the
    database to read-only: intact branches stay readable, writes raise
    {!Types.Engine_error} until the repository is repaired, and the
    ["storage.corruption_detected"] counter plus a [Warn] event record
    the transition. *)

type health = Healthy | Degraded of string

val health : t -> health

val quarantined : t -> (branch_id * string) list
(** Quarantined branches with the corruption that condemned them. *)

val verify : t -> (string * string) list
(** Engine-side fsck: manifest trailer checksum, per-record heap and
    segment checksums, commit-locator cross-references.  Returns
    [(artifact, reason)] pairs; empty means clean.  Read-only. *)

val wal_marker : t -> int
(** LSN of the last write-ahead-log entry the engine state reflects. *)

val crash : t -> unit
(** Crash simulation (torture harness): drop all in-memory buffers and
    close descriptors {e without} checkpointing, leaving on disk only
    what the WAL and the last flush made durable.  The handle is
    unusable afterwards; recover with {!reopen}. *)

(** {1 Sessions}

    A session captures a user's state — the commit or branch its
    operations read or modify (paper §2.2.3).  Writes take an exclusive
    lock on the branch, reads a shared lock; locks are held until
    [session_commit] or [end_transaction] (strict two-phase locking).
    Lock waits beyond the configured timeout raise
    {!Decibel_storage.Lock_manager.Deadlock}. *)

type session

val new_session : t -> session
val session_checkout_branch : session -> string -> unit
val session_checkout_version : session -> version_id -> unit
val current_branch : session -> branch_id
val session_insert : session -> Tuple.t -> unit
val session_update : session -> Tuple.t -> unit
val session_delete : session -> Value.t -> unit
val session_scan : session -> (Tuple.t -> unit) -> unit
val session_commit : session -> message:string -> version_id
val end_transaction : session -> unit

val locks_of : t -> Lock_manager.t
(** The lock manager (for tests and instrumentation). *)

(** {1 Resource governance}

    A database opened with [?governor] routes every long-running
    operation (scan, scan_version, multi_scan, diff, merge) through a
    per-branch circuit breaker and the admission controller: cheap
    single-branch scans take one slot unit, heavy multi-branch work
    takes several, and when the wait queue is full arrivals are shed
    with {!Decibel_governor.Governor.Overloaded}.  An explicit [?ctx]
    is honored with or without a governor: it is polled at chunk
    boundaries inside the engines, installed ambiently so buffer-pool
    page loads charge its byte budget and lock waits respect its
    deadline, and fully released (pins, charges) however the operation
    ends. *)

val governor_stats :
  t -> Decibel_governor.Governor.Admission.stats option
(** Admission-controller snapshot; [None] on an ungoverned database. *)

val breaker :
  t -> branch_id -> Decibel_governor.Governor.Breaker.t option
(** The branch's circuit breaker (created on first use); [None] on an
    ungoverned database.  Exposed for tests and the monitor. *)

val breaker_list :
  t -> (string * Decibel_governor.Governor.Breaker.t) list
(** Breakers that have been instantiated so far, by branch name. *)
