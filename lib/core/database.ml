(** Top-level database facade.

    Wraps any {!Engine_intf.S} implementation behind one concrete type
    (via a first-class module), adds branch-name resolution, session
    management with two-phase locking (paper §2.2.3: concurrent
    transactions on the same version are isolated through 2PL), and
    convenience operations used by the benchmark (table-wise updates,
    list-returning scans). *)

open Decibel_storage
open Types
module Vg = Decibel_graph.Version_graph
module Obs = Decibel_obs.Obs
module Workload = Decibel_obs.Workload
module Advisor = Decibel_obs.Advisor
module Watchdog = Decibel_obs.Watchdog
module Governor = Decibel_governor.Governor
module Maint = Decibel_maint.Maint
module Mjournal = Decibel_maint.Journal

(** Storage scheme selector (paper §3, plus the testing oracle). *)
type scheme =
  | Tuple_first  (** branch-oriented bitmap, the paper's default (§5) *)
  | Tuple_first_tuple_oriented
  | Version_first
  | Hybrid
  | Model

let scheme_name = function
  | Tuple_first -> "tuple-first"
  | Tuple_first_tuple_oriented -> "tuple-first-tuple-oriented"
  | Version_first -> "version-first"
  | Hybrid -> "hybrid"
  | Model -> "model"

let all_schemes = [ Tuple_first; Tuple_first_tuple_oriented; Version_first; Hybrid ]

(** Graceful degradation: detected corruption quarantines the affected
    branch and flips the database to read-only, rather than crashing or
    silently serving bad data. *)
type health = Healthy | Degraded of string

(* first half of the [<scheme>.<op>] span names *)
let span_prefix = function
  | Tuple_first | Tuple_first_tuple_oriented -> "tuple_first"
  | Version_first -> "version_first"
  | Hybrid -> "hybrid"
  | Model -> "model"

type t =
  | Db : {
      engine : (module Engine_intf.S with type t = 'e);
      state : 'e;
      span_prefix : string;
      dir : string;
      pool : Buffer_pool.t;
      locks : Lock_manager.t;
      mutable wal : Wal.t option;
      mutable next_session : int;
      mutable health : health;
      quarantined : (branch_id, string) Hashtbl.t;
      breakers : (branch_id, Governor.Breaker.t) Hashtbl.t;
      breakers_mutex : Mutex.t;
      watchdog : Watchdog.t;
      maint_mutex : Mutex.t;
      mutable maint_service : Maint.Service.t option;
    }
      -> t

let wal_path dir = Filename.concat dir "wal.log"

(* workload checkpoint lives next to the manifest, like the WAL *)
let workload_path dir = Filename.concat dir "workload.jsonl"

let c_corruption = Obs.counter "storage.corruption_detected"
let c_replay_skipped = Obs.counter "wal.replay_skipped"
let c_commits = Obs.counter "engine.commits"
let c_merges = Obs.counter "engine.merges"

let open_ ?pool ?(durable = false) ?(compress = false) ?lock_timeout_s
    ~scheme ~dir ~schema () =
  let pool =
    match pool with Some p -> p | None -> Buffer_pool.create ()
  in
  let locks = Lock_manager.create ?timeout_s:lock_timeout_s () in
  let pack (type e) (module E : Engine_intf.S with type t = e) =
    let state = E.create ~compress ~dir ~pool ~schema in
    let wal =
      if durable then begin
        (* checkpoint 0: the freshly-initialized state, so a crash
           before the first flush still has a base to replay onto *)
        E.flush state;
        Some (Wal.open_log ~path:(wal_path dir) ())
      end
      else None
    in
    Db
      {
        engine = (module E);
        state;
        span_prefix = span_prefix scheme;
        dir;
        pool;
        locks;
        wal;
        next_session = 0;
        health = Healthy;
        quarantined = Hashtbl.create 4;
        breakers = Hashtbl.create 4;
        breakers_mutex = Mutex.create ();
        watchdog = Watchdog.create ();
        maint_mutex = Mutex.create ();
        maint_service = None;
      }
  in
  match scheme with
  | Tuple_first -> pack (module Tuple_first.Branch_oriented)
  | Tuple_first_tuple_oriented -> pack (module Tuple_first.Tuple_oriented)
  | Version_first -> pack (module Version_first)
  | Hybrid -> pack (module Hybrid)
  | Model -> pack (module Model)

(* Reopen a repository persisted by [flush]/[close].  The scheme is
   discovered from the manifest each engine leaves behind. *)
let detect_scheme dir =
  match Manifest.detect dir with
  | Manifest.Tf, Some layout when layout = Decibel_index.Tuple_bitmap.layout ->
      Tuple_first_tuple_oriented
  | Manifest.Tf, _ -> Tuple_first
  | Manifest.Vf, _ -> Version_first
  | Manifest.Hy, _ -> Hybrid

(* [~recover:false] is the read-only load: tails stay, and the
   workload checkpoint is not merged into this process's table. *)
let load_checkpoint ~recover ?pool ?scheme ~dir () =
  let pool = match pool with Some p -> p | None -> Buffer_pool.create () in
  let scheme = match scheme with Some s -> s | None -> detect_scheme dir in
  let pack (type e) (module E : Engine_intf.S with type t = e) =
    let state = E.open_existing ~cut_tails:recover ~dir ~pool in
    (* resume per-branch workload accounting from the checkpoint left
       by the last flush/close (missing file is a no-op) *)
    if recover then Workload.load ~path:(workload_path dir) ();
    Db
      {
        engine = (module E);
        state;
        span_prefix = span_prefix scheme;
        dir;
        pool;
        locks = Lock_manager.create ();
        wal = None;
        next_session = 0;
        health = Healthy;
        quarantined = Hashtbl.create 4;
        breakers = Hashtbl.create 4;
        breakers_mutex = Mutex.create ();
        watchdog = Watchdog.create ();
        maint_mutex = Mutex.create ();
        maint_service = None;
      }
  in
  match scheme with
  | Tuple_first -> pack (module Tuple_first.Branch_oriented)
  | Tuple_first_tuple_oriented -> pack (module Tuple_first.Tuple_oriented)
  | Version_first -> pack (module Version_first)
  | Hybrid -> pack (module Hybrid)
  | Model -> pack (module Model)

let reopen_checkpoint ?pool ?scheme ~dir () =
  load_checkpoint ~recover:true ?pool ?scheme ~dir ()

let inspect_checkpoint ?pool ~dir f =
  let (Db { engine = (module E); state; _ } as t) =
    load_checkpoint ~recover:false ?pool ~dir ()
  in
  Fun.protect ~finally:(fun () -> E.crash state) (fun () -> f t)

(* Offline v1 → v2 segment-format upgrade ([fsck --migrate]); [false]
   when the repository is already v2.  Must not run against an open
   database. *)
let upgrade_v1 ?pool ~dir () =
  let pool = match pool with Some p -> p | None -> Buffer_pool.create () in
  match detect_scheme dir with
  | Tuple_first -> Tuple_first.Branch_oriented.upgrade_v1 ~dir ~pool
  | Tuple_first_tuple_oriented ->
      Tuple_first.Tuple_oriented.upgrade_v1 ~dir ~pool
  | Version_first -> Version_first.upgrade_v1 ~dir ~pool
  | Hybrid -> Hybrid.upgrade_v1 ~dir ~pool
  | Model -> false

let scheme_of (Db { engine = (module E); _ }) = E.scheme
let schema (Db { engine = (module E); state; _ }) = E.schema state
let graph (Db { engine = (module E); state; _ }) = E.graph state

let branch_named t name =
  match Vg.branch_by_name (graph t) name with
  | Some b -> b.Vg.bid
  | None -> errorf "no branch named %S" name

let branch_name t bid = (Vg.branch (graph t) bid).Vg.name

(* ------------------------------------------------------------------ *)
(* Health and graceful degradation.

   A checksum failure ([Binio.Corrupt] escaping an engine operation)
   quarantines the branch it surfaced on and flips the database to
   read-only: intact branches stay readable, every write is refused
   until the operator runs fsck / restores, and nothing corrupt is
   silently served or made durable. *)

let health (Db { health; _ }) = health

let quarantined (Db { quarantined; _ }) =
  List.sort compare
    (Hashtbl.fold (fun b reason acc -> (b, reason) :: acc) quarantined [])

let degrade (Db d) reason =
  match d.health with
  | Degraded _ -> ()
  | Healthy ->
      d.health <- Degraded reason;
      Obs.event ~level:Obs.Warn ~comp:"db"
        ~attrs:[ ("reason", reason) ]
        "database degraded to read-only"

(* Record detected corruption and raise; never returns. *)
let corruption (Db d as t) ?branch msg =
  Obs.incr c_corruption;
  (match branch with
  | Some b when not (Hashtbl.mem d.quarantined b) ->
      Hashtbl.replace d.quarantined b msg;
      Obs.event ~level:Obs.Warn ~comp:"db"
        ~attrs:[ ("branch", string_of_int b); ("reason", msg) ]
        "corruption detected; branch quarantined"
  | _ ->
      Obs.event ~level:Obs.Warn ~comp:"db"
        ~attrs:[ ("reason", msg) ]
        "corruption detected");
  degrade t msg;
  errorf "corruption detected: %s" msg

let check_writable (Db d) =
  match d.health with
  | Healthy -> ()
  | Degraded reason -> errorf "database is read-only (degraded): %s" reason

let check_branch_ok (Db d) b =
  match Hashtbl.find_opt d.quarantined b with
  | Some reason -> errorf "branch %d is quarantined: %s" b reason
  | None -> ()

(* Run an engine operation touching the given branches; corruption it
   surfaces quarantines the first listed branch. *)
let guarded t bs f =
  List.iter (check_branch_ok t) bs;
  try f ()
  with Decibel_util.Binio.Corrupt msg ->
    corruption t ?branch:(match bs with b :: _ -> Some b | [] -> None) msg

(* ------------------------------------------------------------------ *)
(* Resource governance.

   Long-running operations pass each touched branch's circuit breaker,
   then run the engine work with the caller's context (if any)
   installed ambiently so the buffer pool and lock manager see its
   deadline and budget. *)

(* get-or-create under the mutex: concurrent first users of a branch
   must share one breaker, or one thread's failure streak is lost *)
let breaker (Db d as t) b =
  Mutex.protect d.breakers_mutex (fun () ->
      match Hashtbl.find_opt d.breakers b with
      | Some br -> br
      | None ->
          let br = Governor.Breaker.create ~name:(branch_name t b) () in
          Hashtbl.replace d.breakers b br;
          br)

(* Only infrastructure failures count against a branch's breaker: user
   errors ([Engine_error]) and governor verdicts (deadline, cancel,
   budget) say nothing about the branch's storage health. *)
let counts_as_failure = function
  | Decibel_util.Binio.Corrupt _ -> true
  | Decibel_fault.Failpoint.Fault_injected _ -> true
  | Unix.Unix_error _ -> true
  | _ -> false

let governed t ?ctx bs f =
  let breakers = List.map (breaker t) bs in
  List.iter Governor.Breaker.check breakers;
  let classify () =
    match f () with
    | r ->
        List.iter Governor.Breaker.success breakers;
        r
    | exception e ->
        Governor.note_outcome e;
        if counts_as_failure e then
          List.iter Governor.Breaker.failure breakers;
        raise e
  in
  match ctx with
  | None -> classify ()
  | Some c ->
      (* [release] drops any pool pins / scratch charges the op still
         holds, however it ended — the gauge must return to baseline *)
      Fun.protect
        ~finally:(fun () -> Governor.Ctx.release c)
        (fun () ->
          Governor.Ctx.check c;
          Governor.Ctx.with_current ctx classify)

(* ------------------------------------------------------------------ *)
(* The operation boundary.

   Every costed engine call passes through [bounded] (inside
   [governed], for the governed ones), which is where the engines'
   costs meet the three views.  With observability on it

     - opens the [<scheme>.<op>] span (the profiler's operator node);
     - runs the call under its own trace bag ([Obs.Prof.metered]), so
       every charge the engine, codec and buffer pool make — on worker
       domains too — is known as this operation's cost;
     - charges [Tuples_emitted] once, as the rows handed to the caller
       (engines never charge it);
     - feeds the workload table: a single-branch read or write adds its
       bag to that branch's row; multi-branch reads touch each named
       branch at zero cost; version reads and merges name no row.

   With observability off it is a direct call: [emit] hands back the
   caller's callback unwrapped.  Operations that raise note no row;
   their charges stay in the global counters and the request bag. *)

type row = Read of branch_id | Write of branch_id | Touch of branch_id list

(* wraps an output callback so each row it receives is counted *)
type emit = { emit : 'a. ('a -> unit) -> 'a -> unit }

let direct = { emit = (fun f -> f) }

let note_row (Db { engine = (module E); state; _ } as t) row costs =
  let table = Schema.name (E.schema state) in
  match row with
  | Some (Read b) ->
      Workload.note_read ~costs ~table ~branch:(branch_name t b) ()
  | Some (Write b) ->
      Workload.note_write ~costs ~table ~branch:(branch_name t b) ()
  | Some (Touch bs) ->
      List.iter
        (fun b -> Workload.note_read ~table ~branch:(branch_name t b) ())
        bs
  | None -> ()

let bounded (Db { span_prefix; _ } as t) ?span ?row run =
  if not (Obs.enabled ()) then run direct
  else
    let body () =
      let n = ref 0 in
      let counted = { emit = (fun f x -> incr n; f x) } in
      let v, costs =
        Obs.Prof.metered (fun () ->
            Fun.protect
              ~finally:(fun () -> Obs.charge Obs.Prof.Tuples_emitted !n)
              (fun () -> run counted))
      in
      note_row t row costs;
      v
    in
    match span with
    | None -> body ()
    | Some op -> Obs.with_span (span_prefix ^ "." ^ op) body

(* ------------------------------------------------------------------ *)
(* Logged operations.  The WAL entry is written (and synced) before the
   engine applies the operation; once the engine has applied it, its
   LSN becomes the state's wal-marker, which the next checkpoint
   persists inside the manifest.  Recovery replays only entries beyond
   the marker, so a crash anywhere between append and checkpoint can
   never double-apply. *)

let log (Db { engine = (module E); state; wal; _ }) entry =
  match wal with
  | Some w -> Some (Wal.append w (E.schema state) entry)
  | None -> None

let mark (Db { engine = (module E); state; _ }) = function
  | Some lsn -> E.set_wal_marker state lsn
  | None -> ()

let create_branch (Db { engine = (module E); state; _ } as t) ~name ~from =
  check_writable t;
  let lsn = log t (Wal.W_branch (name, from)) in
  let bid = E.create_branch state ~name ~from in
  mark t lsn;
  bid

let branch_from t ~name ~of_branch =
  (* branch off the current head commit of an existing branch; goes
     through [create_branch] so the operation is write-ahead-logged *)
  let from = Vg.head (graph t) of_branch in
  create_branch t ~name ~from

let commit (Db { engine = (module E); state; _ } as t) b ~message =
  check_writable t;
  guarded t [ b ] (fun () ->
      bounded t ~span:"commit" ~row:(Write b) (fun _ ->
          Obs.incr c_commits;
          let lsn = log t (Wal.W_commit (b, message)) in
          let vid = E.commit state b ~message in
          mark t lsn;
          vid))

let insert (Db { engine = (module E); state; _ } as t) b tuple =
  check_writable t;
  guarded t [ b ] (fun () ->
      bounded t ~row:(Write b) (fun _ ->
          let lsn = log t (Wal.W_insert (b, tuple)) in
          E.insert state b tuple;
          mark t lsn))

let update (Db { engine = (module E); state; _ } as t) b tuple =
  check_writable t;
  guarded t [ b ] (fun () ->
      bounded t ~row:(Write b) (fun _ ->
          let lsn = log t (Wal.W_update (b, tuple)) in
          E.update state b tuple;
          mark t lsn))

let delete (Db { engine = (module E); state; _ } as t) b key =
  check_writable t;
  guarded t [ b ] (fun () ->
      bounded t ~row:(Write b) (fun _ ->
          let lsn = log t (Wal.W_delete (b, key)) in
          E.delete state b key;
          mark t lsn))

let lookup (Db { engine = (module E); state; _ } as t) b key =
  guarded t [ b ] (fun () -> E.lookup state b key)

let scan ?ctx (Db { engine = (module E); state; _ } as t) b f =
  guarded t [ b ] (fun () ->
      governed t ?ctx [ b ] (fun () ->
          bounded t ~span:"scan" ~row:(Read b) (fun c ->
              E.scan ?ctx state b (c.emit f))))

let scan_filtered ?ctx (Db { engine = (module E); state; _ } as t) b ~preds f =
  guarded t [ b ] (fun () ->
      governed t ?ctx [ b ] (fun () ->
          bounded t ~span:"scan_filtered" ~row:(Read b) (fun c ->
              E.scan_filtered ?ctx state b ~preds (c.emit f))))

let scan_version ?ctx (Db { engine = (module E); state; _ } as t) v f =
  try
    governed t ?ctx [] (fun () ->
        bounded t ~span:"scan_version" (fun c ->
            E.scan_version ?ctx state v (c.emit f)))
  with Decibel_util.Binio.Corrupt msg -> corruption t msg

let multi_scan ?ctx (Db { engine = (module E); state; _ } as t) bs f =
  guarded t bs (fun () ->
      governed t ?ctx bs (fun () ->
          bounded t ~span:"multi_scan" ~row:(Touch bs) (fun c ->
              E.multi_scan ?ctx state bs (c.emit f))))

let diff ?ctx (Db { engine = (module E); state; _ } as t) a b ~pos ~neg =
  guarded t [ a; b ] (fun () ->
      governed t ?ctx [ a; b ] (fun () ->
          bounded t ~span:"diff" ~row:(Touch [ a; b ]) (fun c ->
              E.diff ?ctx state a b ~pos:(c.emit pos) ~neg:(c.emit neg))))

let merge ?ctx (Db { engine = (module E); state; _ } as t) ~into ~from ~policy
    ~message =
  check_writable t;
  guarded t [ into; from ] (fun () ->
      governed t ?ctx [ into; from ] (fun () ->
          bounded t ~span:"merge" (fun _ ->
              Obs.incr c_merges;
              let lsn = log t (Wal.W_merge (into, from, policy, message)) in
              match E.merge ?ctx state ~into ~from ~policy ~message with
              | r ->
                  mark t lsn;
                  r
              | exception
                  (( Governor.Cancelled | Governor.Deadline_exceeded
                   | Governor.Budget_exceeded _ ) as e) ->
                  (* Engines abort merges only in the read phase, so
                     the logged entry had no effect on state.  Marking
                     it consumed keeps recovery from replaying — and
                     this time applying — an operation the caller saw
                     fail. *)
                  mark t lsn;
                  raise e)))

let dataset_bytes (Db { engine = (module E); state; _ }) =
  E.dataset_bytes state

let commit_meta_bytes (Db { engine = (module E); state; _ }) =
  E.commit_meta_bytes state

(* Checkpoint this database's slice of the process-wide workload table
   next to the manifest.  The model oracle may run with a nonexistent
   dir; skip rather than fail the flush. *)
let save_workload (Db { engine = (module E); state; dir; _ }) =
  if Sys.file_exists dir && Sys.is_directory dir then
    Workload.save
      ~table:(Schema.name (E.schema state))
      ~path:(workload_path dir) ()

(* flushing checkpoints: once the engine's durable state reflects all
   applied operations, the log can restart empty *)
let flush (Db { engine = (module E); state; wal; _ } as t) =
  E.flush state;
  save_workload t;
  Option.iter Wal.reset wal

(* The background maintenance service must be stopped before the
   engine's descriptors go away, whether the shutdown is graceful or a
   simulated crash — a domain ticking against a closed state would
   turn the torture harness's controlled kills into wild ones. *)
let stop_maint_service (Db d) =
  match d.maint_service with
  | None -> ()
  | Some s ->
      d.maint_service <- None;
      Maint.Service.stop s

let close (Db { engine = (module E); state; wal; _ } as t) =
  stop_maint_service t;
  save_workload t;
  E.close state;
  Option.iter
    (fun w ->
      Wal.reset w;
      Wal.close w)
    wal

(* Crash simulation for the torture harness: drop every in-memory
   buffer and close descriptors without checkpointing, so disk holds
   exactly what the WAL and the last flush made durable. *)
let crash (Db { engine = (module E); state; wal; _ } as t) =
  stop_maint_service t;
  E.crash state;
  Option.iter Wal.close wal

let verify (Db { engine = (module E); state; _ }) = E.verify state

let wal_marker (Db { engine = (module E); state; _ }) = E.wal_marker state

let pool (Db { pool; _ }) = pool

(* Simulate a cold cache between measurements, standing in for the
   paper's disk-cache flushes before each operation (§5). *)
let drop_caches (Db { pool; _ } as t) =
  flush t;
  Buffer_pool.drop_all pool

(* The registry is process-wide; the [t] parameter keeps the API shaped
   like the rest of the facade and leaves room for per-database
   registries later. *)
let metrics (Db _) = Obs.snapshot ()
let metrics_json (Db _) = Obs.to_json (Obs.snapshot ())
let dump_trace (Db _) ~path = Obs.write_trace ~path

(* EXPLAIN ANALYZE entry point: run [f] (any sequence of ops against
   this database) under a fresh request trace; the per-operator tree is
   returned alongside the result and kept in the profiler's ring
   ([recent_profiles]). *)
let profile ?label (Db _) f = Obs.Prof.profiled ?label f
let last_profile (Db _) = Obs.Prof.last_profile ()
let recent_profiles (Db _) = Obs.Prof.recent_profiles ()

let storage_report (Db { engine = (module E); state; pool; _ } as t) =
  Obs.with_span "db.storage_report" (fun () ->
      let part = E.storage_report state in
      let g = E.graph state in
      let ps = Buffer_pool.stats pool in
      let module R = Decibel_obs.Report in
      {
        R.r_scheme = E.scheme;
        r_format = Col_segment.current_format;
        r_dataset_bytes = E.dataset_bytes state;
        r_commit_meta_bytes = E.commit_meta_bytes state;
        r_branches = part.R.e_branches;
        r_segments = part.R.e_segments;
        r_columns = part.R.e_columns;
        r_history = part.R.e_history;
        r_graph =
          {
            R.g_versions = Vg.version_count g;
            g_branches = Vg.branch_count g;
            g_active_branches =
              List.length
                (List.filter (fun (b : Vg.branch) -> b.Vg.active)
                   (Vg.branches g));
            g_depth = Vg.depth g;
            g_max_fanout = Vg.max_fanout g;
          };
        r_pool =
          {
            R.p_page_size = Buffer_pool.page_size pool;
            p_capacity_pages = Buffer_pool.capacity_pages pool;
            p_resident_pages = Buffer_pool.resident_pages pool;
            p_hits = ps.Buffer_pool.hits;
            p_misses = ps.Buffer_pool.misses;
            p_evictions = ps.Buffer_pool.evictions;
            p_write_backs = ps.Buffer_pool.write_backs;
          };
        r_health =
          (match health t with
          | Healthy -> "healthy"
          | Degraded msg -> "degraded: " ^ msg);
        r_quarantined =
          List.map
            (fun (b, reason) -> (branch_name t b, reason))
            (quarantined t);
      })

(* ------------------------------------------------------------------ *)
(* Workload telemetry, storage advice and health.

   The workload table is process-wide; this database's slice is the
   entries whose table name matches its schema. *)

let workload (Db { engine = (module E); state; _ }) =
  let table = Schema.name (E.schema state) in
  List.filter
    (fun (s : Workload.stats) -> s.Workload.w_table = table)
    (Workload.snapshot ())

let advise ?thresholds t =
  Advisor.advise ?thresholds ~report:(storage_report t)
    ~workload:(workload t) ()

let watchdog_status (Db { watchdog; _ }) = Watchdog.status watchdog

(* One watchdog evaluation over fresh report/workload snapshots. *)
let health_tick (Db d as t) =
  Watchdog.tick d.watchdog ~report:(storage_report t) ~workload:(workload t)

(* ------------------------------------------------------------------ *)
(* Crash-safe background maintenance (the executor half; the policy
   half is the advisor, the mechanism half [Decibel_maint]).

   Protocol per task, all under the maintenance mutex:

     plan (pure)                      -- engine hook, None = nothing to do
     fingerprint before               -- logical content digest
     journal Begin                    -- intent, fsynced, tearable
     mp_apply                         -- build new files; in-memory swap
                                         is its last step; on exception
                                         it removed its partial files
     fingerprint after                -- mismatch: degrade, no commit
     flush                            -- engine manifest via Manifest:
                                         THE atomic commit point
     journal Apply
     mp_cleanup                       -- invalidate pool pages, unlink
                                         old files
     journal Done

   A crash anywhere leaves either the old state (manifest not yet
   written) or the new state (manifest written); [resolve_maintenance]
   finishes or rolls back the pending task from the journal on the
   next open.  Failpoints [maint.plan] / [maint.rewrite] (inside the
   engines' applies) / [maint.commit] / [maint.swap] /
   [maint.journal.append] let the torture harness kill at every
   transition. *)

type maint_result = {
  m_kind : string;
  m_target : string;
  m_reclaimed : int;  (** on-disk bytes freed (before - after, >= 0) *)
}

type maint_resolution = {
  mr_id : int;
  mr_kind : string;
  mr_target : string;
  mr_action : [ `Finished | `Rolled_back ];
  mr_removed : string list;
}

let kind_tag = function
  | Engine_intf.M_compact -> "compact"
  | Engine_intf.M_materialize -> "materialize"
  | Engine_intf.M_gc -> "gc"

let maint_kind_of_advisor = function
  | Advisor.Materialize | Advisor.Rechunk -> Engine_intf.M_materialize
  | Advisor.Compact -> Engine_intf.M_compact
  | Advisor.Gc -> Engine_intf.M_gc

(* Logical content digest: per active branch (by name, sorted), the
   sorted encoded live tuples.  Independent of physical layout, so it
   is preserved by any correct rewrite — the executor's guard against
   a maintenance bug silently corrupting data. *)
let fingerprint (Db { engine = (module E); state; _ }) =
  let buf = Buffer.create 4096 in
  let schema = E.schema state in
  let branches =
    List.sort
      (fun (a : Vg.branch) (b : Vg.branch) -> compare a.Vg.name b.Vg.name)
      (List.filter
         (fun (b : Vg.branch) -> b.Vg.active)
         (Vg.branches (E.graph state)))
  in
  List.iter
    (fun (br : Vg.branch) ->
      Buffer.add_string buf br.Vg.name;
      Buffer.add_char buf '\000';
      let rows = ref [] in
      E.scan state br.Vg.bid (fun tuple ->
          rows := Tuple.encode schema tuple :: !rows);
      List.iter
        (fun s ->
          Buffer.add_string buf s;
          Buffer.add_char buf '\001')
        (List.sort compare !rows))
    branches;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let file_size dir name =
  try (Unix.stat (Filename.concat dir name)).Unix.st_size
  with Unix.Unix_error _ -> 0

let run_maintenance_locked (Db { engine = (module E); state; dir; _ } as t)
    ~kind ~target =
  match E.plan_maintenance state ~kind ~target with
  | None -> None
  | Some plan ->
      let target = plan.Engine_intf.mp_target in
      Maint.note_started ();
      let entry status =
        {
          Mjournal.e_id = Mjournal.next_id (Mjournal.load dir);
          e_status = status;
          e_kind = kind_tag kind;
          e_target = target;
          e_new = plan.Engine_intf.mp_new_files;
          e_old = plan.Engine_intf.mp_old_files;
        }
      in
      let protocol () =
        Decibel_fault.Failpoint.hit "maint.plan";
        let before = fingerprint t in
        let begun = entry Mjournal.Begin in
        Mjournal.append dir begun;
        let journal status =
          try Mjournal.append dir { begun with Mjournal.e_status = status }
          with _ -> ()
        in
        (try plan.Engine_intf.mp_apply ()
         with e ->
           (* the engine removed its partial new files and left the
              in-memory state untouched; the task is over *)
           journal Mjournal.Rolled_back;
           Maint.note_rolled_back ();
           raise e);
        if fingerprint t <> before then begin
          (* The swap is in memory only (no manifest written): disk
             still holds the old state, so the next open recovers it
             and rolls the journaled task back.  This process must not
             commit or serve writes on the bad state. *)
          degrade t "maintenance fingerprint mismatch";
          errorf "maintenance fingerprint mismatch on %s %s" (kind_tag kind)
            target
        end;
        Decibel_fault.Failpoint.hit "maint.commit";
        flush t;
        journal Mjournal.Apply;
        Decibel_fault.Failpoint.hit "maint.swap";
        plan.Engine_intf.mp_cleanup ();
        journal Mjournal.Done;
        let after =
          List.fold_left
            (fun acc f -> acc + file_size dir f)
            0 plan.Engine_intf.mp_new_files
        in
        let reclaimed = max 0 (plan.Engine_intf.mp_bytes_before - after) in
        Maint.note_reclaimed reclaimed;
        Maint.note_finished ~target ~ok:true;
        Some { m_kind = kind_tag kind; m_target = target; m_reclaimed = reclaimed }
      in
      (match protocol () with
      | r -> r
      | exception e ->
          Maint.note_finished ~target ~ok:false;
          raise e)

let run_maintenance (Db d as t) ~kind ~target =
  check_writable t;
  Mutex.lock d.maint_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock d.maint_mutex)
    (fun () -> run_maintenance_locked t ~kind ~target)

(* One advisor-driven pass: plan and execute every current
   recommendation that maps to an engine task.  Recommendations made
   stale by an earlier task in the same pass plan to [None] and are
   skipped.  Exceptions propagate (the service loop counts and
   swallows them). *)
let maintenance_tick ?thresholds (Db d as t) =
  match d.health with
  | Degraded _ -> []
  | Healthy ->
      List.filter_map
        (fun (r : Advisor.recommendation) ->
          run_maintenance t
            ~kind:(maint_kind_of_advisor r.Advisor.rc_kind)
            ~target:r.Advisor.rc_target)
        (advise ?thresholds t)

let start_maintenance ?interval_s ?thresholds (Db d as t) =
  match d.maint_service with
  | Some _ -> ()
  | None ->
      d.maint_service <-
        Some
          (Maint.Service.start ?interval_s (fun () ->
               ignore (maintenance_tick ?thresholds t)))

let stop_maintenance t = stop_maint_service t
let maintenance_running (Db d) =
  match d.maint_service with Some s -> Maint.Service.running s | None -> false

(* Finish or roll back maintenance the journal left pending.  Runs on
   a freshly reopened checkpoint, before WAL replay: a pending task
   committed iff its [Apply] entry was journaled or every file it
   created is referenced by the manifest state just loaded (the
   manifest write is atomic, so there is no in-between).  Committed:
   reclaim surviving old files and journal [Done].  Not committed:
   remove surviving new files (disk already holds the old state) and
   journal [Rolled_back].  Never removes a file the current manifest
   references.  [dry_run] reports what would happen without touching
   anything (fsck's check mode). *)
let resolve_maintenance ?(dry_run = false)
    (Db { engine = (module E); state; dir; _ }) =
  let entries = Mjournal.load dir in
  match Mjournal.pending entries with
  | [] ->
      (* every recorded task is terminal: the journal is history, not
         intent, and can be compacted away *)
      if (not dry_run) && entries <> [] then Mjournal.truncate dir;
      []
  | pending ->
      let referenced = E.referenced_files state in
      List.map
        (fun (id, es) ->
          let last = List.nth es (List.length es - 1) in
          let committed =
            List.exists (fun e -> e.Mjournal.e_status = Mjournal.Apply) es
            || (last.Mjournal.e_new <> []
               && List.for_all
                    (fun f -> List.mem f referenced)
                    last.Mjournal.e_new)
          in
          let doomed =
            if committed then last.Mjournal.e_old else last.Mjournal.e_new
          in
          let removed =
            List.filter
              (fun f ->
                (not (List.mem f referenced))
                && Sys.file_exists (Filename.concat dir f))
              doomed
          in
          if not dry_run then begin
            List.iter
              (fun f ->
                try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
              removed;
            (try
               Mjournal.append dir
                 {
                   last with
                   Mjournal.e_status =
                     (if committed then Mjournal.Done else Mjournal.Rolled_back);
                 }
             with _ -> ());
            if not committed then Maint.note_rolled_back ()
          end;
          {
            mr_id = id;
            mr_kind = last.Mjournal.e_kind;
            mr_target = last.Mjournal.e_target;
            mr_action = (if committed then `Finished else `Rolled_back);
            mr_removed = removed;
          })
        pending

let scan_list t b =
  let acc = ref [] in
  scan t b (fun tuple -> acc := tuple :: !acc);
  !acc

let scan_version_list t v =
  let acc = ref [] in
  scan_version t v (fun tuple -> acc := tuple :: !acc);
  !acc

let count t b =
  let n = ref 0 in
  scan t b (fun _ -> incr n);
  !n

(* Table-wise update (paper §5.5): rewrite every live record of the
   branch.  Each update copies the full record, so the dataset grows by
   about the branch's size and the branch's data ends up re-clustered
   at the end of storage. *)
let update_all t b f =
  let tuples = scan_list t b in
  List.iter (fun tuple -> update t b (f tuple)) tuples;
  List.length tuples

let heads t =
  List.filter_map
    (fun (b : Vg.branch) -> if b.Vg.active then Some b.Vg.bid else None)
    (Vg.branches (graph t))

(** {1 Sessions}

    A session captures a user's state: the commit or branch its
    operations read or modify (paper §2.2.3).  Write operations take an
    exclusive lock on the branch; reads take a shared lock; all locks
    are held until [end_transaction] (strict two-phase locking). *)

type session = {
  sid : int;
  db : t;
  mutable at : [ `Branch of branch_id | `Version of version_id ];
}

let new_session (Db d as t) =
  let sid = d.next_session in
  d.next_session <- sid + 1;
  { sid; db = t; at = `Branch Vg.master }

let locks_of (Db d) = d.locks

let session_checkout_branch s name = s.at <- `Branch (branch_named s.db name)

let session_checkout_version s vid =
  let _ = Vg.version (graph s.db) vid in
  s.at <- `Version vid

let current_branch s =
  match s.at with
  | `Branch b -> b
  | `Version _ -> errorf "session is at a version checkout; writes need a branch"

let lock s mode b =
  Lock_manager.acquire (locks_of s.db) ~owner:s.sid
    ~resource:(branch_name s.db b) mode

let session_insert s tuple =
  let b = current_branch s in
  lock s Lock_manager.Exclusive b;
  insert s.db b tuple

let session_update s tuple =
  let b = current_branch s in
  lock s Lock_manager.Exclusive b;
  update s.db b tuple

let session_delete s key =
  let b = current_branch s in
  lock s Lock_manager.Exclusive b;
  delete s.db b key

let session_scan s f =
  match s.at with
  | `Branch b ->
      lock s Lock_manager.Shared b;
      scan s.db b f
  | `Version v -> scan_version s.db v f

let session_commit s ~message =
  let b = current_branch s in
  lock s Lock_manager.Exclusive b;
  let vid = commit s.db b ~message in
  Lock_manager.release_all (locks_of s.db) ~owner:s.sid;
  vid

let end_transaction s =
  Lock_manager.release_all (locks_of s.db) ~owner:s.sid

(* ------------------------------------------------------------------ *)
(* Reopen with crash recovery.

   The engine reloads its last checkpoint (the manifest written by the
   most recent flush or close); any intact write-ahead-log tail beyond
   it is replayed through the ordinary operations and the result is
   checkpointed.  [durable] re-arms logging for subsequent operations
   (default: on, if the repository ever had a log). *)

let replay_entry t lsn (e : Wal.entry) =
  (try
     match e with
     | Wal.W_insert (b, tuple) -> insert t b tuple
     | Wal.W_update (b, tuple) -> update t b tuple
     | Wal.W_delete (b, key) -> delete t b key
     | Wal.W_commit (b, message) -> ignore (commit t b ~message)
     | Wal.W_branch (name, from) -> ignore (create_branch t ~name ~from)
     | Wal.W_merge (into, from, policy, message) ->
         ignore (merge t ~into ~from ~policy ~message)
     | Wal.W_retire b -> Vg.retire (graph t) b
   with Engine_error _ ->
     (* the log records attempted operations; one that failed when
        first executed fails identically here, and skipping it
        reproduces the original outcome *)
     Obs.incr c_replay_skipped);
  let (Db { engine = (module E); state; _ }) = t in
  E.set_wal_marker state lsn

let reopen ?pool ?scheme ?durable ~dir () =
  let t = reopen_checkpoint ?pool ?scheme ~dir () in
  (* finish or roll back interrupted maintenance before replaying the
     WAL: replay must run against a physically consistent store *)
  let _ = resolve_maintenance t in
  let had_log = Sys.file_exists (wal_path dir) in
  let durable = Option.value durable ~default:had_log in
  if had_log then begin
    (* replay the intact log tail past the checkpoint's marker: entries
       at or below it are already reflected in the manifest state, and
       replaying them would double-apply (the manifest write and the
       log truncation cannot be one atomic step, so recovery may see a
       fresh checkpoint together with a not-yet-truncated log) *)
    let marker = wal_marker t in
    let frames = Wal.read_frames ~path:(wal_path dir) (schema t) in
    List.iter (fun (lsn, e) -> if lsn > marker then replay_entry t lsn e) frames;
    (* the replayed state becomes the new checkpoint *)
    flush t
  end;
  let truncate_consumed_log () =
    let w = Wal.open_log ~path:(wal_path dir) () in
    Wal.reset w;
    Wal.close w
  in
  if durable then begin
    let (Db d) = t in
    let w =
      Wal.open_log ~start_lsn:(wal_marker t + 1) ~path:(wal_path dir) ()
    in
    Wal.reset w;
    d.wal <- Some w
  end
  else if had_log then truncate_consumed_log ();
  t
