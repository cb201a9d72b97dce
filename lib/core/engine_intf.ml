(** The versioned storage engine interface.

    All three physical representations (tuple-first, version-first,
    hybrid — paper §3) implement this signature, as do the reference
    model used by the test suite and the git-like baseline's adapter.
    The benchmark, query layer, examples and CLI are written against it,
    so schemes are interchangeable.

    Semantics (paper §2.2.3):
    - Modifications apply to a branch's working head and become a
      checkable version only at {!S.commit}.
    - Branches are created from any committed version.
    - A version is immutable; [scan_version] of a commit returns the
      same records forever.
    - [diff] and [multi_scan] compare current branch heads (the working
      copies); [scan_version] reads historical commits.

    Cancellation: the long-running operations (scans, diff, merge)
    take an optional {!Decibel_governor.Governor.Ctx.t} and poll it
    cooperatively — at chunk boundaries of their parallel fan-out and
    on a stride inside serial decode loops — raising
    [Governor.Cancelled] / [Deadline_exceeded] / [Budget_exceeded]
    from a read path only.  [merge] polls during its read phase
    (collecting both sides' changes) and never once it has begun
    installing decisions, so an abandoned merge leaves the store
    exactly as it was. *)

open Decibel_storage
open Types

(** What a maintenance task does to the physical layout. *)
type maint_kind =
  | M_compact  (** rewrite a fragmented segment keeping only referenced rows *)
  | M_materialize  (** collapse a version-first delta chain into one segment *)
  | M_gc  (** reclaim dead heap space (whole-store rewrite for tuple-first) *)

(** A planned, not-yet-executed maintenance task.  [plan_maintenance]
    is pure: it inspects state and captures closures, touching no
    files.  The executor ([Database.run_maintenance]) then drives the
    crash-safe protocol: journal Begin, [mp_apply] (build every file
    in [mp_new_files] and swap the in-memory state as its very last
    step — on exception it must remove its partial new files and leave
    the in-memory state untouched), fingerprint check, manifest commit
    via the engine [flush], journal Apply, [mp_cleanup] (invalidate
    buffer-pool pages and unlink [mp_old_files]), journal Done. *)
type maint_plan = {
  mp_kind : maint_kind;
  mp_target : string;  (** branch name or segment file being rewritten *)
  mp_new_files : string list;  (** basenames the task will create *)
  mp_old_files : string list;
      (** basenames made obsolete once the manifest commits; recovery
          may unlink any that survive a crash after journal Apply *)
  mp_bytes_before : int;  (** on-disk bytes the rewritten artifacts held *)
  mp_apply : unit -> unit;
  mp_cleanup : unit -> unit;
}

module type S = sig
  type t

  val scheme : string
  (** Short name for reports: ["tuple-first"], ["version-first"],
      ["hybrid"], ... *)

  val create :
    compress:bool ->
    dir:string ->
    pool:Buffer_pool.t ->
    schema:Schema.t ->
    t
  (** Initialize a repository in [dir] (created if absent): the root
      version (empty dataset) on the master branch.  The paper's [init]
      operation (§2.2.3).  [dir] should be empty or absent; existing
      repository files are truncated.  Records are stored in the
      columnar block layout of {!Decibel_storage.Col_segment}.

      [compress] LZ77-compresses each sealed block where that pays —
      the paper's suggested mitigation for the storage blowup of
      whole-record copies on table-wise updates (§5.5), trading
      materialization (decode) cost for space.  Default off, as in the
      paper. *)

  val open_existing : cut_tails:bool -> dir:string -> pool:Buffer_pool.t -> t
  (** Reopen a repository persisted by {!S.flush} or {!S.close}.
      With [~cut_tails:true] (crash recovery) segment bytes past the
      checkpoint are cut once the whole manifest has loaded; with
      [false] the open writes nothing, and a {!S.crash} releases the
      state again without writing (fsck's read-only check).
      Raises {!Types.Engine_error} if [dir] holds no repository of this
      scheme, or one still in the pre-columnar segment format v1 (which
      only [fsck --migrate] reads). *)

  val schema : t -> Schema.t
  val graph : t -> Decibel_graph.Version_graph.t

  (** {1 Version control} *)

  val create_branch : t -> name:string -> from:version_id -> branch_id
  (** New branch whose initial contents are version [from].  Raises
      {!Types.Engine_error} if the name is taken. *)

  val commit : t -> branch_id -> message:string -> version_id
  (** Snapshot the branch's working state as a new version. *)

  val merge :
    ?ctx:Decibel_governor.Governor.Ctx.t ->
    t ->
    into:branch_id ->
    from:branch_id ->
    policy:merge_policy ->
    message:string ->
    merge_result
  (** Merge [from]'s head state into [into]; the merged state becomes a
      new merge commit at the head of [into] (paper §2.2.3 “Merge”,
      with the merged version made the new head of the destination). *)

  (** {1 Data modification (working head of a branch)} *)

  val insert : t -> branch_id -> Tuple.t -> unit
  (** Raises {!Types.Engine_error} if the key already exists in the
      branch or the tuple does not match the schema. *)

  val update : t -> branch_id -> Tuple.t -> unit
  (** Replace the record with the tuple's key.  Raises
      {!Types.Engine_error} if the key is absent. *)

  val delete : t -> branch_id -> Value.t -> unit
  (** Raises {!Types.Engine_error} if the key is absent. *)

  val lookup : t -> branch_id -> Value.t -> Tuple.t option
  (** Point read by primary key in the working head. *)

  (** {1 Scans} *)

  val scan :
    ?ctx:Decibel_governor.Governor.Ctx.t ->
    t ->
    branch_id ->
    (Tuple.t -> unit) ->
    unit
  (** All live records of the branch's working head (Q1). *)

  val scan_filtered :
    ?ctx:Decibel_governor.Governor.Ctx.t ->
    t ->
    branch_id ->
    preds:Col_pred.t list ->
    (Tuple.t -> unit) ->
    unit
  (** [scan] restricted to records satisfying every predicate.  On
      columnar segments the predicates are evaluated on decoded column
      batches — below tuple materialization, and below decompression
      for blocks the branch bitmap rules out; engines without a
      columnar path apply {!Col_pred.eval_tuple} per record. *)

  val scan_version :
    ?ctx:Decibel_governor.Governor.Ctx.t ->
    t ->
    version_id ->
    (Tuple.t -> unit) ->
    unit
  (** All records of a committed version (checkout + scan). *)

  val multi_scan :
    ?ctx:Decibel_governor.Governor.Ctx.t ->
    t ->
    branch_id list ->
    (annotated -> unit) ->
    unit
  (** Records live in any of the given branch heads, each emitted once
      per physical record with its branch annotations (Q4). *)

  val diff :
    ?ctx:Decibel_governor.Governor.Ctx.t ->
    t ->
    branch_id ->
    branch_id ->
    pos:(Tuple.t -> unit) ->
    neg:(Tuple.t -> unit) ->
    unit
  (** Content difference of two branch heads: [pos] receives records
      live in the first branch whose key is absent or whose fields
      differ in the second; [neg] the converse (Q2 runs [pos] only). *)

  (** {1 Introspection} *)

  val dataset_bytes : t -> int
  (** Bytes of record data on disk (heap/segment files). *)

  val commit_meta_bytes : t -> int
  (** Bytes of commit metadata (compressed bitmap histories or commit
      maps) — the paper's “pack file size” column in Table 2. *)

  val storage_report : t -> Decibel_obs.Report.engine_part
  (** The storage-scheme-specific slice of the introspection report:
      per-branch live/dead tuple counts, bitmap density and delta-chain
      stats, per-segment occupancy/fragmentation, and commit-history
      totals.  Walks in-memory structures (and, for segment schemes,
      record headers); never mutates the store.  [Database] composes
      this with graph and buffer-pool facts into a full
      {!Decibel_obs.Report.t}. *)

  (** {1 Maintenance} *)

  val plan_maintenance :
    t -> kind:maint_kind -> target:string -> maint_plan option
  (** Plan one maintenance task against the current in-memory state,
      or [None] when the task is inapplicable (unknown target, nothing
      to gain, unsupported kind for this scheme).  Pure: no files are
      touched until the returned plan's [mp_apply] runs.  The caller
      must hold off concurrent writers for the whole
      plan-apply-commit-cleanup window (engines are not internally
      synchronized). *)

  val referenced_files : t -> string list
  (** Basenames of every data file the current in-memory state (i.e.
      the manifest that [flush] would write) references.  Recovery
      uses this to decide whether an interrupted maintenance task's
      new files made it into the committed manifest. *)

  (** {1 Fault tolerance} *)

  val wal_marker : t -> int
  (** Log-sequence number of the last write-ahead-log entry reflected
      in this state (0 before any logged operation).  Persisted inside
      the manifest by {!flush}, so the checkpoint and its log position
      are linked atomically; recovery replays only entries beyond it. *)

  val set_wal_marker : t -> int -> unit
  (** Record the LSN of an operation just applied; durable at the next
      {!flush}. *)

  val verify : t -> (string * string) list
  (** Validate on-disk artifacts: manifest trailer checksum, per-record
      heap/segment checksums, and cross-references from commit locators
      into the version graph.  Returns [(artifact, reason)] per
      problem; empty means clean.  Read-only (fsck's engine half). *)

  val crash : t -> unit
  (** Crash simulation for the torture harness: release file
      descriptors {e without} flushing buffered appends or writing the
      manifest, leaving on disk exactly what previous flushes made
      durable.  The state is unusable afterwards. *)

  val flush : t -> unit
  val close : t -> unit
end
