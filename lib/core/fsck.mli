(** Offline repository checker behind [decibel fsck].

    Detects manifest-trailer checksum failures, manifests whose content
    is inconsistent, stale temp files from interrupted atomic renames,
    torn write-ahead-log tails, per-record heap/segment checksum
    failures, segment bytes past the checkpoint and dangling commit
    locators.  With [~repair:true] the mechanically safe problems
    (stale temp files, torn WAL tail, interrupted maintenance tasks,
    stray segment tails) are fixed in place; checkpoint corruption is
    only ever reported.

    An interrupted maintenance task (a non-terminal entry in the
    [maint.jsonl] intent log) is resolved the same way
    {!Database.reopen} would: if the checkpoint manifest references
    every file the rewrite produced, the swap committed and the stale
    old-generation files are reclaimed; otherwise the orphaned rewrite
    output is deleted and the task rolled back. *)

type finding = {
  artifact : string;  (** file or object the problem is in *)
  problem : string;
  repaired : bool;
}

type maint_fix = {
  mf_kind : string;  (** "compact" | "materialize" | "gc" *)
  mf_target : string;
  mf_action : string;
      (** ["finished"] or ["rolled_back"] under [repair];
          ["pending"] when report-only *)
  mf_removed : string list;  (** orphaned rewrite files deleted *)
}

type report = {
  dir : string;
  scheme : string option;  (** detected scheme, if a manifest was found *)
  findings : finding list;
  maint : maint_fix list;  (** interrupted maintenance tasks resolved *)
}

val run :
  ?repair:bool ->
  ?migrate:bool ->
  ?pool:Decibel_storage.Buffer_pool.t ->
  dir:string ->
  unit ->
  report
(** Check the repository at [dir].  Read-only unless [repair] or
    [migrate] (both default false).  Never raises on a corrupt
    repository — problems become findings.

    With [~migrate:true], a repository still on segment format v1 is
    first rewritten to columnar v2 ({!Database.upgrade_v1}: row order
    preserved, all persisted locators stay valid, crash-atomic); the
    upgrade appears as a repaired finding and the remaining checks
    inspect the result.  Corrupt v1 input is never migrated: it becomes
    a ["cannot migrate: ..."] finding and the files are left as they
    were.  A v2 repository is left untouched.  Without [migrate] a v1
    repository is reported as needing [fsck --migrate]. *)

val clean : report -> bool
(** No findings at all (repaired ones still count as findings). *)

val to_text : report -> string
val to_json : report -> string
