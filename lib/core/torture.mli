(** Crash-torture harness: induce a crash at every failpoint site a
    scripted workload crosses, recover, and check the result against a
    model-engine oracle.  Shared by the crash tests and
    [bench --only crash]. *)

type op =
  | Insert of string * int * int  (** branch, key, payload *)
  | Update of string * int * int
  | Delete of string * int
  | Commit of string
  | Branch of string * string  (** new name, from branch *)
  | Merge of string * string  (** into, from *)
  | Flush  (** checkpoint: manifest write + WAL truncation *)
  | Maint
      (** run every applicable maintenance task crash-safely (GC with
          an engine-chosen target, then materialize per active
          branch); content-preserving, so it does not advance the
          oracle state *)

val default_workload : op list

val maint_workload : op list
(** Maintenance-concurrent schedule: fragmenting writes, two [Maint]
    passes, and writer ops continuing in between. *)

val schema : Decibel_storage.Schema.t
(** The 3-int-column schema the scripted workloads use. *)

val row : int -> int -> Decibel_storage.Tuple.t
(** [row key payload] — a tuple of {!schema}. *)

val apply : Database.t -> op -> unit

val state_of : Database.t -> (string * Decibel_storage.Value.t list list) list
(** Every active branch's sorted contents, sorted by branch name. *)

type case = {
  c_site : string;
  c_occurrence : int;  (** which crossing of the site was armed *)
  c_action : string;  (** ["raise"] or ["torn"] *)
  c_fired : bool;  (** the armed failpoint actually fired *)
  c_marker : int;  (** recovered WAL marker, [-1] if recovery failed *)
  c_fsck_findings : int;  (** findings repaired before recovery *)
  c_ok : bool;
  c_detail : string;  (** failure explanation, [""] when ok *)
}

type summary = {
  s_scheme : string;
  s_cases : case list;
  s_failures : int;
  s_sites : (string * int) list;  (** failpoint census of the dry run *)
}

val torture :
  ?workload:op list ->
  ?site_prefix:string ->
  ?tag:string ->
  root:string ->
  Database.scheme ->
  summary
(** Torture one scheme under [root] (scratch space; per-case
    subdirectories are removed as they finish).  Each case arms one
    failpoint crossing, crashes, fsck-repairs, recovers, re-applies the
    swallowed suffix of the workload, and verifies both the recovered
    prefix state and the final state against the oracle.
    [site_prefix] restricts which discovered sites get cases (the
    census in [s_sites] still lists all of them); [tag] namespaces the
    scratch directories so independent torture runs can share a
    [root]. *)

val maint_sites : string list
(** The five maintenance failpoint sites a [Maint] pass crosses. *)

val maint_torture : ?workload:op list -> root:string -> Database.scheme -> summary
(** {!torture} with {!maint_workload}, killing at the [maint.*] sites
    only: every case crashes inside (or at the journal boundaries of)
    a compaction/materialization/GC and must recover
    fingerprint-identical. *)

val transient_check :
  ?workload:op list -> root:string -> Database.scheme -> (string * string) list
(** One transient fault at each retryable site: returns
    [(site, outcome)] where outcome [""] means the retry absorbed it
    and the workload completed with the oracle's final state. *)
