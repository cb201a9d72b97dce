(** Shared versioning types.

    Vocabulary used across the storage engines: branch and version
    identifiers come from {!Decibel_graph.Version_graph}; merges produce
    conflicts at field granularity (paper §2.2.3). *)

open Decibel_storage

type branch_id = Decibel_graph.Version_graph.branch_id
type version_id = Decibel_graph.Version_graph.version_id

(** How a merge resolves records modified in both branches since their
    lowest common ancestor. *)
type merge_policy =
  | Ours
      (** Two-way precedence merge: the destination branch wins every
          conflicting record outright (paper §3.3 “simple precedence
          based model”). *)
  | Theirs  (** Two-way precedence merge, source branch wins. *)
  | Three_way
      (** Field-level merge against the LCA copy: non-overlapping field
          updates auto-merge; overlapping field updates are conflicts,
          resolved by giving the destination branch precedence and
          reported in the result (paper §2.2.3 default). *)

(** One conflicting record, as reported to the caller. [None] states
    mean the record was deleted on that side. *)
type conflict = {
  key : Value.t;
  base : Tuple.t option;  (** State at the LCA. *)
  ours : Tuple.t option;  (** State in the destination branch. *)
  theirs : Tuple.t option;  (** State in the source branch. *)
  fields : int list;
      (** Conflicting field indices (empty for whole-record conflicts
          such as delete-vs-modify). *)
  resolved : Tuple.t option;  (** State the merge installed. *)
}

type merge_result = {
  merge_version : version_id;
  conflicts : conflict list;
  keys_ours : int;  (** Keys changed only in the destination branch. *)
  keys_theirs : int;  (** Keys changed only in the source branch. *)
  keys_both : int;  (** Keys changed in both (conflict candidates). *)
}

(** A record paired with the branches whose heads contain it — the
    output shape of a multi-branch scan (paper Q4: records “annotated
    with their active branches”). *)
type annotated = { tuple : Tuple.t; in_branches : branch_id list }

exception Engine_error = Manifest.Engine_error

let errorf fmt = Printf.ksprintf (fun s -> raise (Engine_error s)) fmt
