open Decibel_storage

(** Per-branch primary-key index.

    To support efficient updates and deletes, the engines keep an index
    from primary key to the most recent copy of each record in each
    branch (paper §3.2 “Data Modification”).  The location type is
    engine-specific (row number for tuple-first, segment/offset for
    version-first and hybrid), so the index is polymorphic in it.

    Each branch's map is persistent.  Branch creation shares the
    parent's map in O(1), and a later write to either branch copies
    only the O(log n) nodes on its key's path, so branches that
    inherit a large key set hold one copy of it between them. *)

type 'a t

val create : unit -> 'a t

val add_branch : 'a t -> from:int option -> int
(** Register the next dense branch id, optionally sharing the parent's
    key map. Returns the new branch id. *)

val branch_count : 'a t -> int

val find : 'a t -> branch:int -> Value.t -> 'a option
val set : 'a t -> branch:int -> Value.t -> 'a -> unit
val remove : 'a t -> branch:int -> Value.t -> unit
val mem : 'a t -> branch:int -> Value.t -> bool
val iter : 'a t -> branch:int -> (Value.t -> 'a -> unit) -> unit
(** In ascending key order. *)

val cardinal : 'a t -> branch:int -> int
(** O(n). *)
