(** Version-first storage (paper §3.3): per-branch segment files
    chained by branch-point offsets; see the implementation header for
    the scan-order and merge-materialization details. *)

include Engine_intf.S

val upgrade_v1 : dir:string -> pool:Decibel_storage.Buffer_pool.t -> bool
(** Offline v1 → v2 upgrade of the repository in [dir]
    ({!Decibel_storage.Seg_v1.upgrade}); [false] if already v2. *)
