(** Hybrid storage (paper §3.4): version-first's per-branch segment
    files combined with tuple-first's bitmaps — per-segment local
    bitmaps plus a global branch–segment bitmap.  The paper's best
    performing scheme. *)

include Engine_intf.S

val upgrade_v1 : dir:string -> pool:Decibel_storage.Buffer_pool.t -> bool
(** Offline v1 → v2 upgrade of the repository in [dir]
    ({!Decibel_storage.Seg_v1.upgrade}); [false] if already v2. *)
