(** Tuple-first storage (paper §3.2): one shared heap file plus a
    bitmap index relating every tuple to the branches it is live in,
    functorized over the bitmap layout (§3.1). *)

module type S = sig
  include Engine_intf.S

  val upgrade_v1 : dir:string -> pool:Decibel_storage.Buffer_pool.t -> bool
  (** Offline v1 → v2 upgrade of the repository in [dir]
      ({!Decibel_storage.Seg_v1.upgrade}); [false] if already v2. *)
end

module Make (_ : Decibel_index.Bitmap_intf.S) : S

module Branch_oriented : S
(** The evaluation's default layout (§5). *)

module Tuple_oriented : S
