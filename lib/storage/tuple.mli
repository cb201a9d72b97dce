(** Tuple (record) encoding.

    A tuple is an array of {!Value.t} conforming to a {!Schema.t}.  The
    wire form is schema-directed: int columns are fixed 8-byte
    little-endian, string columns are varint-length-prefixed, so all-int
    benchmark tuples have a fixed, predictable size (the paper fixes a
    1 KB record of integer columns, §4.2). *)

type t = Value.t array

val pk : Schema.t -> t -> Value.t
(** The primary-key field. *)

val field : t -> int -> Value.t

val equal : t -> t -> bool

val encode : Schema.t -> t -> string
val encode_into : Schema.t -> Buffer.t -> t -> unit
val decode : Schema.t -> string -> int ref -> t

val encoded_size : Schema.t -> t -> int

val merge_fields : base:t option -> ours:t -> theirs:t -> (t, int list) result
(** Three-way field merge relative to the lowest-common-ancestor copy.
    Non-overlapping field updates auto-merge; returns [Error fields]
    listing the conflicting field indices when both sides changed the
    same field to different values (paper §2.2.3 “Merge”).  With no base
    (both sides inserted the key independently), any disagreeing field
    conflicts. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
