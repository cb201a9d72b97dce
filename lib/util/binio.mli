(** Binary encoding/decoding helpers.

    Writers append to a [Buffer.t]; readers consume from a [string] with
    an explicit cursor ([int ref]), so composite codecs thread the
    position without intermediate slicing.  Integers use LEB128 varints
    where noted; fixed-width values are little-endian. *)

val write_u8 : Buffer.t -> int -> unit
val read_u8 : string -> int ref -> int

val write_u32 : Buffer.t -> int -> unit
val read_u32 : string -> int ref -> int

val write_i64 : Buffer.t -> int64 -> unit
val read_i64 : string -> int ref -> int64

val write_varint : Buffer.t -> int -> unit
(** LEB128; argument must be non-negative. *)

val read_varint : string -> int ref -> int

val write_string : Buffer.t -> string -> unit
(** Varint length prefix, then bytes. *)

val read_string : string -> int ref -> string

val write_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val read_list : (string -> int ref -> 'a) -> string -> int ref -> 'a list
(** Raises {!Corrupt} on a count larger than the remaining input
    (every element takes at least one byte). *)

(** {1 Whole-file helpers} *)

val read_file : string -> string
(** Entire contents of a file. *)

val write_file : string -> string -> unit
(** Atomic-ish replace: writes to [path ^ ".tmp"], then renames. *)

exception Corrupt of string
(** Raised by readers on malformed input. *)
