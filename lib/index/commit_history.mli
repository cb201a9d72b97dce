(** Compressed commit histories for bitmap-backed engines.

    Tuple-first and hybrid keep historical commit data out of the live
    bitmap index: each commit stores the XOR delta between the branch's
    bitmap now and at the previous commit, run-length-encoded, appended
    to a per-branch (or per branch-and-segment, in hybrid) history file
    (paper §3.2 “Commit”).  Checkout replays deltas up to the commit of
    interest.  To bound replay length, every [layer_stride] commits a
    second-layer composite delta (XOR across the whole stride) is also
    written, so a checkout applies at most
    [n / stride + stride] deltas — the paper's two-layer scheme.

    Compressed entries are cached in memory; the backing file is the
    durable copy and the thing whose size Table 2 reports.

    {b When bytes reach disk.}  A commit appends its records to an
    in-memory pending buffer, not to the file: no descriptor stays open
    between calls.  {!flush} creates the file (or appends to it) and
    closes it again; the engines flush every history just before they
    write their manifest, so a checkpoint's manifest never references a
    record that is not on disk, and a crash between checkpoints leaves
    each file holding exactly what the last manifest knows.  Dropping a
    history without {!flush} discards its pending records. *)

type t

val layer_stride : int
(** Commits per composite delta (16). *)

val create : path:string -> t
(** New empty history backed by the given file, which its first
    {!flush} creates (or truncates). *)

val open_existing : path:string -> t
(** Reload a persisted history. *)

val commit : t -> Decibel_util.Bitvec.t -> int
(** Record the branch bitmap at a commit; returns the commit's index in
    this history (0-based).  The records stay pending until {!flush}. *)

val is_latest : t -> Decibel_util.Bitvec.t -> bool
(** The history is non-empty and its latest commit holds exactly this
    bitmap, so that commit's index ([count - 1]) can stand for it. *)

val flush : t -> unit
(** Write the pending records to the file and close it. *)

val checkout : t -> int -> Decibel_util.Bitvec.t
(** Reconstruct the bitmap as of the given commit index.  Raises
    [Invalid_argument] if out of range. *)

val count : t -> int
val disk_bytes : t -> int
(** Size of the history file once flushed: the bytes on disk plus the
    pending ones. *)

val path : t -> string
(** The backing file, for introspection reports. *)

val replay_length : t -> int -> int
(** Number of delta applications a checkout of the given index needs
    (for the layering ablation). *)

val footprint : dir:string -> t list -> int * int
(** [(files, bytes)] over every history file ([hist_*]) of [dir]: each
    of the given in-memory histories counts as one file of its
    {!disk_bytes}, whether flushed yet or not, and every other history
    file counts at its size on disk.  The one count behind the
    engines' [commit_meta_bytes] and storage reports. *)
