(** Row-addressed segment storage in format v2: PAX column-group
    blocks with per-column compression, the only format the engines
    read and write.

    Engines address records by dense row index.  Appended rows accumulate in an in-memory open block and are sealed into one
    heap record of up to 1024 rows: per-column byte ranges
    encoded as constant / delta+zigzag-varint ints and raw /
    dictionary strings, with an RLE tombstone bitmap, optionally LZ77
    compressed as a unit.  Scans decode a block at a time into
    per-domain scratch arrays, test selection bitmaps {e before}
    reading or decoding a block, evaluate column predicates on the
    decoded batch (on dictionary codes for string equality), and
    materialize [Tuple.t] only for emitted rows.

    Lineage walks read through {!blocks_rev}, which fetches and decodes
    each block once, and may decode only the primary-key column and
    tombstone bits; {!tuple} builds a row only when asked.

    Pre-columnar (v1) repositories are not readable here; {!Seg_v1}
    upgrades them offline. *)

type row_value =
  | Live of Tuple.t
  | Tombstone of Value.t  (** deletion marker, keyed by primary key *)

type t

(** {1 Construction} *)

val create_v2 :
  pool:Buffer_pool.t -> schema:Schema.t -> compress:bool -> path:string -> t

val empty_over :
  pool:Buffer_pool.t -> schema:Schema.t -> compress:bool -> path:string -> t
(** Empty segment handle over [path] {e without} truncating the
    file: old bytes stay on disk (crash safety for maintenance slot
    swaps) and are reclaimed when the slot is next created or
    reopened, since the manifest records size 0. *)

val open_v2 :
  pool:Buffer_pool.t ->
  schema:Schema.t ->
  compress:bool ->
  path:string ->
  string ->
  int ref ->
  t
(** Reopen from metadata written by {!save_meta}, at the persisted
    size: bytes a crash left past it are neither read nor cut (only
    {!with_opened} cuts them).  A missing file, a file shorter than the
    persisted size or a bad block index raises
    [Decibel_util.Binio.Corrupt]. *)

val with_opened :
  cut_tails:bool ->
  ((pool:Buffer_pool.t ->
   schema:Schema.t ->
   compress:bool ->
   path:string ->
   string ->
   int ref ->
   t) ->
  'a) ->
  'a
(** [with_opened ~cut_tails f] runs [f] with {!open_v2}; once [f] has
    returned, and if [cut_tails], every segment it opened is truncated
    to its persisted size (crash recovery), so a manifest refused in
    any section leaves every segment file byte-identical.  Without
    [cut_tails] nothing is written (fsck's read-only load).  If [f]
    raises, every segment it opened is abandoned before the exception
    propagates. *)

(** {1 Introspection} *)

val path : t -> string

val pool : t -> Buffer_pool.t
(** The buffer pool this segment reads through — lets engines build
    sibling segments (compaction) without threading the pool
    separately. *)

val rows : t -> int
val byte_size : t -> int
val page_count : t -> int

val bytes_upto : t -> int -> int
(** Approximate on-disk bytes holding rows [0, row) — the charge basis
    for governed scans bounded by a row locator. *)

(** {1 Mutation} *)

val append : t -> row_value -> int
(** Appends and returns the new row's index. *)

val flush : t -> unit
(** Seals the open block and flushes the heap. *)

(** {1 Access} *)

val get : t -> int -> row_value
(** Point lookup, decoding through a per-domain one-block cache. *)

val get_tuple : t -> int -> Tuple.t
(** [get], raising [Binio.Corrupt] on a tombstone row. *)

val iter : ?from:int -> ?upto:int -> t -> (int -> row_value -> unit) -> unit
(** Every row (live and tombstone) of [\[from, upto)], ascending. *)

type block
(** One decoded block of a segment, or a copy of its unsealed rows. *)

val blocks_rev : ?keys_only:bool -> ?from:int -> ?upto:int -> t -> block list
(** The blocks holding rows [\[from, upto)], newest first, each fetched
    (checksum included) and decoded once into its own arrays, so the
    list may cross domains.  [~keys_only:true] decodes the key column
    and tombstones only, skipping the rest by their recorded lengths.
    Damage raises [Binio.Corrupt] in either mode. *)

val extent : block -> int * int
(** The rows [\[lo, hi)] of the walk this block answers for. *)

val key : block -> int -> Value.t
(** Primary key of a row of {!extent} (a tombstone's deleted key). *)

val is_tombstone : block -> int -> bool

val tuple : block -> int -> Tuple.t
(** Builds the row's tuple; [Invalid_argument] on a tombstone or a
    key-projected block. *)

val scan :
  ?sel:Decibel_util.Bitvec.t ->
  ?preds:Col_pred.t list ->
  ?from:int ->
  ?upto:int ->
  t ->
  (int -> Tuple.t -> unit) ->
  unit
(** Live rows passing the selection bitmap and predicates, ascending.
    Blocks whose row range has no selected bit are skipped without
    being read, and [preds] are evaluated on decoded batches before
    any tuple is built. *)

(** {1 Manifest metadata} *)

val save_meta : Buffer.t -> t -> unit
(** Flushes, then appends heap size + block index +
    per-column stats (read back by {!open_v2}). *)

val current_format : int
(** The segment format every engine writes (2); reported as the
    storage report's format and written in every manifest header
    ({!Manifest}). *)

(** {1 Reporting} *)

type col_report = {
  cr_name : string;
  cr_encoding : string;
  cr_raw_bytes : int;
  cr_enc_bytes : int;
}

val column_report : t -> col_report array
(** Per-column dominant encoding and raw-vs-encoded byte volume across
    sealed blocks. *)

val merge_column_reports : col_report array list -> col_report array
(** Aggregate several same-schema segments' reports: byte volumes sum;
    each column's dominant encoding comes from the segment that
    contributed the most raw bytes. *)

(** {1 Integrity and lifecycle} *)

val verify : t -> (int * string) list
(** Record checksums plus block decode and row-count checks, and bytes
    on disk past the persisted size ({!Heap_file.stray_bytes}), whose
    finding starts with {!stray_tail}. *)

val stray_tail : string

val close : t -> unit
val abandon : t -> unit
(** Crash simulation: drop buffered state without flushing. *)

