(** Row-addressed segment storage in format v2: PAX column-group
    blocks with per-column compression, the only format the engines
    read and write.

    Engines address records by dense row index.  Appended rows accumulate in an in-memory open block and are sealed into one
    heap record of up to {!block_rows} rows: per-column byte ranges
    encoded as constant / delta+zigzag-varint ints and raw /
    dictionary strings, with an RLE tombstone bitmap, optionally LZ77
    compressed as a unit.  Scans decode a block at a time into
    per-domain scratch arrays, test selection bitmaps {e before}
    reading or decoding a block, evaluate column predicates on the
    decoded batch (on dictionary codes for string equality), and
    materialize [Tuple.t] only for emitted rows.

    Pre-columnar (v1) repositories are not readable here; {!Seg_v1}
    upgrades them offline. *)

val block_rows : int
(** Maximum rows per sealed block (1024). *)

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
(** Reopen from metadata written by {!save_meta}; truncates the heap
    to the persisted size (crash recovery). *)

(** {1 Introspection} *)

val schema : t -> Schema.t
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

val iter_rev :
  ?from:int -> ?upto:int -> t -> (int -> row_value -> unit) -> unit
(** Every row of [\[from, upto)], descending (newest first). *)

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

val block_ranges : t -> (int * int) array
(** Row ranges at block granularity covering [\[0, rows)], for fanning
    a scan across domains: parallel workers over distinct ranges touch
    disjoint blocks. *)

(** {1 Manifest metadata} *)

val save_meta : Buffer.t -> t -> unit
(** Flushes, then appends heap size + block index +
    per-column stats (read back by {!open_v2}). *)

val current_format : int
(** The segment format every engine writes (2); reported as the
    storage report's format. *)

val manifest_magic_v2 : int

val write_manifest_header : Buffer.t -> unit
(** Appends the v2 magic + format version bytes. *)

val manifest_version : string -> int ref -> int
(** 1 (cursor unmoved) or the version from a v2 header (cursor past
    it).  v1 manifests cannot begin with the v2 magic byte. *)

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
(** Record checksums plus block decode and row-count checks. *)

val close : t -> unit
val abandon : t -> unit
(** Crash simulation: drop buffered state without flushing. *)

val remove : t -> unit
