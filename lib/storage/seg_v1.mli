(** Read-only reader for the pre-columnar segment format v1, and the
    crash-atomic v1 → v2 upgrade behind [fsck --migrate].

    The engines read and write only v2 ({!Col_segment}); each keeps one
    [upgrade_v1] that parses the segment section of its v1 manifest
    with this module and reuses its own v2 reader and manifest writer
    for everything else.  Every decode here is strict: out-of-range
    sizes, offsets and locators, checksum mismatches, bad record tags
    and trailing bytes raise [Decibel_util.Binio.Corrupt]. *)

type layout =
  | Tagged  (** tuple-first and hybrid: tag 0 raw, 1 LZ77; no tombstones *)
  | Flagged  (** version-first: flags 0 raw, 1 tombstone, 2 LZ77 *)

type heap
(** A walked v1 segment: its records in file order. *)

val row_of_offset : heap -> int -> int
(** Row of a byte locator (a record start, or the segment end). *)

type staging
(** The v2 segments one upgrade has staged so far. *)

val stage :
  staging ->
  pool:Buffer_pool.t ->
  schema:Schema.t ->
  compress:bool ->
  layout:layout ->
  ?offsets:int list ->
  path:string ->
  size:int ->
  unit ->
  Col_segment.t * heap
(** Walk bytes [\[0, size)] of the v1 segment at [path] (checking each
    record's checksum, and that [offsets], when the manifest lists
    them, are exactly the record starts) and stream its rows, order
    preserved, into a new v2 segment at [path ^ ".mig"]. *)

val upgrade :
  Manifest.kind ->
  dir:string ->
  (staging -> string -> int ref -> string -> unit) ->
  bool
(** [upgrade kind ~dir build] runs the staging protocol on the
    repository in [dir], whose manifest is of [kind].  [build st data pos]
    parses a v1 manifest body (cursor past the absent v2 header),
    staging segments through [st], and returns the writer of the
    equivalent v2 manifest to a given path.  Staged segments are
    flushed and fsynced, the v2 manifest is written to
    [manifest ^ ".mig"] (the commit point), then every staged file is
    renamed over its original, the manifest last (failpoint
    ["migrate.rename"] before each rename).

    A staged manifest left by an interrupted run is rolled forward;
    otherwise stray staged files are deleted first.  Returns [false]
    (touching nothing) when the manifest is already v2.  Raises
    [Binio.Corrupt] on corrupt v1 input, after removing what it
    staged; no v1 file is modified before the commit point.  A missing
    manifest raises {!Manifest.Engine_error}. *)
