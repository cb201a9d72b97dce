(** Append-only record files (heap files).

    All three Decibel storage schemes keep tuple data in heap files that
    only ever grow: tuple-first uses one shared file, version-first and
    hybrid use one segment file per branch (paper §3).  Records are
    varint-length-prefixed byte strings addressed by their starting byte
    offset; offsets double as record identifiers and as the branch-point
    markers version-first stores in its version graph.

    Appends are buffered in memory and flushed in large writes (at
    1 MiB pending, or on an explicit {!flush}); the buffer starts at a
    few hundred bytes, grows with the pending appends and is released
    by each flush, so an open file that is not being written costs no
    buffer memory to speak of.  Reads go through the shared
    {!Buffer_pool} so sequential scans hit cached pages.  A single
    writer is assumed per file (Decibel serializes branch modifications
    with branch-level locks).

    Every record carries a CRC-32 of its payload in the header
    ([varint length, u32 crc, payload]), verified on every read, so
    media corruption and torn flushes surface as
    [Decibel_util.Binio.Corrupt] instead of silently wrong tuples.
    Appends, flushes, reads and truncations announce themselves to the
    {!Decibel_fault.Failpoint} registry (sites ["heap.append"],
    ["heap.flush"] — tearable — ["heap.get"], ["heap.truncate"]);
    flushes retry on transient failures via
    {!Decibel_fault.Retry.with_retries}. *)

type t

val create : pool:Buffer_pool.t -> string -> t
(** Create or truncate the file at the given path. *)

val open_existing : pool:Buffer_pool.t -> size:int -> string -> t
(** Open for reading and appending at logical size [size]; raises
    [Sys_error] if missing.  Bytes past [size] are neither read nor
    cut until a {!truncate_to} (so a reopen can validate its whole
    manifest before it writes); [Decibel_util.Binio.Corrupt] if [size]
    is negative or exceeds the file. *)

val open_reset : pool:Buffer_pool.t -> string -> t
(** Open-or-create with logical size 0 {e without} truncating the file
    on disk.  The maintenance executor stages an empty segment over a
    slot whose old bytes must stay readable until the manifest commit;
    stale tail bytes are reclaimed by a later {!create} or
    {!truncate_to}. *)

val path : t -> string

val size : t -> int
(** Logical size in bytes, including unflushed appends.  This is the
    offset the next append will return, i.e. the "end of segment" that
    branch points record (paper §3.3). *)

val page_count : t -> int
(** Number of buffer-pool pages the file's logical size spans — the
    page footprint a full sequential scan touches.  Heap files also
    feed the process-wide ["heap.*"] registry counters (pages read
    from disk, pages allocated, records/bytes written, flushes). *)

val append : t -> string -> int
(** Append one record; returns its offset. *)

val get : t -> int -> string
(** Record starting at the given offset.  Raises [Invalid_argument] on
    an out-of-range offset and [Decibel_util.Binio.Corrupt] if the
    offset does not address a record header or the payload fails its
    checksum. *)

val iter : ?from:int -> ?upto:int -> t -> (int -> string -> unit) -> unit
(** Sequential scan of records whose offsets lie in [\[from, upto)];
    calls [f offset payload] in file order. *)

val iter_rev : ?from:int -> ?upto:int -> t -> (int -> string -> unit) -> unit
(** Like {!iter} but emits records in reverse file order (used by
    version-first lineage scans, which read newest-first). *)

val flush : t -> unit
(** Push buffered appends to the operating system. *)

val truncate_to : t -> int -> unit
(** Discard everything past the given logical size (crash recovery:
    bytes written after the last checkpoint are replayed from the
    write-ahead log instead).  Requires no pending appends and a target
    within the current size.  Only buffer-pool pages at or past the cut
    are invalidated; the retained prefix stays cached. *)

val verify : t -> (int * string) list
(** Walk every record and check its checksum; returns [(offset,
    reason)] for each failure (offset [-1] with the parse error when
    the record framing itself is broken and the scan cannot continue).
    Empty means the file is clean.  Used by fsck. *)

val stray_bytes : t -> int
(** Bytes on disk past the flushed end: a crash's tail that a
    read-only open leaves in place (a recovering one cuts it with
    {!truncate_to}).  [0] on a live file. *)

val close : t -> unit

val abandon : t -> unit
(** Crash simulation: discard buffered appends and close the
    descriptor {e without} flushing, leaving on disk exactly what
    earlier flushes made durable.  The handle becomes unusable. *)

val remove : t -> unit
(** Close and delete the underlying file. *)
