(** Engine checkpoint manifests: the envelope every storage scheme
    shares.

    A manifest is one {!Atomic_file} payload,
    [header | body | locators | dirty | WAL marker], then the CRC
    trailer.  The header is the v2 magic [0xF2] and the format version;
    the body is the engine's own; the last three sections are
    {!write_tail}'s.  Readers raise [Decibel_util.Binio.Corrupt] on
    malformed or inconsistent content. *)

exception Engine_error of string
(** A repository the engines refuse; re-exported as
    [Decibel.Types.Engine_error]. *)

type kind = Tf | Vf | Hy  (** tuple-first (both layouts), version-first, hybrid *)

val path : kind -> string -> string
(** [path kind dir]: [dir]'s ["manifest.tf"], ["manifest.vf"] or
    ["manifest.hy"]. *)

val detect : string -> kind * string option
(** The kind of the one manifest in a directory and, for [Tf], the
    bitmap layout recorded in it.  {!Engine_error} if there is no
    manifest or more than one. *)

val write : string -> (Buffer.t -> unit) -> unit
(** [write path body]: the v2 header, then [body], atomically replacing
    [path]. *)

val write_head :
  Buffer.t ->
  compress:bool ->
  graph:Decibel_graph.Version_graph.t ->
  schema:Schema.t ->
  unit
(** Compress flag, version graph, schema: version-first and hybrid
    bodies open with these. *)

val write_tail :
  Buffer.t ->
  locators:(int, 'a) Hashtbl.t ->
  (Buffer.t -> 'a -> unit) ->
  dirty:(int, bool) Hashtbl.t ->
  wal_marker:int ->
  unit
(** Commit locators (count, then each version id and its value in the
    given codec), per-branch dirty flags and the WAL marker. *)

val load : kind -> dir:string -> (string -> int ref -> 'a) -> 'a
(** [load kind ~dir body] runs [body] on the payload past the header;
    [body] must consume all of it.  {!Engine_error}
    ["<scheme>: no repository in <dir>"] for a missing file and
    ["segment format v1: run fsck --migrate"] for a v1 manifest. *)

val read_v1 : kind -> dir:string -> (string * int ref) option
(** A v1 manifest's payload, for the offline upgrade; [None] if the
    manifest is v2. *)

val read_id : string -> bound:int -> string -> int ref -> int
(** [read_id what ~bound s pos]: a varint in [\[0, bound)], else
    [Corrupt] naming [what]. *)

val check : string -> bool -> unit
(** [check what ok]: [Corrupt] naming [what] unless [ok]. *)

val read_head :
  string -> int ref -> bool * Decibel_graph.Version_graph.t * Schema.t

val read_tail :
  string ->
  int ref ->
  locators:(int, 'a) Hashtbl.t ->
  (string -> int ref -> 'a) ->
  dirty:(int, bool) Hashtbl.t ->
  branches:int ->
  int
(** Fills the tables (dirty branch ids below [branches]) and returns
    the WAL marker. *)

val verify :
  kind ->
  dir:string ->
  graph:Decibel_graph.Version_graph.t ->
  Col_segment.t list ->
  (int, 'a) Hashtbl.t ->
  ('a -> int list) ->
  (string * string) list
(** [verify kind ~dir ~graph segments locators segments_of]: as
    [(file, problem)] findings, a bad trailer, every record check
    failing in [segments] (indexed by segment id), and each locator
    naming a version outside [graph] or (through [segments_of]) a
    segment id outside [segments]. *)
