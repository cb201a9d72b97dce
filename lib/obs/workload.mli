(** Per-branch workload accounting.

    [Obs] counters are process-global and [Obs.Prof] bags are
    per-request; neither records {e which branches} are read and
    written, how often, and at what replay cost over time — the access
    frequencies the recreation/storage tradeoff ("Principles of Dataset
    Versioning") needs.  This module is that record: a process-wide,
    lock-striped table keyed by [(table, branch)], fed once per
    operation (never per tuple) by the database's operation boundary.
    A single-branch operation's row receives that operation's
    trace-bag delta ({!Obs.Prof.metered}): the same charges that moved
    the global counters and the request's bag, including page traffic
    from worker domains, which inherit the operation's trace.
    Multi-branch reads ([multi_scan], [diff]) leave a zero-cost touch
    on each branch they name; version reads ([scan_version]) name
    none.

    Rates are exponentially-weighted: each event adds an impulse of
    [1/tau] and the rate decays as [exp (-dt/tau)] between events
    (lazily, plus {!decay} for periodic sweeps), so a steady stream of
    r events/s reads as ~r and stale branches cool toward 0.  All
    entry points take an optional [?now] (unix epoch seconds) so decay
    is testable over simulated time.

    The table is domain-safe: entries are guarded by striped mutexes,
    and concurrent operations serialize only against same-shard
    updates. *)

type stats = {
  w_table : string;
  w_branch : string;
  w_reads : int;  (** reads (scan / scan_filtered, multi_scan / diff touches) *)
  w_writes : int;  (** write operations (insert/update/delete/commit) *)
  w_scanned : int;  (** [Tuples_scanned] of single-branch operations *)
  w_emitted : int;  (** [Tuples_emitted] of single-branch operations *)
  w_fragments : int;  (** [Delta_fragments] of single-branch operations *)
  w_pages_hit : int;  (** [Pages_hit] of single-branch operations *)
  w_pages_missed : int;  (** [Pages_missed] of single-branch operations *)
  w_read_rate : float;  (** EWMA reads/s, decayed to snapshot time *)
  w_write_rate : float;  (** EWMA writes/s *)
  w_last_read : float;  (** unix epoch seconds; [0.] = never *)
  w_last_write : float;
}

val selectivity : stats -> float
(** [emitted / scanned]; [0.] when nothing was scanned. *)

val fragments_per_read : stats -> float
(** Mean delta fragments replayed per read; [0.] when never read. *)

(** {1 Hooks} *)

val note_read :
  ?now:float -> ?costs:Obs.Prof.costs -> table:string -> branch:string ->
  unit -> unit
(** Record one read.  [costs] is the operation's trace-bag delta; its
    scanned, emitted, fragment and page kinds are added to the row.
    Omitted, the read is a zero-cost touch: the read count and rate
    still move. *)

val note_write :
  ?now:float -> ?costs:Obs.Prof.costs -> table:string -> branch:string ->
  unit -> unit
(** Record one write operation, with its costs as for {!note_read}. *)

(** {1 Decay, snapshots and reset} *)

val decay : ?now:float -> unit -> unit
(** Decay every entry's rates forward to [now] (default: wall clock).
    Lazily-decayed entries make this optional; periodic sweeps keep
    snapshots of idle tables honest without waiting for traffic. *)

val snapshot : ?now:float -> unit -> stats list
(** All entries, rates decayed to [now], sorted by [(table, branch)]. *)

val find : ?now:float -> table:string -> branch:string -> unit -> stats option

val reset : unit -> unit
(** Drop every entry (tests and fresh benchmarks). *)

val set_tau : float -> unit
(** EWMA time constant in seconds (default 60).  Raises
    [Invalid_argument] when not positive. *)

(** {1 Rendering} *)

val stats_json : stats -> string
val to_text : stats list -> string

(** {1 JSONL checkpoint}

    One flat JSON object per line.  [save] writes temp+rename so a
    crash mid-save keeps the previous checkpoint; [load] merges into
    the live table (each total keeps the larger of the live and
    checkpointed value, rates resume from their checkpointed value and
    timestamp), so stats survive restarts, and a repository closed and
    reopened within one process is not counted twice. *)

val save : ?now:float -> ?table:string -> path:string -> unit -> unit
(** Persist the table (optionally only entries of [table]), rates
    decayed to [now]. *)

val load : path:string -> unit -> unit
(** Merge a checkpoint back in; missing file is a no-op. *)
