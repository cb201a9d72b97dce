(** Process-wide observability: metrics registry and tracing spans.

    The paper's evaluation (§5) explains *why* a storage scheme wins
    through internal effects — pages touched, bitmap words scanned,
    delta bytes written — not just end-to-end latency.  This module is
    the registry those effects are recorded in: named monotonic
    counters, gauges, fixed-bucket latency histograms with quantile
    estimation, and lightweight nested tracing spans dumpable in Chrome
    trace format.

    Metric names follow the [layer.operation.unit] convention
    (e.g. ["buffer_pool.misses"], ["engine.scan.pages"],
    ["wal.bytes"]).  Handles are interned: [counter name] returns the
    same handle for the same name process-wide, so an instrumented
    module and a reader share a counter by agreeing on its name.

    Instrumentation is allocation-light — a counter increment is a
    branch and an integer store — and can be switched off at runtime
    with {!set_enabled} (also via the [DECIBEL_OBS=0] environment
    variable), leaving only the branch on the hot path.

    The registry is process-wide and domain-safe: counter increments
    are atomic (they are hit from parallel scan workers), while
    interning, gauges, histogram observations, the event ring and the
    span buffer are serialized by a single registry mutex.  Mutators
    may therefore be called from any domain; plain readers
    ({!gauge_value}, {!summarize}, ...) are unsynchronized and meant
    for report/export time, when writers are quiescent. *)

(** {1 Runtime switch} *)

val set_enabled : bool -> unit
(** Turn all recording on or off.  Defaults to on, unless the
    [DECIBEL_OBS] environment variable is ["0"] or ["false"].  While
    off, increments, observations and spans are skipped (handles can
    still be created and read). *)

val enabled : unit -> bool

(** {1 Counters}

    Named monotonic integer counters. *)

type counter

val counter : string -> counter
(** Find-or-create the counter with this name. *)

val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int

val value_of : string -> int
(** Current value of a named counter; [0] if it was never created. *)

(** {1 Gauges}

    Named instantaneous values (set, not accumulated). *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms}

    Fixed-bucket histograms; the default buckets are exponential
    latency buckets from 1 µs to ~32 s, so observations are expected
    in seconds.  Quantiles are estimated as the upper bound of the
    bucket where the cumulative count crosses the rank, clamped to the
    observed min/max. *)

type histogram

val histogram : ?buckets:float array -> string -> histogram
(** Find-or-create.  [buckets] (ascending upper bounds) is honoured on
    creation.  Looking up an interned name with an explicit [buckets]
    that differs from the interned layout raises [Invalid_argument]
    rather than silently returning the old histogram; omitting
    [buckets] always succeeds. *)

val observe : histogram -> float -> unit

type hist_summary = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}

val summarize : histogram -> hist_summary
(** Total: an empty histogram summarizes to all-zero fields (no [nan]
    or infinities), including immediately after {!reset}. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]; [0.] when the histogram is
    empty. *)

(** {2 Raw accessors} *)

val hist_buckets : histogram -> float array
(** Ascending upper bounds (a copy). *)

val hist_exemplars : histogram -> string array
(** Per-bucket exemplar trace ids (length [buckets + 1]: one per
    upper bound plus the overflow bucket; [""] = no traced request has
    landed in that bucket).  An observation made while a {!Prof} trace is ambient
    stamps its bucket with the trace id, so tail buckets link to a
    concrete recent request. *)

val exemplar_near : histogram -> float -> string option
(** [exemplar_near h q]: trace id of a sample request at quantile [q]
    — the exemplar of the quantile's bucket, falling back to the
    nearest populated bucket below it, then above.  [None] when the
    histogram is empty or no traced request has been observed. *)

(** {1 Structured event log}

    Leveled, component-tagged events with string attributes, held in a
    bounded in-memory ring (oldest overwritten on overflow, counted in
    ["obs.events_dropped"]) and optionally appended as JSONL to a file
    sink.  Emission respects the {!set_enabled} switch. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

type event = {
  ev_seq : int;  (** monotonic per-process emission index *)
  ev_time : float;  (** unix epoch seconds *)
  ev_level : level;
  ev_comp : string;  (** component tag, e.g. ["engine"], ["slow_op"] *)
  ev_msg : string;
  ev_attrs : (string * string) list;
}

val event :
  ?attrs:(string * string) list -> ?level:level -> comp:string -> string -> unit
(** Emit an event (default level [Info]).  Dropped entirely while
    recording is disabled or below the minimum level. *)

val events : unit -> event list
(** Ring contents, oldest first. *)

val events_emitted : unit -> int
(** Total events emitted since start (or {!reset}), including ones the
    ring has since dropped. *)

val event_json : event -> string
(** One event as a single-line JSON object. *)

val events_json : unit -> string
(** The ring as JSONL (one {!event_json} line per event). *)

val set_event_capacity : int -> unit
(** Resize the ring (clears it).  Raises [Invalid_argument] on a
    capacity < 1. *)

val set_min_event_level : level -> unit
(** Drop events below this level (default [Debug], i.e. keep all). *)

val set_event_sink : ?max_bytes:int -> ?keep:int -> string option -> unit
(** [Some path] appends each subsequent event to [path] as JSONL
    (flushed per line); [None] closes any open sink.

    The sink is size-bounded: when appending a line would push the file
    past [max_bytes] (default 8 MiB; [0] = unbounded) it is rotated —
    [path] becomes [path.1], [path.1] becomes [path.2], ... keeping at
    most [keep] rotated files (default 3; [0] truncates in place) —
    and a fresh [path] is opened.  Rotations are counted in
    ["obs.event_log_rotations"].  Re-opening an existing file resumes
    its byte budget from the on-disk size. *)

(** {1 Slow-operation log}

    When a {!with_span} duration reaches the threshold configured for
    its name (or the default threshold), a [Warn] event with component
    ["slow_op"] is emitted carrying the span's attrs plus
    [duration_ms] / [threshold_ms], and ["obs.slow_ops"] is
    incremented.  No threshold is set by default; [DECIBEL_SLOW_MS]
    (milliseconds) seeds the default threshold at startup. *)

val set_slow_threshold : string -> float -> unit
(** Per-span-name threshold in seconds ([0.] fires on every span). *)

val clear_slow_threshold : string -> unit

val set_slow_default : float option -> unit
(** Threshold for spans with no per-name entry; [None] disables. *)

val slow_threshold : string -> float option
(** Effective threshold for a span name. *)

(** {1 Tracing spans}

    [with_span name f] times [f] and records a completed span; spans
    nest naturally (caller's span is still open while the callee's
    runs).  Each span also feeds the histogram named [name], so span
    timings appear in snapshots with quantiles.  The trace buffer is
    bounded; overflow is counted in ["obs.spans_dropped"].  A span
    whose duration reaches its slow threshold also emits a slow-op
    event (see above). *)

type span = {
  sp_name : string;
  sp_start : float;  (** seconds since process start *)
  sp_dur : float;  (** seconds *)
  sp_attrs : (string * string) list;
}

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

val spans : unit -> span list
(** Completed spans, in completion order. *)

val span_count : unit -> int

val set_max_spans : int -> unit
(** Cap on buffered spans (default 200_000); beyond it spans are
    dropped and counted.  Raises [Invalid_argument] when negative. *)

val span_json : span -> string
(** One span as a single-line Chrome-trace-format ["ph":"X"] event. *)

val output_trace : out_channel -> unit
(** Stream the recorded spans to [oc], one {!span_json} line per span.
    Spans are snapshotted up-front; the channel write happens outside
    the registry lock and never materializes the whole trace as one
    string (which matters at the 200k-span cap). *)

val dump_trace : unit -> string
(** The recorded spans as Chrome-trace-format JSON lines (one complete
    ["ph":"X"] event per line; load with [chrome://tracing] or
    Perfetto after wrapping in a JSON array).  Prefer {!output_trace}
    for large traces. *)

val write_trace : path:string -> unit
(** {!output_trace} to a file (streamed, closed on error). *)

(** {1 Request profiler}

    Request-scoped cost attribution and EXPLAIN ANALYZE-style operator
    trees.  {!Prof.profiled} allocates a {e trace} — a process-unique
    id plus a bag of atomic cost counters — and installs it ambiently
    (per-domain) for the extent of the request, so every {!charge}
    (buffer pool, WAL, codec, engines, the database's operation
    boundary) and every {!with_span} attributes to the active request.
    [Par] re-installs the submitting domain's trace around worker
    tasks, so a 4-domain parallel scan's costs land in the one
    requesting trace.

    Traces nest: {!Prof.metered} runs one operation under a child of
    the ambient trace, and a charge reaches the child and every
    enclosing trace, so the operation's own bag is exactly its cost
    (the per-branch workload row is fed from it) while the request's
    bag still sees everything.

    Each {!with_span} inside the profiled extent (on the requesting
    domain) becomes a node of the operator tree; a node's counters are
    the bag delta between span entry and exit — cumulative, children
    included, exactly like EXPLAIN ANALYZE.  Completed profiles are
    kept in a bounded ring ({!recent_profiles}). *)

module Prof : sig
  (** Cost kinds, chosen to explain the paper's scheme tradeoffs (§5):
      tuples touched vs. emitted, page traffic, bitmap words
      (tuple-first/hybrid), delta fragments replayed (version-first
      and hybrid), WAL and decode volume.  Each kind means the same on
      every scheme; the definitions below are what the engines
      charge. *)
  type kind =
    | Tuples_scanned
        (** Live tuples of every branch head or committed version the
            operation reads, counted before predicates and before
            cross-branch de-duplication: a scan charges the branch's
            live count, a [multi_scan] or [diff] the sum over its
            branches.  Superseded or dead rows an engine walks past
            show up in page and decode costs, not here. *)
    | Tuples_emitted
        (** Rows handed to the caller (for [multi_scan], annotated
            records; for [diff], both sides).  Charged once, by the
            database's operation boundary — never by an engine. *)
    | Pages_hit  (** Buffer-pool lookups that found the page resident. *)
    | Pages_missed  (** Buffer-pool lookups that had to load the page. *)
    | Bitmap_words
        (** 64-bit words of whole branch-bitmap columns a tuple-first
            or hybrid read uses as a selection or XORs (per-row
            membership probes do not count). *)
    | Delta_fragments
        (** Segment extents a read replays to resolve a branch or
            version: each [(segment, upto)] pair of a version-first
            lineage plan, each segment a hybrid branch is live in.
            Tuple-first keeps one shared heap and charges none.
            Summed over the branches a multi-branch read resolves. *)
    | Wal_bytes  (** Bytes appended to the write-ahead log, framing included. *)
    | Bytes_decoded
        (** Bytes materialized into the buffer pool plus column-block
            payload bytes run through the segment codec. *)

  val all_kinds : kind list
  val kind_name : kind -> string

  val counter_name : kind -> string
  (** Name of the kind's one process-wide counter, bumped by every
      {!charge}: ["engine.tuples_scanned"], ["engine.tuples_emitted"],
      ["buffer_pool.hits"], ["buffer_pool.misses"],
      ["engine.bitmap_words"], ["engine.delta_fragments"],
      ["wal.bytes"], ["storage.bytes_decoded"]. *)

  type costs = int array
  (** Per-kind totals, indexed like {!all_kinds}. *)

  val cost : costs -> kind -> int

  type trace
  (** A request identity: trace id + atomic counter bag.  Shareable
      across domains. *)

  val make_trace : unit -> trace
  val trace_id : trace -> string

  val current_trace : unit -> trace option
  (** The trace ambient on the calling domain, if any. *)

  val with_attribution : trace -> (unit -> 'a) -> 'a
  (** Run [f] with [trace] installed as this domain's ambient trace
      (restored afterwards).  Used by [Par] to propagate the submitting
      domain's trace into pool worker tasks; usable directly by any
      code that moves work across domains. *)

  val metered : (unit -> 'a) -> 'a * costs
  (** Run [f] (one operation) under a child of the ambient trace — a
      fresh bag when none is ambient — and return its result with the
      child bag: exactly the charges made inside [f], on any domain
      that inherited the trace.  Every enclosing trace is charged as
      well.  Exceptions propagate; the bag is then dropped. *)

  val set_rows : int -> unit
  (** Annotate the innermost open operator node with its logical row
      count (e.g. rows returned post-predicate).  Unset nodes fall
      back to their [Tuples_emitted] delta. *)

  type node = {
    n_name : string;
    mutable n_rows : int;
    mutable n_dur : float;  (** seconds *)
    n_counters : costs;  (** cumulative — children included *)
    mutable n_children : node list;
  }

  type profile = {
    p_trace_id : string;
    p_label : string;
    p_dur : float;  (** seconds *)
    p_root : node;
    p_aborted : string option;
        (** exception text when the request aborted (deadline, cancel,
            ...) and a partial profile was flushed *)
  }

  val profiled : ?label:string -> (unit -> 'a) -> 'a * profile
  (** Run [f] under a fresh trace and operator-tree builder and return
      its result with the completed profile.  If [f] raises, a partial
      profile is still flushed to the ring (with [p_aborted] set) and
      the exception is re-raised with its backtrace.  Profiles are
      counted in ["prof.profiles"] / ["prof.aborted"]. *)

  val total : profile -> kind -> int
  (** Whole-request total for one counter kind (the root's delta). *)

  val last_profile : unit -> profile option

  val recent_profiles : unit -> profile list
  (** Ring contents, oldest first (capacity 16 by default). *)

  val set_profile_capacity : int -> unit
  (** Resize the profile ring (clears it); raises [Invalid_argument]
      when < 1. *)

  val render : profile -> string
  (** Human-readable profile tree, one operator per line:
      [-> name  rows=N  time=T  [kind=v ...]] (zero counters elided). *)

  val profile_json : profile -> string
  val profiles_json : unit -> string
  (** The ring as one JSON array of {!profile_json} objects. *)
end

val charge : Prof.kind -> int -> unit
(** [charge kind n]: the one way to report a {!Prof.kind} cost.  Adds
    [n] to the kind's counter ({!Prof.counter_name}) and to the ambient
    trace bag and every bag enclosing it, so the global, per-request
    and per-operation views count the same event once each.  A no-op
    while recording is disabled.  Call per operation or per batch,
    never per tuple. *)

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}
(** All lists are sorted by name for deterministic output. *)

val snapshot : unit -> snapshot

val counters_diff : snapshot -> snapshot -> (string * int) list
(** [counters_diff before after]: per-counter deltas (counters absent
    in [before] count from 0); includes zero deltas so a consumer sees
    every registered counter. *)

val to_json : snapshot -> string
(** The snapshot as one JSON object:
    [{"counters": {...}, "gauges": {...}, "histograms": {...}}]. *)

val json_escape : string -> string
(** JSON string-body escaping (exposed for other JSON emitters). *)

val json_float : float -> string
(** Finite floats as ["%.9g"]; non-finite values render as ["0"]
    (exposed for other JSON emitters). *)

val reset : unit -> unit
(** Zero every counter, gauge and histogram (including exemplars) and
    clear the trace buffer, event ring and profile ring.  Handles,
    slow thresholds and the event sink remain valid. *)
