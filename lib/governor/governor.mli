(** Resource governor: cooperative cancellation and circuit breakers
    for long-running operations.

    Decibel's heavy queries (multi-branch scans, diffs, merges — paper
    §4–5) can hold the buffer pool and the domain pool for hundreds of
    milliseconds.  This module provides two defenses:

    - {!Ctx}: a per-operation cancellation context (deadline, manual
      cancel, byte budget) that operations poll at chunk boundaries.
      Cancellation is {e cooperative}: nothing is interrupted
      mid-mutation, an operation only stops at a poll point, and poll
      points are placed exclusively on read paths.
    - {!Breaker}: a per-resource circuit breaker that trips after N
      consecutive internal failures and half-opens after a cool-down,
      so a corrupted or persistently failing branch fails fast instead
      of being re-read on every request.

    All state is domain-safe; contexts may be polled from pool workers
    while the submitting thread blocks. *)

exception Cancelled
(** The context's cancel flag was set. *)

exception Deadline_exceeded
(** The context's deadline passed before the operation finished. *)

exception Budget_exceeded of { charged : int; budget : int }
(** The operation's transient allocations exceeded its byte budget. *)

(** {1 Cancellation contexts} *)

module Ctx : sig
  type t

  val create :
    ?deadline_ms:int ->
    ?budget_bytes:int ->
    ?trace:Decibel_obs.Obs.Prof.trace ->
    unit ->
    t
  (** [deadline_ms] is relative to now; [budget_bytes] bounds the
      transient bytes ({!charge}) the operation may accumulate.  Both
      default to unlimited.  [trace] attaches a request-profiling
      identity: {!with_current} then also installs it as the ambient
      {!Decibel_obs.Obs.Prof} trace for the context's extent, so cost
      counters attribute to the request that created the context. *)

  val cancel : t -> unit
  (** Set the manual cancel flag (safe from any thread or domain);
      takes effect at the operation's next poll point. *)

  val cancelled : t -> bool

  val deadline : t -> float option
  (** Absolute deadline ([Unix.gettimeofday] base), if any. *)

  val trace : t -> Decibel_obs.Obs.Prof.trace option
  (** The profiling trace attached at {!create}, if any. *)

  val remaining_ms : t -> int option
  (** Milliseconds until the deadline; negative once overdue. *)

  val check : t -> unit
  (** The poll point: raises {!Cancelled}, {!Deadline_exceeded} or
      {!Budget_exceeded} (in that precedence) if the context has been
      invalidated.  Cheap enough for chunk-boundary polling. *)

  val poller : ?stride:int -> t option -> unit -> unit
  (** [poller ctx] is a closure for tight serial loops: every [stride]
      calls (default 256, rounded to a power of two) it runs {!check}.
      [poller None] is a no-op closure. *)

  val charge : t -> int -> unit
  (** Account [n] transient bytes (page loads, scratch buffers) to the
      operation.  Never raises — budget violations surface at the next
      {!check}, which keeps charge sites (buffer-pool page loads,
      decode buffers) free of control flow. *)

  val uncharge : t -> int -> unit
  (** Return bytes charged with {!charge} (e.g. a scratch buffer freed
      mid-operation). *)

  val charged_bytes : t -> int

  val release : t -> unit
  (** Drop every outstanding charge of this context from the global
      pinned-bytes gauge.  Idempotent; called by the owner (the
      database facade) when the operation ends, normally or not. *)

  (** {2 Ambient context}

      The context travels implicitly (per-thread) so that layers
      without a [?ctx] parameter — the buffer pool charging page
      loads, the lock manager honoring deadlines — can see it. *)

  val current : unit -> t option
  val with_current : t option -> (unit -> 'a) -> 'a
  (** Install the context for the dynamic extent of the callback on
      the calling thread (saved/restored exception-safely).  If the
      context carries a {!create}-time [trace], it is also installed
      as the ambient profiling trace; a traceless context (or [None])
      leaves any already-ambient trace in place. *)

  val charge_current : int -> unit
  (** [charge] against the ambient context, if any. *)

  val pinned_bytes : unit -> int
  (** Sum of outstanding charges across all live contexts (mirrored on
      the ["governor.pinned_bytes"] gauge). *)
end

(** {1 Circuit breaker} *)

module Breaker : sig
  type t

  type state = Closed | Open | Half_open

  exception Tripped of string
  (** Raised by {!check} while the breaker is open; carries the
      resource name. *)

  val create : ?threshold:int -> ?cooldown_s:float -> name:string -> unit -> t
  (** Trips after [threshold] {e consecutive} failures (default 5);
      stays open for [cooldown_s] (default 30.), then half-opens to
      admit one trial operation. *)

  val check : t -> unit
  (** Raises {!Tripped} when open (and the cool-down has not elapsed);
      transitions open → half-open once it has. *)

  val success : t -> unit
  (** Clears the failure streak; closes a half-open breaker. *)

  val failure : t -> unit
  (** Extends the failure streak; trips a closed breaker past the
      threshold and re-opens a half-open one immediately. *)

  val state : t -> state
  val name : t -> string
  val consecutive_failures : t -> int
  val state_name : state -> string
end

(** {1 Outcome accounting}

    The facade reports how governed operations ended so the registry
    counters stay truthful even for exceptions raised deep inside an
    engine. *)

val note_outcome : exn -> unit
(** Bump ["governor.cancelled"] / ["governor.deadline_exceeded"] /
    ["governor.budget_exceeded"] when [e] is the corresponding governor
    exception; other exceptions are ignored. *)
