(** Deterministic failpoint registry — the fault-injection seam.

    Storage code announces each fault-prone step by name: [hit
    "wal.sync"] for control sites, [guard_write "heap.flush" payload
    write] for sites that persist bytes.  Unarmed sites only count
    themselves in a census (so harnesses can enumerate crash sites);
    armed sites raise {!Fault_injected} (fatal — the crash-torture
    harness treats it as the process dying), raise {!Fault_transient}
    (retryable, absorbed by {!Retry.with_retries}), or tear the write:
    persist a strict prefix of the payload and then die, the torn
    state a real power cut leaves.

    Arming is deterministic.  [After_hits n] fires on the n-th hit
    after arming; [Probability p] consults a {!Decibel_util.Prng}
    seeded via {!set_seed} (or the [DECIBEL_SEED] environment
    variable), so probabilistic runs replay exactly.  The
    [DECIBEL_FAILPOINTS] environment variable arms sites at program
    start: [wal.append=3] (raise on 3rd hit), [heap.flush=p0.1]
    (raise with probability 0.1), [manifest.write_tmp=t2] (torn write
    on 2nd hit), [wal.sync=always].

    Injected faults increment the ["fault.injected"] /
    ["fault.transient"] registry counters. *)

exception Fault_injected of string
(** A fatal injected fault; carries the site name. *)

exception Fault_transient of string
(** A retryable injected fault; carries the site name. *)

type trigger = Always | After_hits of int | Probability of float

type action =
  | Raise
  | Transient
  | Torn of float
      (** Persist [frac] of the payload (always at least one byte
          short), then raise fatally.  [Raise] at control sites. *)

val arm : ?action:action -> string -> trigger -> unit
(** Arm a site (default action [Raise]); re-arming resets its
    hit count.  Raises [Invalid_argument] on a non-positive
    [After_hits] or a probability outside [0,1]. *)

val disarm : string -> unit
val disarm_all : unit -> unit
val armed : string -> bool

val hit : string -> unit
(** Announce a control site: counts the hit and fires if armed and
    due. *)

val guard_write : string -> string -> (string -> unit) -> unit
(** [guard_write site payload write] announces a write site.  Unarmed
    or not due: calls [write payload].  [Raise]/[Transient]: raises
    without writing.  [Torn f]: calls [write] with a strict prefix of
    [payload], then raises {!Fault_injected}. *)

(** {1 Site census} *)

val sites : unit -> (string * int) list
(** Every site name ever hit with its process-wide hit count, sorted.
    Harnesses use this to enumerate crash sites. *)

val hits : string -> int
val reset_census : unit -> unit

(** {1 Determinism} *)

val set_seed : int64 -> unit
(** Seed the PRNG behind [Probability] triggers. *)

val arm_from_spec : string -> unit
(** Arm from a [DECIBEL_FAILPOINTS]-syntax spec; raises
    [Invalid_argument] or [Failure] on a malformed spec. *)
