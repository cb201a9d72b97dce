(** Branch-granularity two-phase locking.

    Concurrent transactions by multiple users on the same version are
    isolated through two-phase locking, and concurrent commits to a
    branch are prevented the same way (paper §2.2.3).  Resources are
    named by strings (branch names here); sessions acquire shared or
    exclusive locks and release everything at transaction end.

    Deadlocks are broken by a wait timeout: an acquisition that cannot
    proceed within the timeout raises {!Deadlock}, and the caller is
    expected to abort and release. *)

type t

type mode = Shared | Exclusive

exception Deadlock of string
(** Argument is the contested resource. *)

val create : ?timeout_s:float -> unit -> t
(** [timeout_s] bounds lock waits (default 5 s). *)

val acquire :
  t -> ?deadline:float -> owner:int -> resource:string -> mode -> unit
(** Blocks until granted.  Re-acquisition by the same owner is a no-op;
    a shared holder requesting exclusive upgrades when it is the sole
    holder.

    [deadline] is an absolute [Unix.gettimeofday] instant; a wait that
    passes it is abandoned with
    {!Decibel_governor.Governor.Deadline_exceeded}, as is a wait whose ambient governor context ({!
    Decibel_governor.Governor.Ctx.current}) expires or is cancelled.
    The manager's own [timeout_s] still raises {!Deadlock}. *)

val release_all : t -> owner:int -> unit
(** Drop every lock the owner holds (commit or abort). *)

val holders : t -> resource:string -> (int * mode) list
(** Current lock table entry, for tests and introspection. *)
