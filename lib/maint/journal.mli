(** Crash-safe maintenance intent log ([maint.jsonl]).

    Every maintenance task appends a [Begin] entry before touching any
    file, an [Apply] entry once the rewritten state has been committed
    by the engine manifest, and a terminal [Done] (old files reclaimed)
    or [Rolled_back] (task abandoned, new files removed).  Entries are
    single JSON lines, appended and fsynced through the
    ["maint.journal.append"] failpoint so torture can tear them; the
    loader tolerates a torn final line by dropping it.

    Recovery groups entries by task id: a task whose last entry is
    [Begin] crashed before the manifest commit and must be rolled back;
    a task whose last entry is [Apply] crashed after commit and only
    needs its old files reclaimed.  Terminal entries need no action. *)

type status = Begin | Apply | Done | Rolled_back

type entry = {
  e_id : int;  (** task id, unique within one journal *)
  e_status : status;
  e_kind : string;  (** "compact" | "materialize" | "gc" *)
  e_target : string;  (** branch name or segment file the task rewrote *)
  e_new : string list;  (** basenames of files the task created *)
  e_old : string list;  (** basenames of files the task replaces *)
}

val path : string -> string
(** [path dir] is the journal file for repository [dir]. *)

val load : string -> entry list
(** Parse the journal at [dir], oldest first.  A torn or garbled final
    line is dropped; a missing file is an empty journal.  Never
    raises on bad content. *)

val append : string -> entry -> unit
(** Append one entry to the journal at [dir] and fsync.  Routed
    through the ["maint.journal.append"] failpoint, so the write may
    tear (strict prefix persisted) or raise under fault injection. *)

val next_id : entry list -> int
(** Smallest id strictly greater than every id in the list. *)

val tasks : entry list -> (int * entry list) list
(** Group entries by task id, ascending, entries in journal order. *)

val pending : entry list -> (int * entry list) list
(** Tasks whose latest entry is not terminal ([Done]/[Rolled_back]). *)

val truncate : string -> unit
(** Remove the journal file at [dir] if present (all tasks terminal). *)

