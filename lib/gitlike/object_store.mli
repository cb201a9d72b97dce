(** Content-addressed object store with delta-encoded packfiles.

    A from-scratch stand-in for git's storage layer, reproducing the
    cost structure the paper's §5.7 comparison exercises rather than
    git's exact wire formats:

    - every stored object is hashed over its full contents (MD5 here,
      SHA-1 in git — same per-byte cost class) and written as a
      compressed loose file, so commit cost grows with data size;
    - [repack] exhaustively searches a window of similar objects for
      the best binary delta, producing one packfile — slow, as the
      paper observes ("git exhaustively compares objects to find the
      best delta encoding");
    - reading a packed object replays its delta chain, so checkout
      cost grows with chain depth.

    Object ids are hex strings.  Not thread-safe. *)

type t

type oid = string

val create : dir:string -> t
(** Initialize an empty store under [dir] (created if needed). *)

val put : t -> string -> oid
(** Store a blob; returns its content address.  Idempotent — an object
    already present (loose or packed) is not rewritten. *)

val get : t -> oid -> string
(** Raises [Not_found] for unknown ids. *)

val mem : t -> oid -> bool

val object_count : t -> int

val repack : t -> unit
(** Compact all loose objects into a packfile, delta-encoding against
    a search window of similar objects (git's [git repack -a -d]). *)

val repo_bytes : t -> int
(** Bytes on disk: loose objects plus packfiles plus indexes. *)

val loose_count : t -> int

