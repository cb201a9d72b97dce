(** Page cache shared by heap files.

    Decibel stores pages "in a fairly conventional buffer pool
    architecture" (paper §2.1; 4 MB pages on their testbed).  This pool
    caches fixed-size pages keyed by (file id, page number) with clock
    (second-chance) eviction.  Files perform their own I/O and consult
    the pool; only complete pages are cached, so a file's growing tail
    page is always re-read and never stale.

    The pool counts hits/misses/evictions for benchmark reporting, and
    {!drop_all} simulates a cold cache between measurements (the paper
    flushes disk caches before each operation, §5).

    The pool is domain-safe: it is split into key-hashed shards, each
    with its own mutex, hashtable and clock hand, so concurrent page
    fetches from parallel scan workers contend only when they hash to
    the same shard.  Eviction is clock within each shard; the shards
    partition the page budget. *)

type t

val create :
  ?page_size:int -> ?capacity_pages:int -> ?shards:int -> unit -> t
(** [page_size] in bytes (default 65536); [capacity_pages] bounds
    residency (default 1024, i.e. 64 MiB at the default page size);
    [shards] is the lock-striping factor (default 8, clamped to
    [capacity_pages] so every shard owns at least one page). *)

val page_size : t -> int

val capacity_pages : t -> int
(** Residency bound this pool was created with. *)

val resident_pages : t -> int
(** Pages currently cached ([<= capacity_pages]). *)

val next_file_id : t -> int
(** Fresh identifier for a file joining the pool. *)

val find : t -> file:int -> page:int -> bytes option
(** Cached page contents, if resident. Marks the page recently-used. *)

val add : t -> file:int -> page:int -> bytes -> unit
(** Insert a (complete) page, evicting if at capacity. *)

val invalidate_file : t -> int -> unit
(** Drop every cached page of one file (file truncated or deleted). *)

val invalidate_page : t -> file:int -> page:int -> unit
(** Drop one cached page (its durable contents grew). *)

val invalidate_from : t -> file:int -> page:int -> unit
(** Drop every cached page of one file with page number [>= page]
    (the file was truncated: the page containing the cut and all later
    pages are stale, while earlier pages stay warm). *)

val drop_all : t -> unit
(** Empty the cache; statistics are retained. *)

val note_write_back : t -> unit
(** Record that a file flushed buffered data to disk (called by
    {!Heap_file.flush}); counted in {!stats} and on the
    ["buffer_pool.write_backs"] registry counter. *)

type stats = { hits : int; misses : int; evictions : int; write_backs : int }

val stats : t -> stats
(** This pool's instance statistics.  Every pool also mirrors its
    counts onto the process-wide {!Decibel_obs.Obs} registry under
    ["buffer_pool.hits"], ["buffer_pool.misses"],
    ["buffer_pool.evictions"], ["buffer_pool.reads"],
    ["buffer_pool.writes"] and ["buffer_pool.write_backs"]. *)

val reset_stats : t -> unit
(** Zero this pool's instance statistics.  The registry counters are
    monotonic and shared across pools; clear them with
    {!Decibel_obs.Obs.reset}. *)
