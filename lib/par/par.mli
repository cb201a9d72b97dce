(** Fixed pool of [Domain.spawn] workers for data-parallel scans.

    The pool is process-global and lazily spawned on first use.  Its
    size comes from the [DECIBEL_DOMAINS] environment variable,
    defaulting to [Domain.recommended_domain_count () - 1]; a size of
    0 disables the pool entirely and every combinator below runs
    serially in the calling domain.  Callers therefore never need a
    separate serial code path: with the pool off, the combinators
    degrade to plain loops with no domain, mutex, or buffer overhead
    beyond a closure call.

    Determinism contract: [parallel_fold] merges per-chunk
    accumulators in ascending chunk order and [parallel_iter_buffered]
    invokes [consume] for indices [0 .. n-1] in order, buffering
    out-of-order completions.  Both therefore produce results
    byte-identical to a serial left-to-right traversal, regardless of
    pool size or scheduling.

    Nesting: combinators called from inside a pool worker run serially
    in that worker (no nested fan-out), so library code may
    parallelize without worrying about being called from an already
    parallel region.

    Exceptions raised by worker tasks are caught, the batch is drained
    to completion, and the first exception observed is re-raised in
    the calling domain.

    Cancellation: every combinator takes an optional
    [?ctx:Decibel_governor.Ctx.t].  Serial paths poll it on a stride;
    parallel paths check it at the start of every chunk (and install
    it as the worker's ambient context for the chunk's duration, so
    buffer-pool budget charging sees it).  A cancelled or expired
    context makes the batch drain cheaply — every not-yet-started
    chunk fails its initial check — and the first
    [Cancelled]/[Deadline_exceeded] is re-raised in the caller. *)

val domain_count : unit -> int
(** Number of pool workers currently configured.  0 means the pool is
    disabled and all combinators run serially. *)

val set_domain_count : int -> unit
(** Reconfigure the pool size at runtime (tears down existing workers
    and respawns).  Intended for tests and benchmarks that sweep
    domain counts; negative values are clamped to 0.  Must not be
    called while parallel work is in flight. *)

val in_worker : unit -> bool
(** [true] when called from inside a pool worker domain. *)

val available : unit -> bool
(** [true] when parallel execution would actually fan out: the pool
    has at least one worker and the caller is not itself a worker. *)

val chunk_ranges : ?chunk:int -> int -> (int * int) array
(** [chunk_ranges n] splits [0 .. n-1] into contiguous [(lo, hi)]
    half-open ranges sized for the current pool (a few chunks per
    worker, with a floor so tiny inputs are not oversplit).  [?chunk]
    forces an explicit chunk size. *)

val parallel_for :
  ?ctx:Decibel_governor.Governor.Ctx.t -> ?chunk:int -> int -> (int -> unit) ->
  unit
(** [parallel_for n f] runs [f i] for every [i] in [0 .. n-1].
    Iteration order across chunks is unspecified; [f] must be safe to
    call from multiple domains.  With the pool disabled this is a
    plain ascending loop. *)

val parallel_fold :
  ?ctx:Decibel_governor.Governor.Ctx.t ->
  ?chunk:int ->
  n:int ->
  init:(unit -> 'acc) ->
  body:('acc -> int -> 'acc) ->
  merge:('res -> 'acc -> 'res) ->
  'res ->
  'res
(** [parallel_fold ~n ~init ~body ~merge z] folds [body] over each
    chunk of [0 .. n-1] (indices in ascending order within a chunk,
    starting from a fresh [init ()] accumulator), then merges the
    chunk accumulators into [z] in ascending chunk order.  Equivalent
    to a serial fold whenever [merge]/[body] satisfy the usual
    homomorphism property; deterministic regardless. *)

val parallel_iter_buffered :
  ?ctx:Decibel_governor.Governor.Ctx.t ->
  n:int ->
  produce:(int -> 'b) ->
  consume:('b -> unit) ->
  unit ->
  unit
(** [parallel_iter_buffered ~n ~produce ~consume ()] evaluates
    [produce i] for [i] in [0 .. n-1] on the pool, buffers the
    results, and calls [consume (produce i)] in ascending index order
    from the calling domain.  [produce] must be domain-safe;
    [consume] runs only in the caller.  With the pool disabled,
    [produce]/[consume] alternate serially with no buffering.  (The
    trailing [unit] exists so [?ctx] is erasable.) *)


val shutdown : unit -> unit
(** Join all pool workers.  Called automatically [at_exit]; safe to
    call repeatedly. *)
