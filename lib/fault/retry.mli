(** Bounded retry-on-transient-failure for flush/sync paths. *)

val with_retries :
  ?attempts:int ->
  ?base_delay_ms:int ->
  ?max_delay_ms:int ->
  (unit -> 'a) ->
  'a
(** Run [f], retrying up to [attempts] total tries (default 3) while
    it raises a transient failure ([EINTR]/[EAGAIN] or an injected
    {!Failpoint.Fault_transient}); the final failure escapes.  Each
    retry increments ["fault.retries"].

    Before the k-th retry, sleep a {e full-jitter} backoff: uniform in
    [\[0, min (max_delay_ms, base_delay_ms * 2^(k-1))\]] milliseconds,
    drawn from a per-domain deterministic generator.  The default
    [base_delay_ms = 0] never sleeps (the historical behaviour);
    [max_delay_ms] caps the exponential growth (default 1000). *)

val backoff_ms : base_delay_ms:int -> max_delay_ms:int -> attempt:int -> int
(** The jittered sleep for the given retry (exposed for tests); 0 when
    [base_delay_ms <= 0]. *)
