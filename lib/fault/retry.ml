(* Bounded retry for flush/sync paths.

   Real storage stacks see transient failures (EINTR, EAGAIN, NFS
   hiccups); Decibel's policy is to retry those a bounded number of
   times and only then let the error escape.  Injected
   [Failpoint.Fault_transient] faults take the same path, which is how
   the test suite proves the retry loop actually runs.

   Retries can back off exponentially with *full jitter*: before the
   k-th retry we sleep uniform(0, min(max_delay, base * 2^(k-1))).
   Fixed delays synchronize contending clients — every loser of a
   round retries in lockstep and collides again; sampling the whole
   interval spreads them out.  The default base delay is 0, which
   skips sleeping entirely and is exactly the old behaviour. *)

module Obs = Decibel_obs.Obs
module Prng = Decibel_util.Prng

let c_retries = Obs.counter "fault.retries"

let is_transient = function
  | Failpoint.Fault_transient _ -> true
  | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> true
  | _ -> false

(* Jitter draws must not perturb the benchmark's deterministically
   seeded operation streams, so the backoff generator is its own
   per-domain instance rather than anything shared. *)
let jitter_key =
  Domain.DLS.new_key (fun () -> Prng.create 0x6a09e667f3bcc908L)

let backoff_ms ~base_delay_ms ~max_delay_ms ~attempt =
  if base_delay_ms <= 0 then 0
  else begin
    (* cap the doubling before shifting so huge attempt counts can't
       overflow; the ceiling is max_delay_ms anyway *)
    let doublings = min (attempt - 1) 20 in
    let ceiling = min max_delay_ms (base_delay_ms lsl doublings) in
    if ceiling <= 0 then 0
    else Prng.int (Domain.DLS.get jitter_key) (ceiling + 1)
  end

let with_retries ?(attempts = 3) ?(base_delay_ms = 0) ?(max_delay_ms = 1000)
    f =
  if attempts < 1 then invalid_arg "Retry.with_retries: attempts < 1";
  let rec go n =
    try f ()
    with e when is_transient e && n < attempts ->
      Obs.incr c_retries;
      let sleep_ms = backoff_ms ~base_delay_ms ~max_delay_ms ~attempt:n in
      if sleep_ms > 0 then Unix.sleepf (float_of_int sleep_ms /. 1000.);
      go (n + 1)
  in
  go 1
