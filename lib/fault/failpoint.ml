(* Deterministic failpoint registry.

   Every I/O seam in the storage stack announces itself here by name
   ([hit] for control sites, [guard_write] for sites that persist a
   byte payload).  In production nothing is armed and a site costs one
   hashtable probe; under test a site can be armed to raise a fatal
   [Fault_injected] (the crash-torture harness treats this as the
   process dying), a retryable [Fault_transient], or to tear the write
   — persist only a prefix of the payload, then die — which is exactly
   the state a power cut leaves behind.

   Triggers are deterministic: [After_hits n] fires on the n-th hit
   after arming, [Always] on every hit, and [Probability p] consults a
   {!Decibel_util.Prng} seeded explicitly (or from [DECIBEL_SEED]), so
   a failing torture run reproduces from its seed.  Sites also count
   their hits even when unarmed; the harness enumerates crash sites
   from that census instead of hard-coding the seam list. *)

module Obs = Decibel_obs.Obs

exception Fault_injected of string
exception Fault_transient of string

type trigger = Always | After_hits of int | Probability of float

type action =
  | Raise  (** fatal: simulate a crash at the site *)
  | Transient  (** retryable: simulate EINTR-class flakiness *)
  | Torn of float
      (** tear the write: persist the given fraction of the payload
          (rounded down, at least one byte short of full), then raise
          fatally.  At a control site this degenerates to [Raise]. *)

type armed = {
  a_trigger : trigger;
  a_action : action;
  mutable a_hits : int; (* hits since arming *)
}

let c_injected = Obs.counter "fault.injected"
let c_transient = Obs.counter "fault.transient"

(* site census: every name ever hit, process-wide *)
let census : (string, int ref) Hashtbl.t = Hashtbl.create 32
let armed_tbl : (string, armed) Hashtbl.t = Hashtbl.create 8

let default_seed = 0x5EED_CAFEL

let prng = ref (Decibel_util.Prng.create default_seed)

let set_seed s = prng := Decibel_util.Prng.create s

let arm ?(action = Raise) name trigger =
  (match trigger with
  | After_hits n when n <= 0 ->
      invalid_arg "Failpoint.arm: After_hits wants a positive count"
  | Probability p when not (p >= 0. && p <= 1.) ->
      invalid_arg "Failpoint.arm: Probability wants p in [0,1]"
  | _ -> ());
  Hashtbl.replace armed_tbl name
    { a_trigger = trigger; a_action = action; a_hits = 0 }

let disarm name = Hashtbl.remove armed_tbl name
let disarm_all () = Hashtbl.reset armed_tbl

let armed name = Hashtbl.mem armed_tbl name

let reset_census () = Hashtbl.reset census

let sites () =
  List.sort compare
    (Hashtbl.fold (fun name n acc -> (name, !n) :: acc) census [])

let hits name =
  match Hashtbl.find_opt census name with Some n -> !n | None -> 0

let note name =
  match Hashtbl.find_opt census name with
  | Some n -> incr n
  | None -> Hashtbl.replace census name (ref 1)

(* Decide whether an armed site fires on this hit. *)
let due a =
  a.a_hits <- a.a_hits + 1;
  match a.a_trigger with
  | Always -> true
  | After_hits n -> a.a_hits = n
  | Probability p -> Decibel_util.Prng.chance !prng p

let fire name = function
  | Raise | Torn _ ->
      Obs.incr c_injected;
      raise (Fault_injected name)
  | Transient ->
      Obs.incr c_transient;
      raise (Fault_transient name)

let hit name =
  note name;
  match Hashtbl.find_opt armed_tbl name with
  | None -> ()
  | Some a -> if due a then fire name a.a_action

let guard_write name payload write =
  note name;
  match Hashtbl.find_opt armed_tbl name with
  | None -> write payload
  | Some a ->
      if not (due a) then write payload
      else begin
        match a.a_action with
        | Raise -> fire name Raise
        | Transient -> fire name Transient
        | Torn frac ->
            (* persist a strict prefix, then die: torn-write simulation *)
            let n = String.length payload in
            let keep =
              min (max 0 (n - 1)) (int_of_float (frac *. float_of_int n))
            in
            if keep > 0 then write (String.sub payload 0 keep);
            Obs.incr c_injected;
            raise (Fault_injected (name ^ " (torn)"))
      end

(* ------------------------------------------------------------------ *)
(* Environment arming: DECIBEL_FAILPOINTS=wal.append=3,heap.flush=p0.1
   name=N      raise on the N-th hit
   name=tN     torn write (half the payload) on the N-th hit
   name=pX     raise with probability X on every hit
   name=always raise on every hit *)

let parse_spec spec =
  List.filter_map
    (fun part ->
      let part = String.trim part in
      if part = "" then None
      else
        match String.index_opt part '=' with
        | None -> invalid_arg ("Failpoint: bad spec " ^ part)
        | Some i ->
            let name = String.sub part 0 i in
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            let trigger, action =
              if v = "always" then (Always, Raise)
              else if String.length v > 1 && v.[0] = 'p' then
                ( Probability
                    (float_of_string (String.sub v 1 (String.length v - 1))),
                  Raise )
              else if String.length v > 1 && v.[0] = 't' then
                ( After_hits
                    (int_of_string (String.sub v 1 (String.length v - 1))),
                  Torn 0.5 )
              else (After_hits (int_of_string v), Raise)
            in
            Some (name, trigger, action))
    (String.split_on_char ',' spec)

let arm_from_spec spec =
  List.iter (fun (name, trigger, action) -> arm ~action name trigger)
    (parse_spec spec)

let () =
  (match Sys.getenv_opt "DECIBEL_SEED" with
  | Some s -> (try set_seed (Int64.of_string s) with _ -> ())
  | None -> ());
  match Sys.getenv_opt "DECIBEL_FAILPOINTS" with
  | Some spec -> arm_from_spec spec
  | None -> ()
