(* Process-wide metrics registry and tracing spans.  See obs.mli. *)

let on =
  ref
    (match Sys.getenv_opt "DECIBEL_OBS" with
    | Some ("0" | "false" | "off") -> false
    | _ -> true)

let set_enabled b = on := b
let enabled () = !on

let t0 = Unix.gettimeofday ()
let now () = Unix.gettimeofday ()

(* Domain-safety: counters are atomic (hit from parallel scan
   workers); everything slower-moving — interning tables, gauges,
   histograms, the event ring, the span buffer — is guarded by one
   registry mutex.  [locked] sections never call other [locked]
   functions (the mutex is not reentrant). *)
let reg_m = Mutex.create ()

let locked f =
  Mutex.lock reg_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_m) f

(* ------------------------------------------------------------------ *)
(* request-scoped trace context (full API in [Prof] below)

   The trace is the ambient identity of the request being profiled: a
   process-unique id plus a bag of atomic cost counters.  It is
   installed per-domain (DLS), so instrumentation sites attribute to
   whichever request's dynamic extent they run under — including on
   pool worker domains, where [Par] re-installs the submitting
   domain's trace around each chunk task.

   A trace may nest inside another ([Prof.metered] opens one per
   operation): a charge lands in the ambient bag and in every
   enclosing one, so an operation's own bag is exactly its costs while
   the request's bag still sees everything. *)

let prof_nkinds = 8

type prof_trace = {
  tr_id : string; (* "" for an operation meter outside any request *)
  tr_bag : int Atomic.t array; (* length [prof_nkinds] *)
  tr_parent : prof_trace option; (* enclosing trace, charged too *)
}

let prof_trace_key : prof_trace option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current_prof_trace () = Domain.DLS.get prof_trace_key

(* ------------------------------------------------------------------ *)
(* counters *)

type counter = { c_name : string; c_value : int Atomic.t }

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_value = Atomic.make 0 } in
          Hashtbl.replace counters_tbl name c;
          c)

let incr c = if !on then Atomic.incr c.c_value
let add c n = if !on then ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value

let value_of name =
  match locked (fun () -> Hashtbl.find_opt counters_tbl name) with
  | Some c -> Atomic.get c.c_value
  | None -> 0

(* ------------------------------------------------------------------ *)
(* gauges *)

type gauge = { g_name : string; mutable g_value : float }

let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt gauges_tbl name with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_value = 0.0 } in
          Hashtbl.replace gauges_tbl name g;
          g)

let set_gauge g v = if !on then locked (fun () -> g.g_value <- v)
let gauge_value g = g.g_value

(* ------------------------------------------------------------------ *)
(* histograms *)

(* exponential latency buckets: 1 µs, 2 µs, ... ~32 s *)
let default_buckets = Array.init 26 (fun i -> 1e-6 *. (2.0 ** float_of_int i))

type histogram = {
  h_name : string;
  h_buckets : float array; (* ascending upper bounds *)
  h_counts : int array; (* length = buckets + 1 (overflow) *)
  h_exemplars : string array; (* per-bucket last trace id; "" = none *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 32

let histogram ?buckets name =
  locked (fun () ->
      match Hashtbl.find_opt histograms_tbl name with
      | Some h ->
          (match buckets with
          | Some b when b <> h.h_buckets ->
              invalid_arg
                (Printf.sprintf
                   "Obs.histogram: %S already interned with %d bucket(s), \
                    requested %d (bucket layouts must match)"
                   name
                   (Array.length h.h_buckets)
                   (Array.length b))
          | _ -> h)
      | None ->
          let buckets = Option.value buckets ~default:default_buckets in
          let h =
            {
              h_name = name;
              h_buckets = buckets;
              h_counts = Array.make (Array.length buckets + 1) 0;
              h_exemplars = Array.make (Array.length buckets + 1) "";
              h_count = 0;
              h_sum = 0.0;
              h_min = infinity;
              h_max = neg_infinity;
            }
          in
          Hashtbl.replace histograms_tbl name h;
          h)

(* first bucket whose upper bound holds the value (linear scan: the
   bucket count is small and observations are per-operation, not
   per-tuple) *)
let bucket_index h v =
  let n = Array.length h.h_buckets in
  let rec go i = if i >= n || v <= h.h_buckets.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if !on then
    locked (fun () ->
        let i = bucket_index h v in
        h.h_counts.(i) <- h.h_counts.(i) + 1;
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. v;
        if v < h.h_min then h.h_min <- v;
        if v > h.h_max then h.h_max <- v;
        (* tail-latency exemplar: remember which request last landed in
           this bucket, so a p99 spike links to a concrete trace *)
        match current_prof_trace () with
        | Some tr when tr.tr_id <> "" -> h.h_exemplars.(i) <- tr.tr_id
        | _ -> ())

let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int h.h_count)) in
    let rank = max 1 (min h.h_count rank) in
    let nb = Array.length h.h_buckets in
    let acc = ref 0 and result = ref h.h_max in
    (try
       for i = 0 to nb do
         acc := !acc + h.h_counts.(i);
         if !acc >= rank then begin
           result := (if i < nb then h.h_buckets.(i) else h.h_max);
           raise Exit
         end
       done
     with Exit -> ());
    (* a bucket bound can overshoot the true extremes; clamp *)
    min h.h_max (max h.h_min !result)
  end

type hist_summary = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}

let summarize h =
  if h.h_count = 0 then
    {
      hs_count = 0;
      hs_sum = 0.0;
      hs_min = 0.0;
      hs_max = 0.0;
      hs_p50 = 0.0;
      hs_p95 = 0.0;
      hs_p99 = 0.0;
    }
  else
    {
      hs_count = h.h_count;
      hs_sum = h.h_sum;
      hs_min = h.h_min;
      hs_max = h.h_max;
      hs_p50 = quantile h 0.50;
      hs_p95 = quantile h 0.95;
      hs_p99 = quantile h 0.99;
    }

let hist_buckets h = Array.copy h.h_buckets
let hist_exemplars h = locked (fun () -> Array.copy h.h_exemplars)

(* trace id of a sample request that landed near quantile [q]: the
   exemplar of the quantile's bucket, falling back to the nearest
   populated bucket below it, then above — so "show me a p99 request"
   answers with a concrete trace even when the exact bucket's exemplar
   predates tracing *)
let exemplar_near h q =
  locked (fun () ->
      if h.h_count = 0 then None
      else begin
        let rank = int_of_float (ceil (q *. float_of_int h.h_count)) in
        let rank = max 1 (min h.h_count rank) in
        let nb = Array.length h.h_buckets in
        let target = ref nb in
        let acc = ref 0 in
        (try
           for i = 0 to nb do
             acc := !acc + h.h_counts.(i);
             if !acc >= rank then begin
               target := i;
               raise Exit
             end
           done
         with Exit -> ());
        let pick = ref None in
        let i = ref !target in
        while !pick = None && !i >= 0 do
          if h.h_exemplars.(!i) <> "" then pick := Some h.h_exemplars.(!i);
          Stdlib.decr i
        done;
        let i = ref (!target + 1) in
        while !pick = None && !i <= nb do
          if h.h_exemplars.(!i) <> "" then pick := Some h.h_exemplars.(!i);
          Stdlib.incr i
        done;
        !pick
      end)

(* ------------------------------------------------------------------ *)
(* JSON helpers (shared by events, traces and snapshots) *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.9g" v else "0"

(* ------------------------------------------------------------------ *)
(* structured event log *)

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type event = {
  ev_seq : int;
  ev_time : float; (* unix epoch seconds *)
  ev_level : level;
  ev_comp : string;
  ev_msg : string;
  ev_attrs : (string * string) list;
}

(* bounded ring: when full the oldest event is overwritten and
   "obs.events_dropped" counts the loss *)
let ev_capacity = ref 4096
let ev_ring : event option array ref = ref (Array.make !ev_capacity None)
let ev_next = ref 0 (* next write slot *)
let ev_count = ref 0 (* events currently held, <= capacity *)
let ev_seq = ref 0 (* monotonic emission count *)
let ev_min_level = ref Debug
(* file sink with size-based rotation: when the live file would exceed
   [sk_max_bytes] it is renamed to <path>.1 (shifting .1 -> .2 ... up
   to [sk_keep], the oldest falling off) and a fresh file is opened, so
   long --watch-style runs cannot fill the disk *)
type sink = {
  sk_path : string;
  mutable sk_oc : out_channel;
  sk_max_bytes : int; (* 0 = unbounded *)
  sk_keep : int; (* rotated files retained; 0 = truncate in place *)
  mutable sk_written : int;
}

let ev_sink : sink option ref = ref None
let c_events = counter "obs.events"
let c_events_dropped = counter "obs.events_dropped"
let c_rotations = counter "obs.event_log_rotations"

let set_event_capacity n =
  if n < 1 then invalid_arg "Obs.set_event_capacity: capacity must be >= 1";
  ev_capacity := n;
  ev_ring := Array.make n None;
  ev_next := 0;
  ev_count := 0

let set_min_event_level l = ev_min_level := l

let set_event_sink ?(max_bytes = 8 * 1024 * 1024) ?(keep = 3) path =
  if max_bytes < 0 then invalid_arg "Obs.set_event_sink: max_bytes must be >= 0";
  if keep < 0 then invalid_arg "Obs.set_event_sink: keep must be >= 0";
  (match !ev_sink with
  | Some sk -> ( try close_out sk.sk_oc with Sys_error _ -> ())
  | None -> ());
  ev_sink :=
    match path with
    | None -> None
    | Some p ->
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 p in
        (* resume the byte budget of an existing file so re-opening a
           sink does not defer its first rotation *)
        let written =
          try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0
        in
        Some
          {
            sk_path = p;
            sk_oc = oc;
            sk_max_bytes = max_bytes;
            sk_keep = keep;
            sk_written = written;
          }

(* caller holds the registry mutex (called from [event]) *)
let rotate_sink sk =
  (try close_out sk.sk_oc with Sys_error _ -> ());
  if sk.sk_keep > 0 then begin
    for i = sk.sk_keep - 1 downto 1 do
      let src = Printf.sprintf "%s.%d" sk.sk_path i in
      if Sys.file_exists src then (
        try Sys.rename src (Printf.sprintf "%s.%d" sk.sk_path (i + 1))
        with Sys_error _ -> ())
    done;
    try Sys.rename sk.sk_path (sk.sk_path ^ ".1") with Sys_error _ -> ()
  end;
  sk.sk_oc <-
    open_out_gen [ Open_trunc; Open_creat; Open_wronly ] 0o644 sk.sk_path;
  sk.sk_written <- 0;
  incr c_rotations

let event_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"seq\":%d,\"time\":%.6f,\"level\":\"%s\",\"comp\":\"%s\",\"msg\":\"%s\""
       e.ev_seq e.ev_time (level_name e.ev_level) (json_escape e.ev_comp)
       (json_escape e.ev_msg));
  if e.ev_attrs <> [] then begin
    Buffer.add_string buf ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      e.ev_attrs;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

let event ?(attrs = []) ?(level = Info) ~comp msg =
  if !on && level_rank level >= level_rank !ev_min_level then begin
    locked (fun () ->
        let e =
          {
            ev_seq = !ev_seq;
            ev_time = now ();
            ev_level = level;
            ev_comp = comp;
            ev_msg = msg;
            ev_attrs = attrs;
          }
        in
        Stdlib.incr ev_seq;
        let cap = Array.length !ev_ring in
        if !ev_count = cap then incr c_events_dropped
        else Stdlib.incr ev_count;
        !ev_ring.(!ev_next) <- Some e;
        ev_next := (!ev_next + 1) mod cap;
        match !ev_sink with
        | Some sk ->
            let line = event_json e in
            if
              sk.sk_max_bytes > 0 && sk.sk_written > 0
              && sk.sk_written + String.length line + 1 > sk.sk_max_bytes
            then rotate_sink sk;
            output_string sk.sk_oc line;
            output_char sk.sk_oc '\n';
            flush sk.sk_oc;
            sk.sk_written <- sk.sk_written + String.length line + 1
        | None -> ());
    incr c_events
  end

let events () =
  locked (fun () ->
      let cap = Array.length !ev_ring in
      let first = (!ev_next - !ev_count + cap) mod cap in
      List.init !ev_count (fun i ->
          match !ev_ring.((first + i) mod cap) with
          | Some e -> e
          | None -> assert false))

let events_emitted () = !ev_seq

let events_json () =
  let es = events () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf (event_json e);
      Buffer.add_char buf '\n')
    es;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* slow-operation log *)

let slow_tbl : (string, float) Hashtbl.t = Hashtbl.create 16

let slow_default =
  ref
    (match Sys.getenv_opt "DECIBEL_SLOW_MS" with
    | Some s -> ( try Some (float_of_string s /. 1e3) with Failure _ -> None)
    | None -> None)

let set_slow_threshold name secs = Hashtbl.replace slow_tbl name secs
let clear_slow_threshold name = Hashtbl.remove slow_tbl name
let set_slow_default secs = slow_default := secs

let slow_threshold name =
  match Hashtbl.find_opt slow_tbl name with
  | Some _ as t -> t
  | None -> !slow_default

let c_slow = counter "obs.slow_ops"

let note_slow name dur attrs =
  match slow_threshold name with
  | Some th when dur >= th ->
      incr c_slow;
      event ~level:Warn ~comp:"slow_op"
        ~attrs:
          (("duration_ms", Printf.sprintf "%.3f" (dur *. 1e3))
          :: ("threshold_ms", Printf.sprintf "%.3f" (th *. 1e3))
          :: attrs)
        name
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* request profiler: EXPLAIN ANALYZE over the span tree *)

module Prof = struct
  (* Two ambient pieces of state, deliberately separate:

     - the [trace] (type [prof_trace] near the top of the file, so
       [observe] can record exemplars): id + atomic counter bag.  It
       crosses domains — [Par] re-installs the submitting domain's
       trace around every worker task — so cost counters from a
       4-domain scan all land in the one request's bag.

     - the [builder]: the operator-tree stack.  It lives only on the
       domain that called [profiled]; worker-domain spans do not open
       tree nodes (their costs surface in the enclosing node's counter
       deltas instead), which keeps tree construction lock-free.

     A node's counters are the bag delta between span entry and exit:
     cumulative, children included — EXPLAIN ANALYZE semantics. *)

  type kind =
    | Tuples_scanned
    | Tuples_emitted
    | Pages_hit
    | Pages_missed
    | Bitmap_words
    | Delta_fragments
    | Wal_bytes
    | Bytes_decoded

  let all_kinds =
    [
      Tuples_scanned;
      Tuples_emitted;
      Pages_hit;
      Pages_missed;
      Bitmap_words;
      Delta_fragments;
      Wal_bytes;
      Bytes_decoded;
    ]

  let kind_index = function
    | Tuples_scanned -> 0
    | Tuples_emitted -> 1
    | Pages_hit -> 2
    | Pages_missed -> 3
    | Bitmap_words -> 4
    | Delta_fragments -> 5
    | Wal_bytes -> 6
    | Bytes_decoded -> 7

  let kind_name = function
    | Tuples_scanned -> "tuples_scanned"
    | Tuples_emitted -> "tuples_emitted"
    | Pages_hit -> "pages_hit"
    | Pages_missed -> "pages_missed"
    | Bitmap_words -> "bitmap_words"
    | Delta_fragments -> "delta_fragments"
    | Wal_bytes -> "wal_bytes"
    | Bytes_decoded -> "bytes_decoded"

  type costs = int array

  let cost (c : costs) kind = c.(kind_index kind)

  (* Each kind's one process-wide counter.  Where a layer already
     counted the same event under its own name, that name is kept. *)
  let counter_name = function
    | Tuples_scanned -> "engine.tuples_scanned"
    | Tuples_emitted -> "engine.tuples_emitted"
    | Pages_hit -> "buffer_pool.hits"
    | Pages_missed -> "buffer_pool.misses"
    | Bitmap_words -> "engine.bitmap_words"
    | Delta_fragments -> "engine.delta_fragments"
    | Wal_bytes -> "wal.bytes"
    | Bytes_decoded -> "storage.bytes_decoded"

  let kind_counters =
    Array.of_list (List.map (fun k -> counter (counter_name k)) all_kinds)

  type trace = prof_trace

  let c_profiles = counter "prof.profiles"
  let c_prof_aborted = counter "prof.aborted"
  let trace_seq = Atomic.make 0

  let new_trace ~id parent =
    {
      tr_id = id;
      tr_bag = Array.init prof_nkinds (fun _ -> Atomic.make 0);
      tr_parent = parent;
    }

  let make_trace () =
    new_trace None
      ~id:
        (Printf.sprintf "t%d-%d" (Unix.getpid ())
           (Atomic.fetch_and_add trace_seq 1))

  let trace_id (tr : trace) = tr.tr_id
  let current_trace = current_prof_trace

  let with_attribution tr f =
    let saved = Domain.DLS.get prof_trace_key in
    Domain.DLS.set prof_trace_key (Some tr);
    Fun.protect ~finally:(fun () -> Domain.DLS.set prof_trace_key saved) f

  (* The one charge point, and the hot path of the whole profiler: a
     branch, one atomic add on the kind's counter, then one per
     ambient bag (an operation meter and its request: two at most in
     practice).  Callers are per-operation (or per-page), never
     per-tuple — tuple counts arrive as single charges of batch
     totals. *)
  let charge kind n =
    if !on && n <> 0 then begin
      let i = kind_index kind in
      Stdlib.ignore (Atomic.fetch_and_add kind_counters.(i).c_value n);
      let rec bags = function
        | Some tr ->
            Stdlib.ignore (Atomic.fetch_and_add tr.tr_bag.(i) n);
            bags tr.tr_parent
        | None -> ()
      in
      bags (Domain.DLS.get prof_trace_key)
    end

  let bag_snapshot tr = Array.map Atomic.get tr.tr_bag

  (* One operation's costs: a child of the ambient trace (which keeps
     receiving every charge), installed for [f]'s extent and read back
     at the end.  [Par] hands the child to worker domains like any
     trace, so their charges land in it too. *)
  let metered f =
    let parent = Domain.DLS.get prof_trace_key in
    let id = match parent with Some p -> p.tr_id | None -> "" in
    let tr = new_trace ~id parent in
    Domain.DLS.set prof_trace_key (Some tr);
    match f () with
    | v ->
        Domain.DLS.set prof_trace_key parent;
        (v, bag_snapshot tr)
    | exception e ->
        Domain.DLS.set prof_trace_key parent;
        raise e

  (* ---------------- operator tree *)

  type node = {
    n_name : string;
    mutable n_rows : int;
    mutable n_dur : float; (* seconds *)
    n_counters : int array; (* length [prof_nkinds]; children included *)
    mutable n_children : node list;
  }

  type profile = {
    p_trace_id : string;
    p_label : string;
    p_dur : float; (* seconds *)
    p_root : node;
    p_aborted : string option; (* exception text when flushed partial *)
  }

  type frame = { f_node : node; f_bag0 : int array }

  type builder = { b_trace : prof_trace; mutable b_stack : frame list }
  (* b_stack: top first; the bottom frame is the synthetic root *)

  let builder_key : builder option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let new_node name =
    {
      n_name = name;
      n_rows = -1; (* unset; falls back to the tuples_emitted delta *)
      n_dur = 0.0;
      n_counters = Array.make prof_nkinds 0;
      n_children = [];
    }

  (* called by [with_span] on entry/exit; no-ops unless this domain is
     inside a [profiled] extent *)
  let enter name =
    match Domain.DLS.get builder_key with
    | None -> ()
    | Some b ->
        b.b_stack <-
          { f_node = new_node name; f_bag0 = bag_snapshot b.b_trace }
          :: b.b_stack

  let close_frame b f ~dur =
    let bag = bag_snapshot b.b_trace in
    for i = 0 to prof_nkinds - 1 do
      f.f_node.n_counters.(i) <- bag.(i) - f.f_bag0.(i)
    done;
    f.f_node.n_dur <- dur;
    if f.f_node.n_rows < 0 then
      f.f_node.n_rows <- f.f_node.n_counters.(kind_index Tuples_emitted)

  let exit_ dur =
    match Domain.DLS.get builder_key with
    | None -> ()
    | Some b -> (
        match b.b_stack with
        | [] | [ _ ] -> () (* never pop the synthetic root *)
        | f :: (parent :: _ as rest) ->
            close_frame b f ~dur;
            parent.f_node.n_children <- f.f_node :: parent.f_node.n_children;
            b.b_stack <- rest)

  (* annotate the innermost open operator with its logical row count
     (e.g. rows returned post-predicate, which no cost counter knows) *)
  let set_rows n =
    match Domain.DLS.get builder_key with
    | None -> ()
    | Some b -> (
        match b.b_stack with
        | f :: _ -> f.f_node.n_rows <- n
        | [] -> ())

  (* ---------------- ring of recent profiles *)

  let profiles_ring : profile option array ref = ref (Array.make 16 None)
  let profiles_next = ref 0
  let profiles_count = ref 0

  let set_profile_capacity n =
    if n < 1 then invalid_arg "Obs.Prof.set_profile_capacity: must be >= 1";
    locked (fun () ->
        profiles_ring := Array.make n None;
        profiles_next := 0;
        profiles_count := 0)

  let keep p =
    locked (fun () ->
        let cap = Array.length !profiles_ring in
        !profiles_ring.(!profiles_next) <- Some p;
        profiles_next := (!profiles_next + 1) mod cap;
        if !profiles_count < cap then Stdlib.incr profiles_count)

  let last_profile () =
    locked (fun () ->
        if !profiles_count = 0 then None
        else
          let cap = Array.length !profiles_ring in
          !profiles_ring.((!profiles_next - 1 + cap) mod cap))

  let recent_profiles () =
    locked (fun () ->
        let cap = Array.length !profiles_ring in
        let first = (!profiles_next - !profiles_count + cap) mod cap in
        List.init !profiles_count (fun i ->
            match !profiles_ring.((first + i) mod cap) with
            | Some p -> p
            | None -> assert false))

  (* ---------------- profiled execution *)

  let profiled ?(label = "request") f =
    let tr = make_trace () in
    let root = new_node label in
    let b =
      { b_trace = tr; b_stack = [ { f_node = root; f_bag0 = bag_snapshot tr } ] }
    in
    let saved_tr = Domain.DLS.get prof_trace_key in
    let saved_b = Domain.DLS.get builder_key in
    Domain.DLS.set prof_trace_key (Some tr);
    Domain.DLS.set builder_key (Some b);
    let start = now () in
    let finish aborted =
      let dur = now () -. start in
      Domain.DLS.set prof_trace_key saved_tr;
      Domain.DLS.set builder_key saved_b;
      (* an abort unwinds through [with_span]'s finally, so nested
         frames are normally already closed; drain defensively *)
      let rec drain () =
        match b.b_stack with
        | [] -> ()
        | [ f ] ->
            close_frame b f ~dur;
            b.b_stack <- []
        | f :: (parent :: _ as rest) ->
            close_frame b f ~dur;
            parent.f_node.n_children <- f.f_node :: parent.f_node.n_children;
            b.b_stack <- rest;
            drain ()
      in
      drain ();
      let rec order n =
        n.n_children <- List.rev n.n_children;
        List.iter order n.n_children
      in
      order root;
      let p =
        {
          p_trace_id = tr.tr_id;
          p_label = label;
          p_dur = dur;
          p_root = root;
          p_aborted = aborted;
        }
      in
      incr c_profiles;
      (match aborted with Some _ -> incr c_prof_aborted | None -> ());
      keep p;
      p
    in
    match f () with
    | v -> (v, finish None)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Stdlib.ignore (finish (Some (Printexc.to_string e)));
        Printexc.raise_with_backtrace e bt

  let total p kind = cost p.p_root.n_counters kind

  (* ---------------- rendering *)

  let render p =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "profile %s (%s) %.3f ms%s\n" p.p_trace_id p.p_label
         (p.p_dur *. 1e3)
         (match p.p_aborted with
         | None -> ""
         | Some e -> "  ABORTED: " ^ e));
    let rec go depth n =
      Buffer.add_string buf (String.make (2 * depth) ' ');
      Buffer.add_string buf
        (Printf.sprintf "-> %s  rows=%d  time=%.3fms" n.n_name n.n_rows
           (n.n_dur *. 1e3));
      let parts =
        List.filter_map
          (fun k ->
            let v = n.n_counters.(kind_index k) in
            if v = 0 then None else Some (Printf.sprintf "%s=%d" (kind_name k) v))
          all_kinds
      in
      if parts <> [] then
        Buffer.add_string buf ("  [" ^ String.concat " " parts ^ "]");
      Buffer.add_char buf '\n';
      List.iter (go (depth + 1)) n.n_children
    in
    go 0 p.p_root;
    Buffer.contents buf

  let rec node_json buf n =
    Buffer.add_string buf
      (Printf.sprintf "{\"name\":\"%s\",\"rows\":%d,\"time_ms\":%s,\"counters\":{"
         (json_escape n.n_name) n.n_rows
         (json_float (n.n_dur *. 1e3)));
    let first = ref true in
    List.iter
      (fun k ->
        let v = n.n_counters.(kind_index k) in
        if v <> 0 then begin
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (kind_name k) v)
        end)
      all_kinds;
    Buffer.add_string buf "},\"children\":[";
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char buf ',';
        node_json buf c)
      n.n_children;
    Buffer.add_string buf "]}"

  let profile_json p =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"trace_id\":\"%s\",\"label\":\"%s\",\"time_ms\":%s,\"aborted\":%s,\"root\":"
         (json_escape p.p_trace_id) (json_escape p.p_label)
         (json_float (p.p_dur *. 1e3))
         (match p.p_aborted with
         | None -> "null"
         | Some e -> Printf.sprintf "\"%s\"" (json_escape e)));
    node_json buf p.p_root;
    Buffer.add_char buf '}';
    Buffer.contents buf

  let profiles_json () =
    let ps = recent_profiles () in
    let buf = Buffer.create 1024 in
    Buffer.add_char buf '[';
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (profile_json p))
      ps;
    Buffer.add_char buf ']';
    Buffer.contents buf
end

let charge = Prof.charge

(* ------------------------------------------------------------------ *)
(* spans *)

type span = {
  sp_name : string;
  sp_start : float;
  sp_dur : float;
  sp_attrs : (string * string) list;
}

let max_spans = ref 200_000

let set_max_spans n =
  if n < 0 then invalid_arg "Obs.set_max_spans: limit must be >= 0";
  max_spans := n

let span_buf : span option array ref = ref (Array.make 256 None)
let nspans = ref 0
let c_dropped = counter "obs.spans_dropped"

let record_span s =
  if !nspans >= !max_spans then incr c_dropped
  else
    locked (fun () ->
        if !nspans = Array.length !span_buf then begin
          let a = Array.make (2 * !nspans) None in
          Array.blit !span_buf 0 a 0 !nspans;
          span_buf := a
        end;
        !span_buf.(!nspans) <- Some s;
        Stdlib.incr nspans)

let with_span ?(attrs = []) name f =
  if not !on then f ()
  else begin
    let start = now () in
    Prof.enter name;
    Fun.protect
      ~finally:(fun () ->
        let dur = now () -. start in
        Prof.exit_ dur;
        record_span
          { sp_name = name; sp_start = start -. t0; sp_dur = dur;
            sp_attrs = attrs };
        observe (histogram name) dur;
        note_slow name dur attrs)
      f
  end

let spans () =
  locked (fun () ->
      List.init !nspans (fun i ->
          match !span_buf.(i) with Some s -> s | None -> assert false))

let span_count () = !nspans

(* ------------------------------------------------------------------ *)
(* JSON *)

let span_json s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f"
       (json_escape s.sp_name)
       (s.sp_start *. 1e6) (s.sp_dur *. 1e6));
  if s.sp_attrs <> [] then begin
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      s.sp_attrs;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Stream spans one line at a time: at the 200k-span cap a single
   concatenated string is tens of MB of transient allocation.  The
   buffer array and count are snapshotted under the lock (slots below
   [nspans] are immutable once written), then written lock-free. *)
let output_trace oc =
  let buf, n = locked (fun () -> (!span_buf, !nspans)) in
  for i = 0 to n - 1 do
    match buf.(i) with
    | Some s ->
        output_string oc (span_json s);
        output_char oc '\n'
    | None -> ()
  done

let dump_trace () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf (span_json s);
      Buffer.add_char buf '\n')
    (spans ());
  Buffer.contents buf

let write_trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_trace oc)

(* ------------------------------------------------------------------ *)
(* snapshots *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}

let sorted_bindings tbl value =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl [])

let snapshot () =
  locked (fun () ->
      {
        counters = sorted_bindings counters_tbl (fun c -> Atomic.get c.c_value);
        gauges = sorted_bindings gauges_tbl (fun g -> g.g_value);
        histograms = sorted_bindings histograms_tbl summarize;
      })

let counters_diff before after =
  let base = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace base k v) before.counters;
  List.map
    (fun (k, v) -> (k, v - Option.value ~default:0 (Hashtbl.find_opt base k)))
    after.counters

let to_json snap =
  let buf = Buffer.create 1024 in
  let obj fields body =
    Buffer.add_char buf '{';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        body x)
      fields;
    Buffer.add_char buf '}'
  in
  Buffer.add_string buf "{\"counters\":";
  obj snap.counters (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape k) v));
  Buffer.add_string buf ",\"gauges\":";
  obj snap.gauges (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%s" (json_escape k) (json_float v)));
  Buffer.add_string buf ",\"histograms\":";
  obj snap.histograms (fun (k, h) ->
      Buffer.add_string buf
        (Printf.sprintf
           "\"%s\":{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s}"
           (json_escape k) h.hs_count (json_float h.hs_sum)
           (json_float h.hs_min) (json_float h.hs_max) (json_float h.hs_p50)
           (json_float h.hs_p95) (json_float h.hs_p99)));
  Buffer.add_char buf '}';
  Buffer.contents buf

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters_tbl;
      Hashtbl.iter (fun _ g -> g.g_value <- 0.0) gauges_tbl;
      Hashtbl.iter
        (fun _ h ->
          Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
          Array.fill h.h_exemplars 0 (Array.length h.h_exemplars) "";
          h.h_count <- 0;
          h.h_sum <- 0.0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity)
        histograms_tbl;
      nspans := 0;
      Array.fill !ev_ring 0 (Array.length !ev_ring) None;
      ev_next := 0;
      ev_count := 0;
      ev_seq := 0;
      Array.fill !Prof.profiles_ring 0 (Array.length !Prof.profiles_ring) None;
      Prof.profiles_next := 0;
      Prof.profiles_count := 0)
