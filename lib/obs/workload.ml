(* Per-branch workload accounting: who reads and writes which branch,
   how often, and at what replay cost.  See workload.mli. *)

type stats = {
  w_table : string;
  w_branch : string;
  w_reads : int;
  w_writes : int;
  w_scanned : int;
  w_emitted : int;
  w_fragments : int;
  w_pages_hit : int;
  w_pages_missed : int;
  w_read_rate : float;
  w_write_rate : float;
  w_last_read : float;
  w_last_write : float;
}

let selectivity s =
  if s.w_scanned = 0 then 0.0
  else float_of_int s.w_emitted /. float_of_int s.w_scanned

let fragments_per_read s =
  if s.w_reads = 0 then 0.0
  else float_of_int s.w_fragments /. float_of_int s.w_reads

(* ------------------------------------------------------------------ *)
(* Lock-striped table.

   Entries are mutated under their shard's mutex (totals are small and
   the hooks fire once per scan batch / write op, never per tuple), so
   no atomics are needed; readers take each shard mutex in turn and
   therefore see consistent entries. *)

type entry = {
  e_table : string;
  e_branch : string;
  mutable e_reads : int;
  mutable e_writes : int;
  mutable e_scanned : int;
  mutable e_emitted : int;
  mutable e_fragments : int;
  mutable e_pages_hit : int;
  mutable e_pages_missed : int;
  mutable e_read_rate : float; (* EWMA events/s, decayed lazily *)
  mutable e_read_rate_ts : float; (* time the rate was last decayed to *)
  mutable e_write_rate : float;
  mutable e_write_rate_ts : float;
  mutable e_last_read : float;
  mutable e_last_write : float;
}

type shard = {
  sm : Mutex.t;
  tbl : (string * string, entry) Hashtbl.t;
}

let shard_bits = 4
let nshards = 1 lsl shard_bits

let shards =
  Array.init nshards (fun _ ->
      { sm = Mutex.create (); tbl = Hashtbl.create 16 })

let shard_of key = shards.(Hashtbl.hash key land (nshards - 1))

let with_shard s f =
  Mutex.lock s.sm;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.sm) f

(* EWMA time constant (seconds).  Each event contributes an impulse of
   [1/tau]; between events the rate decays as [exp (-dt/tau)], so a
   steady stream of r events/s converges to a rate of ~r and an idle
   branch cools to ~0 within a few tau. *)
let default_tau = 60.0
let tau = ref default_tau

let set_tau t =
  if t <= 0.0 then invalid_arg "Workload.set_tau: tau must be positive";
  tau := t

let now_default = function Some t -> t | None -> Unix.gettimeofday ()

(* decay a rate forward to [now] without adding an event; clock skew
   backwards leaves the rate untouched rather than inflating it *)
let decayed rate ts now =
  if now <= ts then rate else rate *. exp ((ts -. now) /. !tau)

let entry_for s table branch =
  let key = (table, branch) in
  match Hashtbl.find_opt s.tbl key with
  | Some e -> e
  | None ->
      let e =
        {
          e_table = table;
          e_branch = branch;
          e_reads = 0;
          e_writes = 0;
          e_scanned = 0;
          e_emitted = 0;
          e_fragments = 0;
          e_pages_hit = 0;
          e_pages_missed = 0;
          e_read_rate = 0.0;
          e_read_rate_ts = 0.0;
          e_write_rate = 0.0;
          e_write_rate_ts = 0.0;
          e_last_read = 0.0;
          e_last_write = 0.0;
        }
      in
      Hashtbl.replace s.tbl key e;
      e

(* Fold one operation's trace-bag delta into the row; caller holds the
   shard mutex. *)
let add_costs e = function
  | None -> ()
  | Some c ->
      let module P = Obs.Prof in
      e.e_scanned <- e.e_scanned + P.cost c P.Tuples_scanned;
      e.e_emitted <- e.e_emitted + P.cost c P.Tuples_emitted;
      e.e_fragments <- e.e_fragments + P.cost c P.Delta_fragments;
      e.e_pages_hit <- e.e_pages_hit + P.cost c P.Pages_hit;
      e.e_pages_missed <- e.e_pages_missed + P.cost c P.Pages_missed

let note_read ?now ?costs ~table ~branch () =
  let now = now_default now in
  let s = shard_of (table, branch) in
  with_shard s (fun () ->
      let e = entry_for s table branch in
      e.e_reads <- e.e_reads + 1;
      add_costs e costs;
      e.e_read_rate <-
        decayed e.e_read_rate e.e_read_rate_ts now +. (1.0 /. !tau);
      e.e_read_rate_ts <- now;
      e.e_last_read <- now)

let note_write ?now ?costs ~table ~branch () =
  let now = now_default now in
  let s = shard_of (table, branch) in
  with_shard s (fun () ->
      let e = entry_for s table branch in
      e.e_writes <- e.e_writes + 1;
      add_costs e costs;
      e.e_write_rate <-
        decayed e.e_write_rate e.e_write_rate_ts now +. (1.0 /. !tau);
      e.e_write_rate_ts <- now;
      e.e_last_write <- now)

(* ------------------------------------------------------------------ *)
(* Decay and snapshots *)

let decay ?now () =
  let now = now_default now in
  Array.iter
    (fun s ->
      with_shard s (fun () ->
          Hashtbl.iter
            (fun _ e ->
              e.e_read_rate <- decayed e.e_read_rate e.e_read_rate_ts now;
              e.e_read_rate_ts <- now;
              e.e_write_rate <- decayed e.e_write_rate e.e_write_rate_ts now;
              e.e_write_rate_ts <- now)
            s.tbl))
    shards

let stats_of ?now e =
  let now = now_default now in
  {
    w_table = e.e_table;
    w_branch = e.e_branch;
    w_reads = e.e_reads;
    w_writes = e.e_writes;
    w_scanned = e.e_scanned;
    w_emitted = e.e_emitted;
    w_fragments = e.e_fragments;
    w_pages_hit = e.e_pages_hit;
    w_pages_missed = e.e_pages_missed;
    w_read_rate = decayed e.e_read_rate e.e_read_rate_ts now;
    w_write_rate = decayed e.e_write_rate e.e_write_rate_ts now;
    w_last_read = e.e_last_read;
    w_last_write = e.e_last_write;
  }

let snapshot ?now () =
  let acc = ref [] in
  Array.iter
    (fun s ->
      with_shard s (fun () ->
          Hashtbl.iter (fun _ e -> acc := stats_of ?now e :: !acc) s.tbl))
    shards;
  List.sort
    (fun a b -> compare (a.w_table, a.w_branch) (b.w_table, b.w_branch))
    !acc

let find ?now ~table ~branch () =
  let s = shard_of (table, branch) in
  with_shard s (fun () ->
      Option.map (stats_of ?now) (Hashtbl.find_opt s.tbl (table, branch)))

let reset () =
  Array.iter (fun s -> with_shard s (fun () -> Hashtbl.reset s.tbl)) shards

(* ------------------------------------------------------------------ *)
(* JSON / text rendering *)

let esc = Obs.json_escape
let fl = Obs.json_float

let stats_json s =
  Printf.sprintf
    "{\"table\":\"%s\",\"branch\":\"%s\",\"reads\":%d,\"writes\":%d,\"scanned\":%d,\"emitted\":%d,\"selectivity\":%s,\"fragments\":%d,\"pages_hit\":%d,\"pages_missed\":%d,\"read_rate\":%s,\"write_rate\":%s,\"last_read\":%s,\"last_write\":%s}"
    (esc s.w_table) (esc s.w_branch) s.w_reads s.w_writes s.w_scanned
    s.w_emitted
    (fl (selectivity s))
    s.w_fragments s.w_pages_hit s.w_pages_missed (fl s.w_read_rate)
    (fl s.w_write_rate) (fl s.w_last_read) (fl s.w_last_write)

let to_text stats =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "workload (%d branch entries)\n" (List.length stats);
  pf "  %-12s %-16s %7s %7s %9s %9s %6s %7s %9s %9s\n" "table" "branch"
    "reads" "writes" "scanned" "emitted" "sel" "frags" "read/s" "write/s";
  List.iter
    (fun s ->
      pf "  %-12s %-16s %7d %7d %9d %9d %6.3f %7d %9.4f %9.4f\n" s.w_table
        s.w_branch s.w_reads s.w_writes s.w_scanned s.w_emitted
        (selectivity s) s.w_fragments s.w_read_rate s.w_write_rate)
    stats;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSONL checkpoint.

   One flat JSON object per line, written via temp+rename so a crash
   mid-save leaves the previous checkpoint intact.  Loading keeps, per
   total, the larger of the live and checkpointed value (and the larger
   rate / newer timestamp): totals only grow, so a checkpoint saved by
   this process is already contained in its live table, and reopening
   a repository in the same process must not count it twice. *)

let save ?now ?table ~path () =
  let lines =
    List.filter_map
      (fun s ->
        match table with
        | Some t when t <> s.w_table -> None
        | _ -> Some (stats_json s))
      (snapshot ?now ())
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     List.iter
       (fun l ->
         output_string oc l;
         output_char oc '\n')
       lines;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* Minimal parser for the flat objects [stats_json] writes: string and
   number values only, no nesting.  Tolerant of unknown keys so the
   format can grow. *)
let parse_flat line =
  let n = String.length line in
  let fields = ref [] in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t' || line.[!pos] = ',')
    do
      incr pos
    done
  in
  let parse_string () =
    (* cursor on the opening quote *)
    incr pos;
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then failwith "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' when !pos + 1 < n ->
            (match line.[!pos + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | c -> Buffer.add_char buf c);
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match line.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    float_of_string (String.sub line start (!pos - start))
  in
  if n = 0 || line.[0] <> '{' then None
  else begin
    pos := 1;
    (try
       let rec go () =
         skip_ws ();
         if !pos < n && line.[!pos] = '"' then begin
           let key = parse_string () in
           skip_ws ();
           if !pos < n && line.[!pos] = ':' then begin
             incr pos;
             skip_ws ();
             if !pos < n then begin
               (match line.[!pos] with
               | '"' -> fields := (key, `Str (parse_string ())) :: !fields
               | _ -> fields := (key, `Num (parse_number ())) :: !fields);
               go ()
             end
           end
         end
       in
       go ()
     with Failure _ -> ());
    match !fields with [] -> None | fs -> Some fs
  end

let load ~path () =
  if not (Sys.file_exists path) then ()
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            match parse_flat line with
            | None -> ()
            | Some fields -> (
                let str k =
                  match List.assoc_opt k fields with
                  | Some (`Str s) -> Some s
                  | _ -> None
                in
                let num k =
                  match List.assoc_opt k fields with
                  | Some (`Num v) -> v
                  | _ -> 0.0
                in
                let int k = int_of_float (num k) in
                match (str "table", str "branch") with
                | Some table, Some branch ->
                    let s = shard_of (table, branch) in
                    with_shard s (fun () ->
                        let e = entry_for s table branch in
                        e.e_reads <- max e.e_reads (int "reads");
                        e.e_writes <- max e.e_writes (int "writes");
                        e.e_scanned <- max e.e_scanned (int "scanned");
                        e.e_emitted <- max e.e_emitted (int "emitted");
                        e.e_fragments <- max e.e_fragments (int "fragments");
                        e.e_pages_hit <- max e.e_pages_hit (int "pages_hit");
                        e.e_pages_missed <-
                          max e.e_pages_missed (int "pages_missed");
                        (* the checkpointed rate was current at
                           last_read/last_write; resume from there so it
                           keeps decaying across the restart *)
                        if num "read_rate" > e.e_read_rate then begin
                          e.e_read_rate <- num "read_rate";
                          e.e_read_rate_ts <- num "last_read"
                        end;
                        if num "write_rate" > e.e_write_rate then begin
                          e.e_write_rate <- num "write_rate";
                          e.e_write_rate_ts <- num "last_write"
                        end;
                        e.e_last_read <- Float.max e.e_last_read (num "last_read");
                        e.e_last_write <-
                          Float.max e.e_last_write (num "last_write"))
                | _ -> ())
          done
        with End_of_file -> ())
  end
