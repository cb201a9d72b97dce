(* decibel — command-line interface to Decibel repositories.

   A repository is a directory managed by one of the storage schemes;
   every command opens it, performs one operation, and persists the
   result, mirroring how git is driven from a shell.

     decibel init /tmp/repo --schema "id:int,name:str,score:int" --pk id
     decibel insert /tmp/repo --branch master --values "1,ada,90"
     decibel commit /tmp/repo --branch master -m "first rows"
     decibel branch /tmp/repo dev --from master
     decibel scan /tmp/repo --branch dev
     decibel diff /tmp/repo master dev
     decibel merge /tmp/repo --into master --from dev
     decibel log /tmp/repo
     decibel sql /tmp/repo "SELECT * FROM r WHERE HEAD(r.Version) = true"
*)

open Decibel
open Decibel_storage
open Cmdliner
module Vg = Decibel_graph.Version_graph
module Governor = Decibel_governor.Governor
module Obs = Decibel_obs.Obs

(* ------------------------------------------------------------------ *)
(* helpers *)

let parse_schema spec pk =
  let columns =
    List.map
      (fun field ->
        match String.split_on_char ':' (String.trim field) with
        | [ name; "int" ] -> { Schema.col_name = name; col_type = Schema.T_int }
        | [ name; "str" ] -> { Schema.col_name = name; col_type = Schema.T_str }
        | _ ->
            failwith
              (Printf.sprintf "bad column spec %S (want name:int|str)" field))
      (String.split_on_char ',' spec)
  in
  Schema.make ~name:"r" ~columns ~pk

let parse_tuple schema spec =
  let parts = String.split_on_char ',' spec in
  let cols = Schema.columns schema in
  if List.length parts <> Array.length cols then
    failwith
      (Printf.sprintf "expected %d fields, got %d" (Array.length cols)
         (List.length parts));
  Array.of_list
    (List.mapi
       (fun i part ->
         let part = String.trim part in
         match cols.(i).Schema.col_type with
         | Schema.T_int -> Value.Int (Int64.of_string part)
         | Schema.T_str -> Value.Str part)
       parts)

(* An injected fault simulates the process dying at that instant, so
   the clean close (which checkpoints and would heal the simulated
   damage) must not run — drop the handle as a crash would. *)
let with_repo dir f =
  let db = Database.reopen ~dir () in
  match f db with
  | v ->
      Database.close db;
      v
  | exception (Decibel_fault.Failpoint.Fault_injected _ as e) ->
      Database.crash db;
      raise e
  | exception e ->
      Database.close db;
      raise e

let branch_arg db name =
  match Vg.branch_by_name (Database.graph db) name with
  | Some b -> b.Vg.bid
  | None -> failwith (Printf.sprintf "no branch named %S" name)

let print_tuple t = print_endline (Tuple.to_string t)

let wrap f =
  try
    f ();
    0
  with
  | Failure msg | Types.Engine_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Decibel_fault.Failpoint.Fault_injected site ->
      Printf.eprintf "fault injected at %s (simulated crash)\n" site;
      1
  | Vquel.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      1
  | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Governor.Cancelled ->
      Printf.eprintf "error: operation cancelled\n";
      3
  | Governor.Deadline_exceeded ->
      Printf.eprintf "error: deadline exceeded\n";
      3
  | Governor.Budget_exceeded { charged; budget } ->
      Printf.eprintf "error: memory budget exceeded (%d of %d bytes)\n"
        charged budget;
      3
  | Governor.Breaker.Tripped resource ->
      Printf.eprintf "error: circuit breaker open for %s\n" resource;
      4

(* ------------------------------------------------------------------ *)
(* common arguments *)

let dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"REPO" ~doc:"Repository directory.")

let branch_opt =
  Arg.(
    value & opt string "master"
    & info [ "branch"; "b" ] ~docv:"BRANCH"
        ~doc:"Branch to operate on (default master).")

let deadline_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Abandon the operation after $(docv) milliseconds (cooperative \
           cancellation; exits 3 when the deadline fires).")

let ctx_of_deadline = function
  | None -> None
  | Some ms -> Some (Governor.Ctx.create ~deadline_ms:ms ())

let profile_opt =
  let fmt_conv = Arg.enum [ ("text", "text"); ("json", "json") ] in
  Arg.(
    value
    & opt ~vopt:(Some "text") (some fmt_conv) None
    & info [ "profile" ] ~docv:"FMT"
        ~doc:
          "EXPLAIN ANALYZE: run the operation under a request trace and \
           print its per-operator profile tree (rows, timings, cost \
           counters) after the results.  $(docv) is $(b,text) (default) or \
           $(b,json).")

(* Run [f] under Database.profile when --profile was given; tracing
   must be armed before the operation or the spans that become profile
   nodes are never recorded. *)
let with_profile db profile ~label f =
  match profile with
  | None -> f ()
  | Some fmt ->
      Obs.set_enabled true;
      let (), p = Database.profile ~label db f in
      if fmt = "json" then print_endline (Obs.Prof.profile_json p)
      else print_string (Obs.Prof.render p)

(* ------------------------------------------------------------------ *)
(* commands *)

let init_cmd =
  let schema_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "schema" ] ~docv:"COLS"
          ~doc:"Comma-separated columns, e.g. $(i,id:int,name:str).")
  in
  let pk_arg =
    Arg.(value & opt string "id" & info [ "pk" ] ~doc:"Primary key column.")
  in
  let scheme_arg =
    let scheme_conv =
      Arg.enum
        [
          ("tuple-first", Database.Tuple_first);
          ("version-first", Database.Version_first);
          ("hybrid", Database.Hybrid);
        ]
    in
    Arg.(
      value & opt scheme_conv Database.Hybrid
      & info [ "scheme" ]
          ~doc:
            "Storage scheme: $(b,tuple-first), $(b,version-first) or \
             $(b,hybrid) (default).")
  in
  let durable_arg =
    Arg.(
      value & flag
      & info [ "durable" ]
          ~doc:
            "Arm write-ahead logging: operations are logged to \
             $(b,wal.log) and replayed after a crash. Subsequent \
             commands detect the log and stay durable.")
  in
  let run dir spec pk scheme durable =
    wrap (fun () ->
        if Sys.file_exists dir && Sys.readdir dir <> [||] then
          failwith (Printf.sprintf "%s already exists and is not empty" dir);
        let schema = parse_schema spec pk in
        let db = Database.open_ ~scheme ~dir ~schema ~durable () in
        Database.close db;
        Printf.printf "initialized %s%s repository in %s\n"
          (Database.scheme_name scheme)
          (if durable then " (durable)" else "")
          dir)
  in
  Cmd.v
    (Cmd.info "init" ~doc:"Create a new versioned repository.")
    Term.(const run $ dir_arg $ schema_arg $ pk_arg $ scheme_arg $ durable_arg)

let values_opt =
  Arg.(
    required
    & opt (some string) None
    & info [ "values"; "v" ] ~docv:"V1,V2,..."
        ~doc:"Field values in schema order.")

let insert_cmd =
  let run dir branch spec =
    wrap (fun () ->
        with_repo dir (fun db ->
            let t = parse_tuple (Database.schema db) spec in
            Database.insert db (branch_arg db branch) t))
  in
  Cmd.v
    (Cmd.info "insert" ~doc:"Insert a record into a branch's working copy.")
    Term.(const run $ dir_arg $ branch_opt $ values_opt)

let update_cmd =
  let run dir branch spec =
    wrap (fun () ->
        with_repo dir (fun db ->
            let t = parse_tuple (Database.schema db) spec in
            Database.update db (branch_arg db branch) t))
  in
  Cmd.v
    (Cmd.info "update" ~doc:"Update the record with a matching key.")
    Term.(const run $ dir_arg $ branch_opt $ values_opt)

let delete_cmd =
  let key =
    Arg.(
      required
      & opt (some string) None
      & info [ "key"; "k" ] ~docv:"KEY" ~doc:"Primary key value.")
  in
  let run dir branch key =
    wrap (fun () ->
        with_repo dir (fun db ->
            let schema = Database.schema db in
            let pk_col = (Schema.columns schema).(Schema.pk_index schema) in
            let k =
              match pk_col.Schema.col_type with
              | Schema.T_int -> Value.Int (Int64.of_string key)
              | Schema.T_str -> Value.Str key
            in
            Database.delete db (branch_arg db branch) k))
  in
  Cmd.v
    (Cmd.info "delete" ~doc:"Delete the record with the given key.")
    Term.(const run $ dir_arg $ branch_opt $ key)

let commit_cmd =
  let msg =
    Arg.(
      value & opt string ""
      & info [ "message"; "m" ] ~docv:"MSG" ~doc:"Commit message.")
  in
  let run dir branch message =
    wrap (fun () ->
        with_repo dir (fun db ->
            let v = Database.commit db (branch_arg db branch) ~message in
            Printf.printf "committed version %d on %s\n" v branch))
  in
  Cmd.v
    (Cmd.info "commit" ~doc:"Snapshot a branch's working state.")
    Term.(const run $ dir_arg $ branch_opt $ msg)

let branch_cmd =
  let name_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NAME" ~doc:"Name of the new branch.")
  in
  let from_arg =
    Arg.(
      value & opt string "master"
      & info [ "from" ] ~docv:"BRANCH|#N"
          ~doc:
            "Source: a branch name (its head commit) or $(i,#n) for version \
             n.")
  in
  let run dir name from =
    wrap (fun () ->
        with_repo dir (fun db ->
            let from_version =
              if String.length from > 1 && from.[0] = '#' then
                int_of_string (String.sub from 1 (String.length from - 1))
              else Vg.head (Database.graph db) (branch_arg db from)
            in
            let b = Database.create_branch db ~name ~from:from_version in
            Printf.printf "created branch %s (id %d) from version %d\n" name b
              from_version))
  in
  Cmd.v
    (Cmd.info "branch" ~doc:"Create a branch from a commit (no data copied).")
    Term.(const run $ dir_arg $ name_arg $ from_arg)

let scan_cmd =
  let version =
    Arg.(
      value
      & opt (some int) None
      & info [ "at" ] ~docv:"N"
          ~doc:"Scan committed version N (--at N) instead of a branch head.")
  in
  let run dir branch version deadline profile =
    wrap (fun () ->
        with_repo dir (fun db ->
            let ctx = ctx_of_deadline deadline in
            with_profile db profile ~label:"cli.scan" (fun () ->
                match version with
                | Some v -> Database.scan_version ?ctx db v print_tuple
                | None ->
                    Database.scan ?ctx db (branch_arg db branch) print_tuple)))
  in
  Cmd.v
    (Cmd.info "scan" ~doc:"Print the live records of a branch or version.")
    Term.(const run $ dir_arg $ branch_opt $ version $ deadline_opt
          $ profile_opt)

let diff_cmd =
  let b1 = Arg.(required & pos 1 (some string) None & info [] ~docv:"A") in
  let b2 = Arg.(required & pos 2 (some string) None & info [] ~docv:"B") in
  let run dir a b deadline profile =
    wrap (fun () ->
        with_repo dir (fun db ->
            let ctx = ctx_of_deadline deadline in
            with_profile db profile ~label:"cli.diff" (fun () ->
                Database.diff ?ctx db (branch_arg db a) (branch_arg db b)
                  ~pos:(fun t -> Printf.printf "< %s\n" (Tuple.to_string t))
                  ~neg:(fun t -> Printf.printf "> %s\n" (Tuple.to_string t)))))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Differences between two branches ('<' only in A, '>' only in B).")
    Term.(const run $ dir_arg $ b1 $ b2 $ deadline_opt $ profile_opt)

let merge_cmd =
  let into =
    Arg.(required & opt (some string) None & info [ "into" ] ~docv:"BRANCH")
  in
  let from =
    Arg.(required & opt (some string) None & info [ "from" ] ~docv:"BRANCH")
  in
  let policy =
    let policy_conv =
      Arg.enum
        [
          ("ours", Types.Ours);
          ("theirs", Types.Theirs);
          ("three-way", Types.Three_way);
        ]
    in
    Arg.(
      value & opt policy_conv Types.Three_way
      & info [ "policy" ]
          ~doc:
            "Conflict policy: $(b,ours), $(b,theirs) or $(b,three-way) \
             (default: field-level three-way with destination precedence).")
  in
  let msg = Arg.(value & opt string "merge" & info [ "message"; "m" ]) in
  let run dir into from policy message deadline profile =
    wrap (fun () ->
        with_repo dir (fun db ->
            let ctx = ctx_of_deadline deadline in
            with_profile db profile ~label:"cli.merge" (fun () ->
                let r =
                  Database.merge ?ctx db ~into:(branch_arg db into)
                    ~from:(branch_arg db from) ~policy ~message
                in
                Printf.printf
                  "merged %s into %s: version %d, %d conflicts (%d/%d/%d \
                   keys ours/theirs/both)\n"
                  from into r.Types.merge_version
                  (List.length r.Types.conflicts)
                  r.Types.keys_ours r.Types.keys_theirs r.Types.keys_both;
                List.iter
                  (fun (c : Types.conflict) ->
                    Printf.printf "  conflict key=%s fields=[%s]\n"
                      (Value.to_string c.Types.key)
                      (String.concat ","
                         (List.map string_of_int c.Types.fields)))
                  r.Types.conflicts)))
  in
  Cmd.v
    (Cmd.info "merge" ~doc:"Merge one branch into another.")
    Term.(const run $ dir_arg $ into $ from $ policy $ msg $ deadline_opt
          $ profile_opt)

let log_cmd =
  let run dir =
    wrap (fun () ->
        with_repo dir (fun db ->
            let g = Database.graph db in
            List.iter
              (fun (v : Vg.version) ->
                let branch = (Vg.branch g v.Vg.on_branch).Vg.name in
                Printf.printf "version %-4d on %-12s parents=[%s] %s%s\n"
                  v.Vg.id branch
                  (String.concat ", " (List.map string_of_int v.Vg.parents))
                  v.Vg.message
                  (if Vg.is_head g v.Vg.id then "  <- head" else ""))
              (Vg.versions g)))
  in
  Cmd.v (Cmd.info "log" ~doc:"Print the version graph.")
    Term.(const run $ dir_arg)

let branches_cmd =
  let run dir =
    wrap (fun () ->
        with_repo dir (fun db ->
            List.iter
              (fun (b : Vg.branch) ->
                Printf.printf "%-16s id=%-3d base=v%-4d head=v%-4d%s\n"
                  b.Vg.name b.Vg.bid b.Vg.base b.Vg.head
                  (if b.Vg.active then "" else "  (retired)"))
              (Vg.branches (Database.graph db))))
  in
  Cmd.v (Cmd.info "branches" ~doc:"List branches.") Term.(const run $ dir_arg)

let sql_term =
  let query =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"SQL"
          ~doc:
            "A VQuel query (see the paper's Table 1 for the four supported \
             shapes).")
  in
  let run dir q profile =
    wrap (fun () ->
        with_repo dir (fun db ->
            with_profile db profile ~label:"cli.query" (fun () ->
                let rows = Vquel.query db q in
                List.iter
                  (fun (r : Vquel.row) ->
                    if r.Vquel.row_branches = [] then
                      print_tuple r.Vquel.values
                    else
                      Printf.printf "%s  [%s]\n"
                        (Tuple.to_string r.Vquel.values)
                        (String.concat ", " r.Vquel.row_branches))
                  rows;
                Printf.printf "(%d rows)\n" (List.length rows))))
  in
  Term.(const run $ dir_arg $ query $ profile_opt)

let sql_cmd = Cmd.v (Cmd.info "sql" ~doc:"Run a versioned query.") sql_term

let query_cmd =
  (* alias: `decibel query REPO SQL --profile` reads as EXPLAIN ANALYZE *)
  Cmd.v (Cmd.info "query" ~doc:"Run a versioned query (alias of sql).")
    sql_term

let stats_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit statistics as one JSON object, including the internal \
             metrics registry (counters, gauges, latency histograms).")
  in
  let watch_opt =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECS"
          ~doc:
            "Re-render statistics in place every $(docv) seconds, showing \
             per-counter deltas since the previous refresh; stop with \
             ctrl-c.")
  in
  let count_opt =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"With $(b,--watch), stop after $(docv) refreshes (0 = forever).")
  in
  let print_stats db json =
    let g = Database.graph db in
    if json then
      Printf.printf
        "{\"scheme\":\"%s\",\"branches\":%d,\"versions\":%d,\
         \"dataset_bytes\":%d,\"commit_meta_bytes\":%d,\"domains\":%d,\
         \"metrics\":%s}\n"
        (Decibel_obs.Obs.json_escape (Database.scheme_of db))
        (Vg.branch_count g) (Vg.version_count g)
        (Database.dataset_bytes db)
        (Database.commit_meta_bytes db)
        (Decibel_par.Par.domain_count ())
        (Database.metrics_json db)
    else begin
      Printf.printf "scheme:        %s\n" (Database.scheme_of db);
      Printf.printf "schema:        %s\n"
        (Format.asprintf "%a" Schema.pp (Database.schema db));
      Printf.printf "branches:      %d\n" (Vg.branch_count g);
      Printf.printf "versions:      %d\n" (Vg.version_count g);
      Printf.printf "data bytes:    %d\n" (Database.dataset_bytes db);
      Printf.printf "commit bytes:  %d\n" (Database.commit_meta_bytes db);
      Printf.printf "scan domains:  %d (DECIBEL_DOMAINS to change)\n"
        (Decibel_par.Par.domain_count ());
      let snap = Database.metrics db in
      List.iter
        (fun (name, v) -> if v > 0 then Printf.printf "%-32s %d\n" name v)
        snap.Decibel_obs.Obs.counters
    end
  in
  let run dir json watch count =
    wrap (fun () ->
        match watch with
        | None -> with_repo dir (fun db -> print_stats db json)
        | Some secs ->
            (* each refresh reopens the repository, so an external
               writer's committed state shows up between ticks *)
            let prev = ref (Decibel_obs.Obs.snapshot ()) in
            let tick n =
              print_string "\027[H\027[2J";
              with_repo dir (fun db -> print_stats db json);
              let snap = Decibel_obs.Obs.snapshot () in
              let deltas =
                List.filter
                  (fun (_, d) -> d <> 0)
                  (Decibel_obs.Obs.counters_diff !prev snap)
              in
              prev := snap;
              if deltas <> [] then begin
                Printf.printf "-- counter deltas since last refresh --\n";
                List.iter
                  (fun (k, d) -> Printf.printf "%-32s +%d\n" k d)
                  deltas
              end;
              Printf.printf "[refresh %d, every %gs; ctrl-c to stop]\n%!" n
                secs
            in
            let n = ref 0 in
            let more () = count <= 0 || !n < count in
            while more () do
              Stdlib.incr n;
              tick !n;
              if more () then Unix.sleepf (Float.max 0.01 secs)
            done)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Repository statistics.")
    Term.(const run $ dir_arg $ json_flag $ watch_opt $ count_opt)

let inspect_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the storage report as one JSON object.")
  in
  let run dir json =
    wrap (fun () ->
        with_repo dir (fun db ->
            let r = Database.storage_report db in
            if json then
              print_endline (Decibel_obs.Report.to_json r)
            else print_string (Decibel_obs.Report.to_text r)))
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "ANALYZE-style storage introspection: per-branch live/dead tuple \
          counts, bitmap density, commit-delta chains, per-segment \
          fragmentation, version-graph shape and buffer-pool residency.")
    Term.(const run $ dir_arg $ json_flag)

let advise_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the recommendations as one JSON array.")
  in
  let run dir json =
    wrap (fun () ->
        with_repo dir (fun db ->
            let recs = Database.advise db in
            if json then print_endline (Decibel_obs.Advisor.to_json recs)
            else print_string (Decibel_obs.Advisor.to_text recs)))
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Storage advisor: join the per-branch workload statistics \
          (read/write rates, delta fragments replayed) with the storage \
          report through the recreation/storage cost model and print \
          ranked, explained recommendations — materialize a hot \
          delta-chained branch, compact a fragmented segment, gc dead \
          space, rechunk a long cold chain.")
    Term.(const run $ dir_arg $ json_flag)

let health_cmd =
  let json_flag =
    Arg.(
      value & flag & info [ "json" ] ~doc:"Emit the status as one JSON object.")
  in
  let run dir json =
    let level = ref 0 in
    let rc =
      wrap (fun () ->
          with_repo dir (fun db ->
              let module W = Decibel_obs.Watchdog in
              let st = Database.health_tick db in
              if json then print_endline (W.to_json st)
              else print_string (W.to_text st);
              level :=
                (match st.W.st_level with
                | W.L_ok -> 0
                | W.L_warn -> 1
                | W.L_critical -> 2)))
    in
    if rc <> 0 then rc else !level
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run one health-watchdog evaluation (dead-space ratios, \
          delta-chain depths, hot replay cost, quarantined branches) and \
          print the verdict.  Exits 0 when ok, 1 on warnings, 2 when \
          critical.")
    Term.(const run $ dir_arg $ json_flag)

let maint_cmd =
  let kind_opt =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("compact", Engine_intf.M_compact);
                  ("materialize", Engine_intf.M_materialize);
                  ("gc", Engine_intf.M_gc);
                ]))
          None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Run one explicit task instead of an advisor-driven pass: \
             $(b,compact) a segment, $(b,materialize) a branch, or \
             $(b,gc) dead heap space.")
  in
  let target_opt =
    Arg.(
      value & opt string ""
      & info [ "target" ] ~docv:"TARGET"
          ~doc:
            "What the task rewrites: a branch name for materialize, a \
             segment file for compact.  GC picks its own target when \
             empty.")
  in
  let json_flag =
    Arg.(
      value & flag & info [ "json" ] ~doc:"Emit the results as a JSON array.")
  in
  let run dir kind target json =
    wrap (fun () ->
        with_repo dir (fun db ->
            let results =
              match kind with
              | None -> Database.maintenance_tick db
              | Some kind -> (
                  match Database.run_maintenance db ~kind ~target with
                  | Some m -> [ m ]
                  | None -> [])
            in
            if json then begin
              let item (m : Database.maint_result) =
                Printf.sprintf
                  "{\"kind\":\"%s\",\"target\":\"%s\",\"bytes_reclaimed\":%d}"
                  (Obs.json_escape m.Database.m_kind)
                  (Obs.json_escape m.Database.m_target)
                  m.Database.m_reclaimed
              in
              print_endline
                ("[" ^ String.concat "," (List.map item results) ^ "]")
            end
            else if results = [] then print_endline "nothing to do"
            else
              List.iter
                (fun (m : Database.maint_result) ->
                  Printf.printf "%s %s: reclaimed %d bytes\n"
                    m.Database.m_kind
                    (if m.Database.m_target = "" then "store"
                     else m.Database.m_target)
                    m.Database.m_reclaimed)
                results))
  in
  Cmd.v
    (Cmd.info "maint"
       ~doc:
         "Run crash-safe maintenance: compact fragmented segments, \
          materialize hot delta-chained branches, reclaim dead heap \
          space.  Without $(b,--kind), runs one advisor-driven pass \
          (every current recommendation).  Each task is journaled to \
          maint.jsonl and fingerprint-checked against the \
          pre-maintenance contents, so a crash at any point leaves \
          either the old or the new state — never a torn hybrid.")
    Term.(const run $ dir_arg $ kind_opt $ target_opt $ json_flag)

let fsck_cmd =
  let repair_flag =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Fix the mechanically safe problems: remove stale temp files \
             from interrupted atomic renames, truncate a torn \
             write-ahead-log tail to its intact prefix, and finish or \
             roll back maintenance tasks left pending in the maint.jsonl \
             journal (reclaiming orphaned rewrite files).  Checkpoint \
             checksum failures are only ever reported.")
  in
  let migrate_flag =
    Arg.(
      value & flag
      & info [ "migrate" ]
          ~doc:
            "Upgrade a segment-format-v1 (pre-columnar) repository to the \
             columnar v2 layout, the only one Decibel opens.  Every v1 \
             record is checksum-verified before anything is replaced; \
             corrupt input is reported as $(i,cannot migrate) and left \
             untouched.  The upgrade is crash-atomic: rerunning after an \
             interruption finishes or restarts it.  Row order is \
             preserved so every persisted locator stays valid; a \
             repository already on v2 is untouched.")
  in
  let json_flag =
    Arg.(
      value & flag & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let run dir repair migrate json =
    let code = ref 0 in
    let rc =
      wrap (fun () ->
          let r = Fsck.run ~repair ~migrate ~dir () in
          if json then print_endline (Fsck.to_json r)
          else print_string (Fsck.to_text r);
          if not (Fsck.clean r) then code := 1)
    in
    if rc <> 0 then rc else !code
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check repository integrity: manifest trailer checksum, per-record \
          heap and segment checksums, commit-locator cross-references, \
          stale temp files and torn write-ahead-log tails.  Exits non-zero \
          if any problem is found (repaired or not).  With $(b,--migrate), \
          first upgrades a v1-format repository to the columnar v2 \
          segment layout; without it a v1 repository is reported as \
          needing the upgrade.")
    Term.(const run $ dir_arg $ repair_flag $ migrate_flag $ json_flag)

let () =
  let info =
    Cmd.info "decibel" ~version:"1.0.0"
      ~doc:
        "Relational dataset branching: branch, commit, diff and merge tables \
         like code."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            init_cmd; insert_cmd; update_cmd; delete_cmd; commit_cmd;
            branch_cmd; scan_cmd; diff_cmd; merge_cmd; log_cmd; branches_cmd;
            sql_cmd; query_cmd; stats_cmd; inspect_cmd; advise_cmd;
            health_cmd; maint_cmd; fsck_cmd;
          ]))
