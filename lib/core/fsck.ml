(** Offline repository checker ([decibel fsck]).

    Walks a persisted repository without mutating it and reports every
    integrity problem it can find: a manifest whose trailer checksum
    does not match, stale temp files left by a crash mid-rename, a
    write-ahead log with a torn tail, per-record heap and segment
    checksum failures, and dangling commit-locator cross-references
    (the engine-side checks behind {!Database.verify}).

    With [~repair:true] it additionally fixes the two problems that
    have a mechanical, information-preserving remedy: stale [*.tmp]
    files are removed (the rename never happened, so the manifest on
    disk is the authoritative one) and a torn WAL tail is truncated to
    its intact prefix (replay would stop there anyway; truncating makes
    the log clean for future appends).  Checksum failures inside the
    checkpoint itself are reported but never "repaired" — there is no
    redundant copy to restore from, and deleting data silently would be
    worse than refusing. *)

module Obs = Decibel_obs.Obs

let c_runs = Obs.counter "fsck.runs"
let c_findings = Obs.counter "fsck.findings"

type finding = {
  artifact : string;  (** file or object the problem is in *)
  problem : string;
  repaired : bool;
}

type maint_fix = {
  mf_kind : string;  (** "compact" | "materialize" | "gc" *)
  mf_target : string;
  mf_action : string;  (** "finished" | "rolled_back" | "pending" *)
  mf_removed : string list;  (** orphaned rewrite files deleted *)
}

type report = {
  dir : string;
  scheme : string option;  (** detected scheme, if a manifest was found *)
  findings : finding list;
  maint : maint_fix list;  (** interrupted maintenance tasks resolved *)
}

let clean r = r.findings = []

let wal_path dir = Filename.concat dir "wal.log"

(* Stale temp files: an atomic manifest write that crashed between
   writing [*.tmp] and renaming it over the target.  The target is
   still the last complete manifest, so the temp is garbage. *)
let check_tmp_files ~repair dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun name ->
         if Filename.check_suffix name ".tmp" then begin
           let repaired =
             repair
             &&
             (try
                Sys.remove (Filename.concat dir name);
                true
              with Sys_error _ -> false)
           in
           Some
             { artifact = name; problem = "stale temp file"; repaired }
         end
         else None)

(* Torn WAL tail: bytes past the last intact frame. *)
let check_wal ~repair dir =
  let path = wal_path dir in
  if not (Sys.file_exists path) then []
  else begin
    let data = Decibel_util.Binio.read_file path in
    let intact = Wal.intact_bytes ~path in
    let total = String.length data in
    if intact >= total then []
    else begin
      let repaired =
        repair
        &&
        (try
           Decibel_util.Binio.write_file path (String.sub data 0 intact);
           true
         with Sys_error _ -> false)
      in
      [
        {
          artifact = "wal.log";
          problem =
            Printf.sprintf "torn tail: %d of %d bytes intact" intact total;
          repaired;
        };
      ]
    end
  end

(* Interrupted maintenance: the maint.jsonl intent log records every
   compaction / materialization / GC from [Begin] to a terminal
   status.  A non-terminal task means the process died mid-rewrite;
   the checkpoint manifest decides which side won (new files all
   referenced -> the swap committed, finish by reclaiming old files;
   otherwise -> roll back by deleting the orphaned rewrite output).
   Report-only unless [repair]. *)
let check_maint ~repair ?pool dir =
  let module J = Decibel_maint.Journal in
  if J.pending (J.load dir) = [] then ([], [])
  else begin
    match Database.reopen_checkpoint ?pool ~dir () with
    | exception _ ->
        ( [
            {
              artifact = Filename.basename (J.path dir);
              problem =
                "pending maintenance task, but the checkpoint is unreadable";
              repaired = false;
            };
          ],
          [] )
    | db ->
        let resolutions =
          Fun.protect
            ~finally:(fun () -> Database.close db)
            (fun () -> Database.resolve_maintenance ~dry_run:(not repair) db)
        in
        let fixes =
          List.map
            (fun (r : Database.maint_resolution) ->
              {
                mf_kind = r.Database.mr_kind;
                mf_target = r.Database.mr_target;
                mf_action =
                  (if not repair then "pending"
                   else
                     match r.Database.mr_action with
                     | `Finished -> "finished"
                     | `Rolled_back -> "rolled_back");
                mf_removed = r.Database.mr_removed;
              })
            resolutions
        in
        let findings =
          List.map
            (fun (r : Database.maint_resolution) ->
              {
                artifact = Filename.basename (J.path dir);
                problem =
                  Printf.sprintf "interrupted %s of %s (%s%s)"
                    r.Database.mr_kind
                    (if r.Database.mr_target = "" then "store"
                     else r.Database.mr_target)
                    (match r.Database.mr_action with
                    | `Finished -> "swap committed: reclaim old files"
                    | `Rolled_back -> "swap not committed: roll back")
                    (match r.Database.mr_removed with
                    | [] -> ""
                    | fs -> "; orphans: " ^ String.concat " " fs);
                repaired = repair;
              })
            resolutions
        in
        (findings, fixes)
  end

(* Engine-side checks: open the last checkpoint read-only and run the
   engine's own verify (manifest trailer, record checksums, locator
   cross-references). *)
let check_engine ?pool dir =
  match Database.reopen_checkpoint ?pool ~dir () with
  | exception Decibel_util.Binio.Corrupt msg ->
      ( None,
        [ { artifact = "manifest"; problem = msg; repaired = false } ] )
  | exception Types.Engine_error msg ->
      (None, [ { artifact = dir; problem = msg; repaired = false } ])
  | db ->
      let scheme = Database.scheme_of db in
      let findings =
        List.map
          (fun (artifact, problem) -> { artifact; problem; repaired = false })
          (Database.verify db)
      in
      Database.close db;
      (Some scheme, findings)

(* Format upgrade: the offline, crash-atomic v1 → v2 rewrite.  Every
   v1 record is checksum-verified and strictly decoded before the
   commit point, so corrupt v1 data is reported ("cannot migrate")
   with the repository left as it was, never laundered into a fresh v2
   file.  A rerun after a crash finishes or restarts the upgrade. *)
let migrate_repo ?pool dir =
  let cannot msg =
    [ { artifact = dir; problem = "cannot migrate: " ^ msg; repaired = false } ]
  in
  match Database.upgrade_v1 ?pool ~dir () with
  | false -> []
  | true ->
      [
        {
          artifact = dir;
          problem = "segment format v1 (pre-columnar)";
          repaired = true;
        };
      ]
  | exception Decibel_util.Binio.Corrupt msg -> cannot msg
  | exception Types.Engine_error msg -> cannot msg
  | exception Sys_error msg -> cannot msg

let run ?(repair = false) ?(migrate = false) ?pool ~dir () =
  Obs.incr c_runs;
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    {
      dir;
      scheme = None;
      findings =
        [ { artifact = dir; problem = "no such directory"; repaired = false } ];
      maint = [];
    }
  else begin
    (* upgrade first: it sweeps its own staged files, and the checks
       below then inspect the v2 result *)
    let migration = if migrate then migrate_repo ?pool dir else [] in
    let tmp = check_tmp_files ~repair dir in
    let wal = check_wal ~repair dir in
    (* resolve interrupted maintenance before the engine check so a
       repaired repository verifies against its settled file set *)
    let mfind, maint = check_maint ~repair ?pool dir in
    let scheme, engine = check_engine ?pool dir in
    let findings = migration @ tmp @ wal @ mfind @ engine in
    Obs.add c_findings (List.length findings);
    if findings <> [] then
      Obs.event ~level:Obs.Warn ~comp:"fsck"
        (Printf.sprintf "%s: %d finding(s)" dir (List.length findings));
    { dir; scheme; findings; maint }
  end

let to_text r =
  let buf = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "fsck %s (%s)\n" r.dir
    (Option.value ~default:"scheme undetected" r.scheme);
  if clean r then pf "  clean: no errors found\n"
  else
    List.iter
      (fun f ->
        pf "  %s: %s%s\n" f.artifact f.problem
          (if f.repaired then "  [repaired]" else ""))
      r.findings;
  List.iter
    (fun m ->
      pf "  maintenance %s of %s: %s%s\n" m.mf_kind
        (if m.mf_target = "" then "store" else m.mf_target)
        m.mf_action
        (match m.mf_removed with
        | [] -> ""
        | fs -> "  (removed " ^ String.concat " " fs ^ ")"))
    r.maint;
  Buffer.contents buf

let to_json r =
  let esc = Obs.json_escape in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"dir\":\"%s\",\"scheme\":%s,\"clean\":%b,\"findings\":["
       (esc r.dir)
       (match r.scheme with
       | Some s -> Printf.sprintf "\"%s\"" (esc s)
       | None -> "null")
       (clean r));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"artifact\":\"%s\",\"problem\":\"%s\",\"repaired\":%b}"
           (esc f.artifact) (esc f.problem) f.repaired))
    r.findings;
  Buffer.add_string buf "],\"maint\":[";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"kind\":\"%s\",\"target\":\"%s\",\"action\":\"%s\",\"removed\":[%s]}"
           (esc m.mf_kind) (esc m.mf_target) (esc m.mf_action)
           (String.concat ","
              (List.map (fun f -> Printf.sprintf "\"%s\"" (esc f)) m.mf_removed))))
    r.maint;
  Buffer.add_string buf "]}";
  Buffer.contents buf
