(** Crash-torture harness.

    Runs a scripted branch/insert/commit/merge workload against a
    durable database and kills it — via the {!Decibel_fault.Failpoint}
    registry — at every failpoint site the workload crosses, at the
    first, middle and last crossing of each, with plain raises and
    (at the write sites) torn short writes.  After each induced crash
    the repository is fsck'd with repair, reopened, and the recovered
    state is checked against an oracle: the in-memory {!Model} engine
    replayed to exactly the prefix of operations the recovered WAL
    marker says survived.  The remaining operations are then re-applied
    and the final state must equal the full-workload oracle.

    Site enumeration is not hard-coded: a clean dry run records the
    failpoint census, so a new instrumented site in the storage layer
    is tortured automatically the next time the harness runs.

    Shared by [test/test_crash.ml] (assert: zero failures per scheme)
    and [bench --only crash] (report: case table plus fsck summary). *)

open Decibel_storage
module Vg = Decibel_graph.Version_graph
module Failpoint = Decibel_fault.Failpoint

let schema = Schema.ints ~name:"torture" ~width:3

let row k a = [| Value.int k; Value.int a; Value.int 0 |]

type op =
  | Insert of string * int * int  (** branch, key, payload *)
  | Update of string * int * int
  | Delete of string * int
  | Commit of string
  | Branch of string * string  (** new name, from branch *)
  | Merge of string * string  (** into, from *)
  | Flush  (** checkpoint: manifest write + WAL truncation *)
  | Maint  (** run every applicable maintenance task (gc + materialize) *)

(* every op except Flush and Maint appends exactly one WAL entry, so
   the number of logged ops completed is exactly the recovered WAL
   marker (maintenance rewrites physical layout, never content) *)
let logged = function Flush | Maint -> false | _ -> true

(* The default scripted workload: two branch points, two three-way
   merges (disjoint key sets, so the outcome is deterministic), inserts
   and deletes on both sides, and mid-run checkpoints so crashes land
   both before and after a manifest write. *)
let default_workload =
  [
    Insert ("master", 1, 10);
    Insert ("master", 2, 20);
    Commit "master";
    Branch ("dev", "master");
    Insert ("dev", 3, 30);
    Update ("dev", 1, 11);
    Commit "dev";
    Flush;
    Insert ("master", 4, 40);
    Delete ("master", 2);
    Commit "master";
    Branch ("feat", "dev");
    Insert ("feat", 5, 50);
    Commit "feat";
    Merge ("dev", "feat");
    Flush;
    Update ("master", 4, 41);
    Commit "master";
    Merge ("master", "dev");
    Insert ("master", 6, 60);
    Commit "master";
    Flush;
  ]

let apply db op =
  let b name = Database.branch_named db name in
  match op with
  | Insert (br, k, v) -> Database.insert db (b br) (row k v)
  | Update (br, k, v) -> Database.update db (b br) (row k v)
  | Delete (br, k) -> Database.delete db (b br) (Value.int k)
  | Commit br -> ignore (Database.commit db (b br) ~message:"torture")
  | Branch (name, from) ->
      ignore (Database.branch_from db ~name ~of_branch:(b from))
  | Merge (into, from) ->
      ignore
        (Database.merge db ~into:(b into) ~from:(b from)
           ~policy:Types.Three_way ~message:"torture")
  | Flush -> Database.flush db
  | Maint ->
      (* scheme-agnostic: GC lets the engine pick its own target
         (tuple-first whole-heap rewrite, hybrid's most fragmented
         sealed segment); materialize is offered per active branch
         (version-first delta chains).  Engines answer [None] for
         whatever does not apply. *)
      ignore (Database.run_maintenance db ~kind:Engine_intf.M_gc ~target:"");
      List.iter
        (fun (br : Vg.branch) ->
          if br.Vg.active then
            ignore
              (Database.run_maintenance db ~kind:Engine_intf.M_materialize
                 ~target:br.Vg.name))
        (Vg.branches (Database.graph db))

(* Full observable state: every active branch's contents, sorted. *)
let state_of db =
  Vg.branches (Database.graph db)
  |> List.filter (fun (br : Vg.branch) -> br.Vg.active)
  |> List.map (fun (br : Vg.branch) ->
         ( br.Vg.name,
           List.sort compare
             (List.map Array.to_list (Database.scan_list db br.Vg.bid)) ))
  |> List.sort compare

(* oracle_states.(m) = state after the first m *logged* ops (Flush does
   not change contents, so indexing by logged count is unambiguous) *)
let oracle_states ~dir workload =
  let o =
    Database.open_ ~scheme:Database.Model
      ~dir:(Filename.concat dir "oracle") ~schema ()
  in
  let states = ref [ state_of o ] in
  List.iter
    (fun op ->
      apply o op;
      if logged op then states := state_of o :: !states)
    workload;
  Database.close o;
  Array.of_list (List.rev !states)

(* Maintenance-concurrent schedule: enough updates/deletes after
   commits and branch points to leave dead heap rows (tuple-first GC),
   multi-commit delta chains (version-first materialize) and fragmented
   sealed segments (hybrid compact), with writer ops continuing between
   and after the [Maint] steps so crashes land mid-rewrite with dirty
   state on both sides. *)
let maint_workload =
  [
    (* pre-commit churn: the row holding 9 is superseded before the
       first commit, so no checkout ever references it — dead heap
       space only maintenance can reclaim *)
    Insert ("master", 1, 9);
    Insert ("master", 2, 20);
    Update ("master", 1, 10);
    Insert ("master", 3, 30);
    Commit "master";
    (* hybrid: branching off a clean head freezes master's head
       segment, turning the dead row into non-head fragmentation *)
    Branch ("dev", "master");
    Update ("dev", 1, 11);
    Update ("dev", 2, 21);
    Commit "dev";
    Update ("dev", 1, 12);
    Commit "dev";
    Update ("master", 3, 31);
    Delete ("master", 2);
    Commit "master";
    Flush;
    Maint;
    Insert ("dev", 4, 39);
    Update ("dev", 4, 40);
    Update ("dev", 1, 13);
    Commit "dev";
    Update ("master", 1, 14);
    Commit "master";
    Maint;
    Insert ("master", 5, 50);
    Commit "master";
    Flush;
  ]

(* Clean dry run, counting how often the workload crosses each
   failpoint site (arming happens after open, so repository creation
   is excluded — torturing a half-created repository is a different,
   less interesting failure than crashing a live one). *)
let discover_sites ~dir scheme workload =
  Failpoint.disarm_all ();
  let db = Database.open_ ~durable:true ~scheme ~dir ~schema () in
  Failpoint.reset_census ();
  List.iter (apply db) workload;
  let sites = Failpoint.sites () in
  Database.close db;
  sites

(* sites where an armed failure can leave a partial (torn) write *)
let tearable =
  [ "wal.append"; "heap.flush"; "manifest.write_tmp"; "maint.journal.append" ]

(* sites whose failures are absorbed by bounded retry *)
let retryable = [ "wal.sync"; "heap.flush"; "manifest.write_tmp" ]

type case = {
  c_site : string;
  c_occurrence : int;  (** which crossing of the site was armed *)
  c_action : string;  (** ["raise"] or ["torn"] *)
  c_fired : bool;
  c_marker : int;  (** recovered WAL marker (logged ops surviving) *)
  c_fsck_findings : int;  (** findings repaired before recovery *)
  c_ok : bool;
  c_detail : string;  (** failure explanation, [""] when ok *)
}

type summary = {
  s_scheme : string;
  s_cases : case list;
  s_failures : int;
  s_sites : (string * int) list;  (** census of the dry run *)
}

let describe_mismatch label expected got =
  let show st =
    String.concat "; "
      (List.map
         (fun (b, rows) -> Printf.sprintf "%s:%d rows" b (List.length rows))
         st)
  in
  Printf.sprintf "%s mismatch: expected [%s] got [%s]" label (show expected)
    (show got)

let run_case ~dir ~scheme ~workload ~states ~site ~occurrence ~action =
  let action_name, fp_action =
    match action with
    | `Raise -> ("raise", Failpoint.Raise)
    | `Torn -> ("torn", Failpoint.Torn 0.5)
  in
  Failpoint.disarm_all ();
  let db = Database.open_ ~durable:true ~scheme ~dir ~schema () in
  Failpoint.reset_census ();
  Failpoint.arm ~action:fp_action site (Failpoint.After_hits occurrence);
  let fired = ref false in
  (try List.iter (apply db) workload
   with Failpoint.Fault_injected _ -> fired := true);
  (* an injected fault can be absorbed on purpose (e.g. a post-commit
     maintenance-journal append swallows its own failure and leaves
     the journal to recovery), so the census — not just an escaped
     exception — decides whether the armed crossing was reached *)
  if Failpoint.hits site >= occurrence then fired := true;
  Failpoint.disarm_all ();
  Database.crash db;
  (* repair what is mechanically repairable (torn WAL tail, stale temp
     files), then recover *)
  let fsck1 = Fsck.run ~repair:true ~dir () in
  let findings = List.length fsck1.Fsck.findings in
  let fail detail =
    {
      c_site = site;
      c_occurrence = occurrence;
      c_action = action_name;
      c_fired = !fired;
      c_marker = -1;
      c_fsck_findings = findings;
      c_ok = false;
      c_detail = detail;
    }
  in
  match Database.reopen ~dir () with
  | exception e -> fail (Printf.sprintf "reopen raised %s" (Printexc.to_string e))
  | db2 ->
      let marker = Database.wal_marker db2 in
      let total = Array.length states - 1 in
      let result =
        if marker < 0 || marker > total then
          fail (Printf.sprintf "recovered marker %d out of range" marker)
        else begin
          let recovered = state_of db2 in
          if recovered <> states.(marker) then
            fail
              (describe_mismatch
                 (Printf.sprintf "recovered state (marker %d)" marker)
                 states.(marker) recovered)
          else begin
            (* re-apply the ops the crash swallowed and demand the full
               oracle state *)
            let cnt = ref 0 in
            let remaining =
              List.filter
                (fun op ->
                  if logged op then incr cnt;
                  !cnt > marker)
                workload
            in
            match List.iter (apply db2) remaining with
            | exception e ->
                fail
                  (Printf.sprintf "resume after marker %d raised %s" marker
                     (Printexc.to_string e))
            | () ->
                let final = state_of db2 in
                if final <> states.(total) then
                  fail (describe_mismatch "final state" states.(total) final)
                else
                  {
                    c_site = site;
                    c_occurrence = occurrence;
                    c_action = action_name;
                    c_fired = !fired;
                    c_marker = marker;
                    c_fsck_findings = findings;
                    c_ok = true;
                    c_detail = "";
                  }
          end
        end
      in
      (try Database.close db2 with _ -> ());
      if result.c_ok then begin
        (* a recovered-and-closed repository must be spotless *)
        let fsck2 = Fsck.run ~dir () in
        if Fsck.clean fsck2 then result
        else
          {
            result with
            c_ok = false;
            c_detail =
              "post-recovery fsck: "
              ^ String.concat "; "
                  (List.map
                     (fun f -> f.Fsck.artifact ^ ": " ^ f.Fsck.problem)
                     fsck2.Fsck.findings);
          }
      end
      else result

(* occurrences to torture for a site crossed [c] times: first, middle,
   last (deduplicated for small [c]) *)
let occurrences c = List.sort_uniq compare [ 1; ((c + 1) / 2); c ]

let torture ?(workload = default_workload) ?site_prefix ?(tag = "") ~root
    scheme =
  let scheme_name = Database.scheme_name scheme in
  (* [tag] namespaces the scratch dirs so two torture runs over the
     same root (e.g. default then maintenance) never share an oracle
     or dry-run repository *)
  let base =
    Filename.concat root
      (if tag = "" then scheme_name else scheme_name ^ "-" ^ tag)
  in
  let states = oracle_states ~dir:(Filename.concat base "oracle") workload in
  let sites =
    discover_sites ~dir:(Filename.concat base "dry") scheme workload
  in
  let tortured =
    match site_prefix with
    | None -> sites
    | Some p ->
        List.filter (fun (site, _) -> String.starts_with ~prefix:p site) sites
  in
  let case_no = ref 0 in
  let cases =
    List.concat_map
      (fun (site, count) ->
        List.concat_map
          (fun occurrence ->
            let actions =
              if List.mem site tearable then [ `Raise; `Torn ] else [ `Raise ]
            in
            List.map
              (fun action ->
                incr case_no;
                let dir =
                  Filename.concat base (Printf.sprintf "case%d" !case_no)
                in
                let c =
                  run_case ~dir ~scheme ~workload ~states ~site ~occurrence
                    ~action
                in
                Decibel_util.Fsutil.rm_rf dir;
                c)
              actions)
          (occurrences count))
      tortured
  in
  Failpoint.disarm_all ();
  {
    s_scheme = scheme_name;
    s_cases = cases;
    s_failures = List.length (List.filter (fun c -> not c.c_ok) cases);
    s_sites = sites;
  }

(* Maintenance crash-torture: run the maintenance-heavy schedule and
   kill only at the maint.* sites — the generic torture above already
   covers the wal/heap/manifest sites that schedule also crosses. *)
let maint_sites =
  [
    "maint.journal.append";
    "maint.plan";
    "maint.rewrite";
    "maint.commit";
    "maint.swap";
  ]

let maint_torture ~root scheme =
  torture ~workload:maint_workload ~site_prefix:"maint." ~tag:"maint" ~root
    scheme

(* Transient-fault check: a single transient failure at each retryable
   site must be absorbed by bounded retry — the workload completes and
   the final state equals the oracle. *)
let transient_check ?(workload = default_workload) ~root scheme =
  let base = Filename.concat root (Database.scheme_name scheme ^ "-transient") in
  let states = oracle_states ~dir:(Filename.concat base "oracle") workload in
  let total = Array.length states - 1 in
  List.map
    (fun site ->
      let dir = Filename.concat base site in
      Failpoint.disarm_all ();
      let db = Database.open_ ~durable:true ~scheme ~dir ~schema () in
      Failpoint.arm ~action:Failpoint.Transient site (Failpoint.After_hits 1);
      let outcome =
        match List.iter (apply db) workload with
        | exception e -> Printf.sprintf "raised %s" (Printexc.to_string e)
        | () -> if state_of db = states.(total) then "" else "state mismatch"
      in
      Failpoint.disarm_all ();
      (try Database.close db with _ -> ());
      Decibel_util.Fsutil.rm_rf dir;
      (site, outcome))
    retryable
