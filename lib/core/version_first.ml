(** Version-first storage (paper §3.3).

    Each branch's modifications are appended to that branch's own head
    segment; a child segment records, for each parent segment, the row
    index of the branch point, so anything the parent writes afterwards
    is invisible to the child.  A branch's contents are the records
    reachable through this chain of segments, newest copy of each
    primary key winning.  Deletes append tombstones because a record
    physically present in an ancestor segment cannot be removed.

    Segments are columnar {!Decibel_storage.Col_segment}s addressed by
    dense row index.  Branch points, commit locators and the key index
    all speak rows.

    Scan order: the paper scans segments so that descendants are read
    before ancestors (reverse topological order, §3.3 “Multi-branch
    Scan”), with ties broken by parent precedence; within one segment,
    records are read newest-first.  The first copy of a key seen wins.

    Merges create a fresh head segment whose parents are both merged
    heads.  Keys changed only in the destination branch resolve lazily
    through scan order; keys changed in the source branch (or in both)
    have their decided states materialized into the merge segment so
    they dominate any stale copies in either lineage. *)

open Decibel_util
open Decibel_storage
open Decibel_index
open Types
module Vg = Decibel_graph.Version_graph
module Obs = Decibel_obs.Obs
module Workload = Decibel_obs.Workload
module Par = Decibel_par.Par
module Gctx = Decibel_governor.Governor.Ctx

(* same engine.* names as the other schemes: Obs interns by name, so
   all engines feed the shared counters *)
let c_scan_tuples = Obs.counter "engine.scan.tuples"
let c_scan_pages = Obs.counter "engine.scan.pages"
let c_scan_segments = Obs.counter "engine.scan.segments"
let c_multi_scan_tuples = Obs.counter "engine.multi_scan.tuples"
let c_diff_tuples = Obs.counter "engine.diff.tuples"
let c_commits = Obs.counter "engine.commits"
let c_merges = Obs.counter "engine.merges"
let sp_scan = "version_first.scan"
let sp_scan_filtered = "version_first.scan_filtered"
let sp_scan_version = "version_first.scan_version"
let sp_multi_scan = "version_first.multi_scan"
let sp_diff = "version_first.diff"
let sp_merge = "version_first.merge"
let sp_commit = "version_first.commit"

type segment = {
  seg_id : int;
  seg : Col_segment.t;
  parents : (int * int) list; (* (segment, branch-point row), precedence *)
}

type t = {
  dir : string;
  pool : Buffer_pool.t;
  schema : Schema.t;
  compress : bool;
  graph : Vg.t;
  segments : segment Vec.t;
  head_seg : int Vec.t; (* branch -> its current head segment *)
  pk : (int * int) Pk_index.t; (* branch -> key -> (segment, row) *)
  commits : (version_id, int * int) Hashtbl.t; (* version -> (seg, upto row) *)
  dirty : (branch_id, bool) Hashtbl.t;
  mutable wal_marker : int; (* last WAL LSN reflected here *)
  mutable closed : bool;
}

let scheme = "version-first"

let record_key schema = function
  | Col_segment.Live tuple -> Tuple.pk schema tuple
  | Col_segment.Tombstone key -> key

let segment t id = Vec.get t.segments id
let seg_dummy = { seg_id = -1; seg = Obj.magic `never_dereferenced; parents = [] }

let seg_file_path dir seg_id =
  Filename.concat dir (Printf.sprintf "seg_%d.dat" seg_id)

let new_segment t parents =
  let seg_id = Vec.length t.segments in
  let path = seg_file_path t.dir seg_id in
  let seg =
    Col_segment.create_v2 ~pool:t.pool ~schema:t.schema ~compress:t.compress
      ~path
  in
  let s = { seg_id; seg; parents } in
  let _ = Vec.push t.segments s in
  s

let create ~compress ~dir ~pool ~schema =
  Fsutil.mkdir_p dir;
  let t =
    {
      dir;
      pool;
      schema;
      compress;
      graph = Vg.create ();
      (* the dummy fills unused Vec capacity only and is never read;
         its segment handle is a placeholder that no code path touches *)
      segments = Vec.create ~dummy:seg_dummy ();
      head_seg = Vec.create ~dummy:(-1) ();
      pk = Pk_index.create ();
      commits = Hashtbl.create 64;
      dirty = Hashtbl.create 16;
      wal_marker = 0;
      closed = false;
    }
  in
  let s0 = new_segment t [] in
  let _ = Vec.push t.head_seg s0.seg_id in
  let _ = Pk_index.add_branch t.pk ~from:None in
  Hashtbl.replace t.commits Vg.root_version (s0.seg_id, 0);
  t

let schema t = t.schema
let graph t = t.graph

let is_dirty t b = Hashtbl.find_opt t.dirty b = Some true
let set_dirty t b v = Hashtbl.replace t.dirty b v

(* Scan plan from a root (segment, upto): every reachable segment with
   the maximum branch-point row over all paths, ordered descendants
   before ancestors, ties broken by precedence-DFS discovery order. *)
let plan t seg0 upto0 =
  let upto_tbl : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let disc : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let next_disc = ref 0 in
  let rec visit seg upto =
    (match Hashtbl.find_opt upto_tbl seg with
    | Some u when u >= upto -> ()
    | _ -> Hashtbl.replace upto_tbl seg upto);
    if not (Hashtbl.mem disc seg) then begin
      Hashtbl.replace disc seg !next_disc;
      incr next_disc;
      (* branch-point rows recorded in parent pointers never change,
         so parents need no re-visit when only [upto] grows *)
      List.iter (fun (p, row) -> visit p row) (segment t seg).parents
    end
  in
  visit seg0 upto0;
  let members = Hashtbl.fold (fun s _ acc -> s :: acc) disc [] in
  (* children-before-parents topological order (Kahn), preferring the
     earliest-discovered ready segment so parent precedence breaks
     ties *)
  let pending : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace pending s 0) members;
  List.iter
    (fun s ->
      List.iter
        (fun (p, _) ->
          match Hashtbl.find_opt pending p with
          | Some n -> Hashtbl.replace pending p (n + 1)
          | None -> ())
        (segment t s).parents)
    members;
  let emitted : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  for _ = 1 to List.length members do
    let best =
      List.fold_left
        (fun acc s ->
          if Hashtbl.mem emitted s || Hashtbl.find pending s <> 0 then acc
          else
            match acc with
            | None -> Some s
            | Some b ->
                if Hashtbl.find disc s < Hashtbl.find disc b then Some s
                else acc)
        None members
    in
    match best with
    | None -> failwith "version-first: cyclic segment graph"
    | Some s ->
        Hashtbl.replace emitted s ();
        order := s :: !order;
        List.iter
          (fun (p, _) ->
            match Hashtbl.find_opt pending p with
            | Some n -> Hashtbl.replace pending p (n - 1)
            | None -> ())
          (segment t s).parents
  done;
  List.rev_map (fun s -> (s, Hashtbl.find upto_tbl s)) !order

(* Core lineage scan: emit each key's winning record once, newest copy
   first within a segment, descendants before ancestors across
   segments.  [f] receives the segment, row and record of each winner
   (tombstone winners mean "deleted here"). *)
let scan_winners ?ctx t seg0 upto0 f =
  let seen : (Value.t, unit) Hashtbl.t = Hashtbl.create 1024 in
  let items = plan t seg0 upto0 in
  if Par.available () && List.length items > 1 then
    (* Branch fragments decode in parallel (the expensive part: block
       read + CRC + decode); the first-writer-wins [seen] filter runs
       serially in plan order over the buffered fragments, so winners
       are exactly the serial ones, in the same order. *)
    let items = Array.of_list items in
    Par.parallel_iter_buffered ?ctx ~n:(Array.length items)
      ~produce:(fun i ->
        let poll = Gctx.poller ctx in
        let sid, upto = items.(i) in
        let s = segment t sid in
        (* the buffered fragment decode is the scheme's big transient
           allocation; bill its extent to the operation's budget *)
        Gctx.charge_current (Col_segment.bytes_upto s.seg upto);
        let acc = ref [] in
        Col_segment.iter_rev ~upto s.seg (fun row rv ->
            poll ();
            acc := (sid, row, rv, record_key t.schema rv) :: !acc);
        List.rev !acc)
      ~consume:
        (List.iter (fun (sid, row, rv, key) ->
             if not (Hashtbl.mem seen key) then begin
               Hashtbl.replace seen key ();
               f sid row rv
             end))
      ()
  else
    let poll = Gctx.poller ctx in
    List.iter
      (fun (sid, upto) ->
        let s = segment t sid in
        Col_segment.iter_rev ~upto s.seg (fun row rv ->
            poll ();
            let key = record_key t.schema rv in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              f sid row rv
            end))
      items

let scan_live ?ctx t seg0 upto0 f =
  scan_winners ?ctx t seg0 upto0 (fun sid row rv ->
      match rv with
      | Col_segment.Live tuple -> f sid row tuple
      | Col_segment.Tombstone _ -> ())

let head_loc t b =
  let sid = Vec.get t.head_seg b in
  (sid, Col_segment.rows (segment t sid).seg)

let commit_loc t vid =
  match Hashtbl.find_opt t.commits vid with
  | Some loc -> loc
  | None -> errorf "version-first: version %d has no commit record" vid

(* Workload accounting mirrors the Prof sites: single-branch scans
   report the exact counts also added to the engine.* counters, so
   per-branch totals reconcile with the globals; multi-branch reads
   leave zero-count touches.  [diff] needs no touch of its own — it is
   implemented as two instrumented scans, which already note reads. *)
let wl_table t = Schema.name t.schema
let wl_branch t b = (Vg.branch t.graph b).Vg.name

let wl_touch t b =
  Workload.note_read ~table:(wl_table t) ~branch:(wl_branch t b) ~scanned:0
    ~emitted:0 ~fragments:0 ()

let wl_write t b =
  if Obs.enabled () then
    Workload.note_write ~table:(wl_table t) ~branch:(wl_branch t b) ()

let commit_impl t b ~message =
  let sid, upto = head_loc t b in
  Col_segment.flush (segment t sid).seg;
  let vid = Vg.commit t.graph b ~message in
  Hashtbl.replace t.commits vid (sid, upto);
  set_dirty t b false;
  vid

let commit t b ~message =
  if not (Obs.enabled ()) then commit_impl t b ~message
  else
    Obs.with_span sp_commit (fun () ->
        Obs.incr c_commits;
        wl_write t b;
        commit_impl t b ~message)

let create_branch t ~name ~from =
  let v = Vg.version t.graph from in
  let parent = v.Vg.on_branch in
  let psid, prow = commit_loc t from in
  let nb =
    try Vg.create_branch t.graph ~name ~from
    with Invalid_argument msg -> errorf "version-first: %s" msg
  in
  let s = new_segment t [ (psid, prow) ] in
  let slot = Vec.push t.head_seg s.seg_id in
  assert (slot = nb);
  if Vg.head t.graph parent = from && not (is_dirty t parent) then begin
    let bid = Pk_index.add_branch t.pk ~from:(Some parent) in
    assert (bid = nb)
  end
  else begin
    (* branching from a historical commit: rebuild the key index by
       scanning that commit's lineage *)
    let bid = Pk_index.add_branch t.pk ~from:None in
    assert (bid = nb);
    scan_live t psid prow (fun sid row tuple ->
        Pk_index.set t.pk ~branch:nb (Tuple.pk t.schema tuple) (sid, row))
  end;
  set_dirty t nb false;
  nb

let validate t tuple =
  match Schema.validate t.schema tuple with
  | Ok () -> ()
  | Error msg -> errorf "version-first: %s" msg

let append t b rv =
  let sid = Vec.get t.head_seg b in
  let row = Col_segment.append (segment t sid).seg rv in
  (sid, row)

let insert t b tuple =
  validate t tuple;
  let key = Tuple.pk t.schema tuple in
  if Pk_index.mem t.pk ~branch:b key then
    errorf "version-first: duplicate key %s in branch %d"
      (Value.to_string key) b;
  let loc = append t b (Col_segment.Live tuple) in
  Pk_index.set t.pk ~branch:b key loc;
  set_dirty t b true;
  wl_write t b

let update t b tuple =
  validate t tuple;
  let key = Tuple.pk t.schema tuple in
  if not (Pk_index.mem t.pk ~branch:b key) then
    errorf "version-first: update of absent key %s" (Value.to_string key);
  let loc = append t b (Col_segment.Live tuple) in
  Pk_index.set t.pk ~branch:b key loc;
  set_dirty t b true;
  wl_write t b

let delete t b key =
  if not (Pk_index.mem t.pk ~branch:b key) then
    errorf "version-first: delete of absent key %s" (Value.to_string key);
  let _ = append t b (Col_segment.Tombstone key) in
  Pk_index.remove t.pk ~branch:b key;
  set_dirty t b true;
  wl_write t b

let fetch t (sid, row) =
  match Col_segment.get (segment t sid).seg row with
  | Col_segment.Live tuple -> tuple
  | Col_segment.Tombstone _ ->
      errorf "version-first: key index points at tombstone"

let lookup t b key =
  Option.map (fetch t) (Pk_index.find t.pk ~branch:b key)

(* Pages a lineage scan reads: for each planned (segment, upto) pair,
   the extent up to the branch point, in buffer-pool pages. *)
let account_plan t sid upto =
  let psz = Buffer_pool.page_size t.pool in
  let p = plan t sid upto in
  List.iter
    (fun (s, u) ->
      let bytes = Col_segment.bytes_upto (segment t s).seg u in
      Obs.add c_scan_pages ((bytes + psz - 1) / psz))
    p;
  Obs.add c_scan_segments (List.length p);
  (* the plan's (segment, upto) pairs are exactly the delta fragments
     this lineage scan replays *)
  Obs.Prof.add Obs.Prof.Delta_fragments (List.length p)

let instrumented_scan ?ctx ?on_emitted span t sid upto f =
  Obs.with_span span (fun () ->
      account_plan t sid upto;
      let n = ref 0 in
      scan_live ?ctx t sid upto (fun _ _ tuple ->
          n := !n + 1;
          f tuple);
      Obs.add c_scan_tuples !n;
      Obs.Prof.add Obs.Prof.Tuples_scanned !n;
      Obs.Prof.add Obs.Prof.Tuples_emitted !n;
      match on_emitted with Some g -> g !n | None -> ())

let scan ?ctx t b f =
  let sid, upto = head_loc t b in
  if not (Obs.enabled ()) then
    scan_live ?ctx t sid upto (fun _ _ tuple -> f tuple)
  else
    let table = wl_table t and branch = wl_branch t b in
    let frags = List.length (plan t sid upto) in
    (* ambient context attributes buffer-pool page traffic during the
       lineage walk to this (table, branch) *)
    Workload.with_context ~table ~branch (fun () ->
        instrumented_scan ?ctx
          ~on_emitted:(fun n ->
            Workload.note_read ~table ~branch ~scanned:n ~emitted:n
              ~fragments:frags ())
          sp_scan t sid upto f)

(* Winners must be resolved before predicates apply: filtering below
   the newest-copy-wins dedup would let a stale copy of a key win when
   its head copy fails the predicate.  So version-first evaluates
   predicates row-wise on winning tuples. *)
let scan_filtered ?ctx t b ~preds f =
  let filter tuple = if Col_pred.eval_tuple preds tuple then f tuple in
  if not (Obs.enabled ()) then
    let sid, upto = head_loc t b in
    scan_live ?ctx t sid upto (fun _ _ tuple -> filter tuple)
  else
    Obs.with_span sp_scan_filtered (fun () ->
        let n = ref 0 in
        scan ?ctx t b (fun tuple ->
            if Col_pred.eval_tuple preds tuple then begin
              n := !n + 1;
              f tuple
            end);
        Obs.Prof.add Obs.Prof.Tuples_emitted !n)

let scan_version ?ctx t vid f =
  let sid, upto = commit_loc t vid in
  if not (Obs.enabled ()) then
    scan_live ?ctx t sid upto (fun _ _ tuple -> f tuple)
  else instrumented_scan ?ctx sp_scan_version t sid upto f

(* Multi-branch scan, per the paper's two-pass scheme (§3.3): pass one
   records each branch's live (segment, row) pairs in hash tables;
   pass two walks the union of segments in storage order emitting each
   live record once with its branch annotations. *)
let multi_scan_impl ?ctx t branches f =
  let ann : (int * int, branch_id list) Hashtbl.t = Hashtbl.create 4096 in
  let segs : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let sid, upto = head_loc t b in
      scan_live ?ctx t sid upto (fun s row _tuple ->
          Hashtbl.replace segs s ();
          let prev = Option.value ~default:[] (Hashtbl.find_opt ann (s, row)) in
          Hashtbl.replace ann (s, row) (b :: prev)))
    branches;
  let seg_ids =
    List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) segs [])
  in
  (* pass 2: [ann] is read-only from here on, so segments decode in
     parallel; buffered fragments are consumed in sorted segment order,
     matching the serial walk *)
  let annotated_of_segment sid =
    let poll = Gctx.poller ctx in
    let s = segment t sid in
    let acc = ref [] in
    Col_segment.iter s.seg (fun row rv ->
        poll ();
        match Hashtbl.find_opt ann (sid, row) with
        | None -> ()
        | Some bs -> (
            match rv with
            | Col_segment.Live tuple ->
                acc := { tuple; in_branches = List.sort compare bs } :: !acc
            | Col_segment.Tombstone _ ->
                errorf "version-first: annotated tombstone"));
    List.rev !acc
  in
  if Par.available () && List.length seg_ids > 1 then
    let seg_ids = Array.of_list seg_ids in
    Par.parallel_iter_buffered ?ctx ~n:(Array.length seg_ids)
      ~produce:(fun i -> annotated_of_segment seg_ids.(i))
      ~consume:(fun l -> List.iter f l)
      ()
  else List.iter (fun sid -> List.iter f (annotated_of_segment sid)) seg_ids

let multi_scan ?ctx t branches f =
  if not (Obs.enabled ()) then multi_scan_impl ?ctx t branches f
  else
    Obs.with_span sp_multi_scan (fun () ->
        List.iter
          (fun b ->
            let sid, upto = head_loc t b in
            Obs.Prof.add Obs.Prof.Delta_fragments
              (List.length (plan t sid upto));
            wl_touch t b)
          branches;
        let n = ref 0 in
        multi_scan_impl ?ctx t branches (fun mt ->
            n := !n + 1;
            f mt);
        Obs.add c_multi_scan_tuples !n;
        Obs.Prof.add Obs.Prof.Tuples_emitted !n)

(* Content diff needs the active records of both branches, which
   version-first can only obtain with full lineage scans — the
   multiple-pass cost the paper reports for Q2 (§5.2). *)
let diff_impl ?ctx t a b ~pos ~neg =
  let in_a : (Value.t, Tuple.t) Hashtbl.t = Hashtbl.create 4096 in
  scan ?ctx t a
    (fun tuple -> Hashtbl.replace in_a (Tuple.pk t.schema tuple) tuple);
  scan ?ctx t b (fun tuple ->
      let key = Tuple.pk t.schema tuple in
      match Hashtbl.find_opt in_a key with
      | Some ta when Tuple.equal ta tuple -> Hashtbl.remove in_a key
      | Some ta ->
          pos ta;
          neg tuple;
          Hashtbl.remove in_a key
      | None -> neg tuple);
  Hashtbl.iter (fun _ tuple -> pos tuple) in_a

let diff ?ctx t a b ~pos ~neg =
  if not (Obs.enabled ()) then diff_impl ?ctx t a b ~pos ~neg
  else
    Obs.with_span sp_diff (fun () ->
        let n = ref 0 in
        let count out tuple =
          n := !n + 1;
          out tuple
        in
        diff_impl ?ctx t a b ~pos:(count pos) ~neg:(count neg);
        Obs.add c_diff_tuples !n;
        Obs.Prof.add Obs.Prof.Tuples_emitted !n)

(* Keys a branch touched since the LCA: scan only the segment ranges of
   the branch's lineage that lie beyond the LCA's coverage (the records
   "appearing after the lowest common ancestor", §3.3 Diff/Merge). *)
let changed_keys_since t b lca_loc =
  let lca_sid, lca_upto = lca_loc in
  let lca_cover : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s, u) -> Hashtbl.replace lca_cover s u)
    (plan t lca_sid lca_upto);
  let keys : (Value.t, unit) Hashtbl.t = Hashtbl.create 256 in
  let sid, upto = head_loc t b in
  List.iter
    (fun (s, u) ->
      let from = Option.value ~default:0 (Hashtbl.find_opt lca_cover s) in
      if u > from then
        Col_segment.iter ~from ~upto:u (segment t s).seg (fun _row rv ->
            Hashtbl.replace keys (record_key t.schema rv) ()))
    (plan t sid upto);
  keys

let changes_since t b lca_loc ~lca_state =
  let keys = changed_keys_since t b lca_loc in
  let tbl : (Value.t, Merge_driver.side_change) Hashtbl.t =
    Hashtbl.create (Hashtbl.length keys)
  in
  Hashtbl.iter
    (fun key () ->
      let state = lookup t b key in
      let base =
        match lca_state with
        | Some m -> Hashtbl.find_opt m key
        | None -> None
      in
      let unchanged =
        match state, base with
        | Some s, Some bse -> Tuple.equal s bse
        | None, None -> true
        | _ -> false
      in
      if not unchanged then
        Hashtbl.replace tbl key { Merge_driver.state; base })
    keys;
  tbl

let merge_impl ?ctx t ~into ~from ~policy ~message =
  (* the read phase (LCA scan, change collection) polls the context;
     once the merge segment starts filling the operation runs to
     completion so no half-applied merge is observable *)
  let check () = match ctx with Some c -> Gctx.check c | None -> () in
  let v_ours = Vg.head t.graph into and v_theirs = Vg.head t.graph from in
  let lca = Vg.lca t.graph v_ours v_theirs in
  let lca_loc = commit_loc t lca in
  (* The LCA commit is scanned in its entirety for every merge: the
     segment-suffix candidate sets only record which keys were
     *touched*, so the LCA values are needed to drop keys whose content
     is unchanged (otherwise a touched-but-equal key would spuriously
     win precedence over a real change on the other side).  The paper
     notes the same full-LCA-scan burden for version-first field-level
     merges (§3.3 Merge, §5.4). *)
  let lca_state =
    let m : (Value.t, Tuple.t) Hashtbl.t = Hashtbl.create 4096 in
    let lca_sid, lca_upto = lca_loc in
    scan_live ?ctx t lca_sid lca_upto (fun _ _ tuple ->
        Hashtbl.replace m (Tuple.pk t.schema tuple) tuple);
    Some m
  in
  check ();
  let ours = changes_since t into lca_loc ~lca_state in
  check ();
  let theirs = changes_since t from lca_loc ~lca_state in
  check ();
  let decisions, stats = Merge_driver.decide ~policy ~ours ~theirs in
  check ();
  (* fresh merge segment: scanned before either parent lineage *)
  let ours_loc = head_loc t into and theirs_loc = head_loc t from in
  let parents =
    match policy with
    | Theirs -> [ theirs_loc; ours_loc ]
    | Ours | Three_way -> [ ours_loc; theirs_loc ]
  in
  let s = new_segment t parents in
  Vec.set t.head_seg into s.seg_id;
  (* Every decided state is materialized into the merge segment, which
     is scanned before both parent lineages, so it dominates any copy
     either lineage holds.  Lazy scan-order resolution is unsound in
     general: a key live in the source branch (whose segments are
     topological descendants of shared ancestry) would shadow the
     destination's own post-LCA copy.  The write volume stays
     proportional to the inter-branch diff, the unit the paper reports
     merge throughput in (§5.4). *)
  List.iter
    (fun (d : Merge_driver.decision) ->
      let key = d.Merge_driver.d_key in
      match d.Merge_driver.final with
      | None ->
          let _ = append t into (Col_segment.Tombstone key) in
          Pk_index.remove t.pk ~branch:into key
      | Some tuple ->
          let loc = append t into (Col_segment.Live tuple) in
          Pk_index.set t.pk ~branch:into key loc)
    decisions;
  Col_segment.flush s.seg;
  let vid = Vg.merge_commit t.graph ~into ~theirs:v_theirs ~message in
  Hashtbl.replace t.commits vid (s.seg_id, Col_segment.rows s.seg);
  set_dirty t into false;
  {
    merge_version = vid;
    conflicts = Merge_driver.conflicts_of decisions;
    keys_ours = stats.Merge_driver.n_ours;
    keys_theirs = stats.Merge_driver.n_theirs;
    keys_both = stats.Merge_driver.n_both;
  }

let merge ?ctx t ~into ~from ~policy ~message =
  if not (Obs.enabled ()) then merge_impl ?ctx t ~into ~from ~policy ~message
  else
    Obs.with_span sp_merge (fun () ->
        Obs.incr c_merges;
        merge_impl ?ctx t ~into ~from ~policy ~message)

let dataset_bytes t =
  let acc = ref 0 in
  Vec.iter (fun s -> acc := !acc + Col_segment.byte_size s.seg) t.segments;
  !acc

(* Version-first keeps no bitmap histories; its commit metadata is the
   version -> (segment, row) map. *)
let commit_meta_bytes t = Hashtbl.length t.commits * 12

let storage_report t =
  let module R = Decibel_obs.Report in
  let nsegs = Vec.length t.segments in
  (* live physical records: the distinct (segment, row) targets of
     every active branch's key index *)
  let live_locs : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (br : Vg.branch) ->
      if br.Vg.active then
        Pk_index.iter t.pk ~branch:br.Vg.bid (fun _ loc ->
            Hashtbl.replace live_locs loc ()))
    (Vg.branches t.graph);
  let live_per_seg = Array.make nsegs 0 in
  Hashtbl.iter
    (fun (sid, _) () -> live_per_seg.(sid) <- live_per_seg.(sid) + 1)
    live_locs;
  let branches =
    List.map
      (fun (br : Vg.branch) ->
        let b = br.Vg.bid in
        (* head extent, including uncommitted appends *)
        let sid, upto = head_loc t b in
        let lineage = plan t sid upto in
        (* rows are dense, so a fragment's record extent is its upto *)
        let extent = List.fold_left (fun acc (_, u) -> acc + u) 0 lineage in
        let live = Pk_index.cardinal t.pk ~branch:b in
        {
          R.br_name = br.Vg.name;
          br_id = b;
          br_head = br.Vg.head;
          br_active = br.Vg.active;
          br_live_tuples = live;
          br_dead_tuples = max 0 (extent - live);
          (* no liveness bitmaps in this scheme *)
          br_bitmap_bits = 0;
          br_density = 0.0;
          br_segments = List.length lineage;
          br_delta_chain = List.length lineage;
          br_delta_bytes = 0;
        })
      (Vg.branches t.graph)
  in
  let segments =
    List.init nsegs (fun sid ->
        let s = segment t sid in
        let records = Col_segment.rows s.seg in
        {
          R.sg_id = sid;
          sg_file = Filename.basename (Col_segment.path s.seg);
          sg_bytes = Col_segment.byte_size s.seg;
          sg_pages = Col_segment.page_count s.seg;
          sg_records = records;
          sg_live_records = live_per_seg.(sid);
          sg_fragmentation =
            R.fragmentation ~live:live_per_seg.(sid) ~records;
        })
  in
  let chains =
    Hashtbl.fold
      (fun _ (sid, upto) acc -> List.length (plan t sid upto) :: acc)
      t.commits []
  in
  let max_chain, mean_chain = R.chain_stats chains in
  let columns =
    let reports = ref [] in
    Vec.iter
      (fun s -> reports := Col_segment.column_report s.seg :: !reports)
      t.segments;
    List.map
      (fun (c : Col_segment.col_report) ->
        {
          R.co_name = c.Col_segment.cr_name;
          co_encoding = c.cr_encoding;
          co_raw_bytes = c.cr_raw_bytes;
          co_enc_bytes = c.cr_enc_bytes;
        })
      (Array.to_list (Col_segment.merge_column_reports !reports))
  in
  {
    R.e_branches = branches;
    e_segments = segments;
    e_columns = columns;
    e_history =
      {
        R.h_files = 0;
        h_bytes = 0;
        h_commits = Hashtbl.length t.commits;
        h_max_chain = max_chain;
        h_mean_chain = mean_chain;
      };
  }

(* The manifest persists the version graph, the segment DAG (parent
   pointers with branch-point rows), branch head segments, the commit
   locator and dirtiness; segment contents live in their own files and
   the key index is rebuilt by lineage scans on reopen. *)
let manifest_path dir = Filename.concat dir "manifest.vf"

let save_manifest ?path t =
  let buf = Buffer.create 4096 in
  Col_segment.write_manifest_header buf;
  Binio.write_u8 buf (if t.compress then 1 else 0);
  Binio.write_string buf (Vg.serialize t.graph);
  Schema.serialize buf t.schema;
  Binio.write_varint buf (Vec.length t.segments);
  Vec.iter
    (fun s ->
      Col_segment.save_meta buf s.seg;
      Binio.write_list
        (fun b (p, row) ->
          Binio.write_varint b p;
          Binio.write_varint b row)
        buf s.parents)
    t.segments;
  Binio.write_varint buf (Vec.length t.head_seg);
  Vec.iter (fun sid -> Binio.write_varint buf sid) t.head_seg;
  Binio.write_varint buf (Hashtbl.length t.commits);
  Hashtbl.iter
    (fun vid (sid, upto) ->
      Binio.write_varint buf vid;
      Binio.write_varint buf sid;
      Binio.write_varint buf upto)
    t.commits;
  Binio.write_varint buf (Hashtbl.length t.dirty);
  Hashtbl.iter
    (fun b d ->
      Binio.write_varint buf b;
      Binio.write_u8 buf (if d then 1 else 0))
    t.dirty;
  Binio.write_varint buf t.wal_marker;
  Atomic_file.write
    (Option.value path ~default:(manifest_path t.dir))
    (Buffer.contents buf)

let flush t =
  Vec.iter (fun s -> Col_segment.flush s.seg) t.segments;
  save_manifest t

(* Manifest body past the format header.  [read_seg] reads one
   segment's section and [row_of sid loc] turns a persisted locator
   into segment [sid]'s row: the v2 block index and rows here, a
   staged v1 heap and byte offsets in [upgrade_v1]. *)
let load ~dir ~pool ~read_seg ~row_of data pos =
  let compress = Binio.read_u8 data pos = 1 in
  let graph = Vg.deserialize (Binio.read_string data pos) in
  let schema = Schema.deserialize data pos in
  let t =
    {
      dir;
      pool;
      schema;
      compress;
      graph;
      segments = Vec.create ~dummy:seg_dummy ();
      head_seg = Vec.create ~dummy:(-1) ();
      pk = Pk_index.create ();
      commits = Hashtbl.create 64;
      dirty = Hashtbl.create 16;
      wal_marker = 0;
      closed = false;
    }
  in
  let nsegs = Binio.read_varint data pos in
  for seg_id = 0 to nsegs - 1 do
    let seg = read_seg ~schema ~compress seg_id data pos in
    let parents =
      Binio.read_list
        (fun s p ->
          let a = Binio.read_varint s p in
          let b = Binio.read_varint s p in
          (a, row_of a b))
        data pos
    in
    let _ = Vec.push t.segments { seg_id; seg; parents } in
    ()
  done;
  let nheads = Binio.read_varint data pos in
  for _ = 1 to nheads do
    let _ = Vec.push t.head_seg (Binio.read_varint data pos) in
    ()
  done;
  let ncommits = Binio.read_varint data pos in
  for _ = 1 to ncommits do
    let vid = Binio.read_varint data pos in
    let sid = Binio.read_varint data pos in
    let upto = Binio.read_varint data pos in
    Hashtbl.replace t.commits vid (sid, row_of sid upto)
  done;
  let ndirty = Binio.read_varint data pos in
  for _ = 1 to ndirty do
    let b = Binio.read_varint data pos in
    Hashtbl.replace t.dirty b (Binio.read_u8 data pos = 1)
  done;
  t.wal_marker <- Binio.read_varint data pos;
  (* rebuild the per-branch key index with one lineage scan each *)
  for b = 0 to Vec.length t.head_seg - 1 do
    let bid = Pk_index.add_branch t.pk ~from:None in
    assert (bid = b);
    let sid = Vec.get t.head_seg b in
    scan_live t sid (Col_segment.rows (segment t sid).seg)
      (fun s row tuple ->
        Pk_index.set t.pk ~branch:b (Tuple.pk t.schema tuple) (s, row))
  done;
  t

let open_existing ~dir ~pool =
  let data =
    try Atomic_file.read (manifest_path dir)
    with Sys_error _ -> errorf "version-first: no repository in %s" dir
  in
  let pos = ref 0 in
  Engine_intf.read_manifest_header data pos;
  load ~dir ~pool data pos
    ~read_seg:(fun ~schema ~compress seg_id data pos ->
      Col_segment.open_v2 ~pool ~schema ~compress
        ~path:(seg_file_path dir seg_id) data pos)
    ~row_of:(fun _ row -> row)

(* A v1 manifest persists each segment's byte size where v2 keeps the
   block index, and addresses branch points and commit uptos by byte
   offset. *)
let upgrade_v1 ~dir ~pool =
  Seg_v1.upgrade ~manifest:(manifest_path dir) (fun st data pos ->
      (* parents reference earlier segments only, so their heaps are
         staged by the time a locator into them is read *)
      let heaps = Hashtbl.create 8 in
      let row_of sid off =
        match Hashtbl.find_opt heaps sid with
        | Some h -> Seg_v1.row_of_offset h off
        | None ->
            raise
              (Binio.Corrupt
                 (Printf.sprintf "version-first: locator in unknown segment %d"
                    sid))
      in
      let t =
        load ~dir ~pool data pos ~row_of
          ~read_seg:(fun ~schema ~compress seg_id data pos ->
            let size = Binio.read_varint data pos in
            let seg, h =
              Seg_v1.stage st ~pool ~schema ~compress ~layout:Seg_v1.Flagged
                ~path:(seg_file_path dir seg_id) ~size ()
            in
            Hashtbl.replace heaps seg_id h;
            seg)
      in
      fun path -> save_manifest ~path t)

let wal_marker t = t.wal_marker
let set_wal_marker t lsn = t.wal_marker <- lsn

let verify t =
  let errs = ref [] in
  (match Atomic_file.verify (manifest_path t.dir) with
  | Some reason -> errs := ("manifest.vf", reason) :: !errs
  | None -> ());
  Vec.iter
    (fun s ->
      let name = Printf.sprintf "seg_%d.dat" s.seg_id in
      List.iter
        (fun (_, reason) -> errs := (name, reason) :: !errs)
        (Col_segment.verify s.seg);
      List.iter
        (fun (p, _) ->
          if p < 0 || p >= Vec.length t.segments then
            errs :=
              (name, Printf.sprintf "parent pointer to unknown segment %d" p)
              :: !errs)
        s.parents)
    t.segments;
  Hashtbl.iter
    (fun vid (sid, _) ->
      if not (Vg.mem_version t.graph vid) then
        errs :=
          ( "manifest.vf",
            Printf.sprintf "commit locator references unknown version %d" vid )
          :: !errs
      else if sid < 0 || sid >= Vec.length t.segments then
        errs :=
          ( "manifest.vf",
            Printf.sprintf "commit %d references unknown segment %d" vid sid )
          :: !errs)
    t.commits;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* maintenance *)

let referenced_files t =
  List.init (Vec.length t.segments) (fun sid ->
      Printf.sprintf "seg_%d.dat" sid)

let branch_by_name t name =
  List.find_opt
    (fun (br : Vg.branch) -> br.Vg.active && br.Vg.name = name)
    (Vg.branches t.graph)

(* Materialize a long delta chain: rewrite the branch's live winners
   into one fresh parentless segment and repoint the head at it.
   Purely additive — historical segments stay, because commit locators
   and other branches still address their rows — so the payoff is read
   locality (chain length 1), not reclaimed bytes. *)
let plan_maintenance t ~kind ~target =
  match kind with
  | Engine_intf.M_compact | Engine_intf.M_gc ->
      (* historical rows stay addressable by commit locators and other
         branches' branch points; version-first cannot rewrite them *)
      None
  | Engine_intf.M_materialize -> (
      match branch_by_name t target with
      | None -> None
      | Some br ->
          let b = br.Vg.bid in
          let sid0, upto0 = head_loc t b in
          if List.length (plan t sid0 upto0) <= 1 then None
          else begin
            let new_sid = Vec.length t.segments in
            let path = seg_file_path t.dir new_sid in
            let apply () =
              let sid, upto = head_loc t b in
              (* buffer the winners before creating any file so a
                 failure during the lineage scan leaves no debris *)
              let winners = ref [] in
              scan_live t sid upto (fun _ _ tuple ->
                  winners := tuple :: !winners);
              let winners = List.rev !winners in
              let seg =
                Col_segment.create_v2 ~pool:t.pool ~schema:t.schema
                  ~compress:t.compress ~path
              in
              try
                Decibel_fault.Failpoint.hit "maint.rewrite";
                let locs =
                  List.map
                    (fun tuple ->
                      let row =
                        Col_segment.append seg (Col_segment.Live tuple)
                      in
                      (Tuple.pk t.schema tuple, row))
                    winners
                in
                Col_segment.flush seg;
                (* swap is the last step: nothing above mutated [t],
                   so an exception leaves the old state intact *)
                let _ =
                  Vec.push t.segments { seg_id = new_sid; seg; parents = [] }
                in
                Vec.set t.head_seg b new_sid;
                List.iter
                  (fun (key, row) ->
                    Pk_index.set t.pk ~branch:b key (new_sid, row))
                  locs
              with e ->
                Col_segment.abandon seg;
                (try Sys.remove path with Sys_error _ -> ());
                raise e
            in
            Some
              {
                Engine_intf.mp_kind = kind;
                mp_target = target;
                mp_new_files = [ Filename.basename path ];
                mp_old_files = [];
                mp_bytes_before = 0;
                mp_apply = apply;
                mp_cleanup = (fun () -> ());
              }
          end)

let crash t =
  if not t.closed then begin
    Vec.iter (fun s -> Col_segment.abandon s.seg) t.segments;
    t.closed <- true
  end

let close t =
  if not t.closed then begin
    flush t;
    Vec.iter (fun s -> Col_segment.close s.seg) t.segments;
    t.closed <- true
  end
