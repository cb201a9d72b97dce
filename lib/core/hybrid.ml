(** Hybrid storage (paper §3.4).

    Records are clustered into per-branch segment files as in
    version-first, but liveness is tracked with bitmaps as in
    tuple-first: every segment carries a local bitmap index over its own
    rows, and a global branch–segment bitmap records which segments hold
    records live in each branch, letting scans skip irrelevant segments
    entirely and proceed in any order.

    Segments are columnar {!Decibel_storage.Col_segment}s addressed by
    local row index.  The local bitmaps are row-indexed, so branch scans
    hand them to {!Col_segment.scan} as selection vectors directly,
    which skips and filters whole blocks below decompression — the
    combination of §3.4's segment skipping with columnar execution.

    Head segments receive a branch's fresh modifications; when a branch
    is created from a clean head, the old head is frozen into an
    internal segment (its data no longer changes, only its bitmaps) and
    both branches get fresh head segments.  Commits snapshot, per
    segment the branch touches, the branch's local column into a
    compressed history — many small histories rather than tuple-first's
    single wide one, which is why hybrid's commit data is smaller and
    its checkouts faster (Table 2).  A commit records only the segments
    whose column changed since the branch's last snapshot, and the
    histories reach disk at the next checkpoint. *)

open Decibel_util
open Decibel_storage
open Decibel_index
open Types
module Vg = Decibel_graph.Version_graph
module Obs = Decibel_obs.Obs
module Par = Decibel_par.Par
module Gctx = Decibel_governor.Governor.Ctx

(* Per-domain bitmap scratch: each parallel segment worker (and the
   serial caller) reuses one vector across segments via the in-place
   Bitvec kernels, so the hot loops allocate no fresh bitmaps. *)
let scratch_key = Domain.DLS.new_key (fun () -> Bitvec.create ())
let scratch () = Domain.DLS.get scratch_key

(* same engine.* names as the other schemes: Obs interns by name, so
   all engines feed the shared counters *)
let c_scan_pages = Obs.counter "engine.scan.pages"
let c_scan_segments = Obs.counter "engine.scan.segments"

let bitmap_words col = (Bitvec.length col + 63) / 64

type seg = {
  seg_id : int;
  seg : Col_segment.t;
  local : Branch_bitmap.t; (* columns indexed by global branch id *)
}

type t = {
  dir : string;
  pool : Buffer_pool.t;
  schema : Schema.t;
  compress : bool;
  graph : Vg.t;
  segments : seg Vec.t;
  head_seg : int Vec.t; (* branch -> head segment id *)
  seg_index : Branch_bitmap.t; (* branch column over segment-id rows *)
  pk : (int * int) Pk_index.t; (* branch -> key -> (segment, local row) *)
  histories : (int * int, Commit_history.t) Hashtbl.t; (* (branch, seg) *)
  hist_segs : (branch_id, int list ref) Hashtbl.t;
      (* segments having a history for the branch, in creation order *)
  commit_loc : (version_id, branch_id * (int * int) list) Hashtbl.t;
      (* version -> (branch, [(segment, history index)]) *)
  dirty : (branch_id, bool) Hashtbl.t;
  mutable wal_marker : int; (* last WAL LSN reflected here *)
  mutable closed : bool;
}

let scheme = "hybrid"

let segment t id = Vec.get t.segments id

let seg_dummy =
  {
    seg_id = -1;
    seg = Obj.magic `never_dereferenced;
    local = Branch_bitmap.create ();
  }

let seg_file_path dir seg_id =
  Filename.concat dir (Printf.sprintf "seg_%d.dat" seg_id)

let new_segment t =
  let seg_id = Vec.length t.segments in
  let path = seg_file_path t.dir seg_id in
  let seg =
    Col_segment.create_v2 ~pool:t.pool ~schema:t.schema ~compress:t.compress
      ~path
  in
  let s = { seg_id; seg; local = Branch_bitmap.create () } in
  let _ = Vec.push t.segments s in
  s

(* Local bitmaps and the global index allocate branch columns lazily so
   a segment only pays for branches that actually reach it. *)
let ensure_branch bm b =
  while Branch_bitmap.branch_count bm <= b do
    let _ = Branch_bitmap.add_branch bm ~from:None in
    ()
  done

let create ~compress ~dir ~pool ~schema =
  Fsutil.mkdir_p dir;
  let t =
    {
      dir;
      pool;
      schema;
      compress;
      graph = Vg.create ();
      (* dummy never dereferenced; fills unused Vec capacity *)
      segments = Vec.create ~dummy:seg_dummy ();
      head_seg = Vec.create ~dummy:(-1) ();
      seg_index = Branch_bitmap.create ();
      pk = Pk_index.create ();
      histories = Hashtbl.create 64;
      hist_segs = Hashtbl.create 16;
      commit_loc = Hashtbl.create 64;
      dirty = Hashtbl.create 16;
      wal_marker = 0;
      closed = false;
    }
  in
  let s0 = new_segment t in
  let _ = Vec.push t.head_seg s0.seg_id in
  let _ = Pk_index.add_branch t.pk ~from:None in
  ensure_branch t.seg_index 0;
  Hashtbl.replace t.commit_loc Vg.root_version (Vg.master, []);
  t

let schema t = t.schema
let graph t = t.graph

let is_dirty t b = Hashtbl.find_opt t.dirty b = Some true
let set_dirty t b v = Hashtbl.replace t.dirty b v

let history t b sid =
  match Hashtbl.find_opt t.histories (b, sid) with
  | Some h -> h
  | None ->
      let path =
        Filename.concat t.dir (Printf.sprintf "hist_b%d_s%d.chx" b sid)
      in
      let h =
        if Sys.file_exists path then Commit_history.open_existing ~path
        else Commit_history.create ~path
      in
      Hashtbl.replace t.histories (b, sid) h;
      let l =
        match Hashtbl.find_opt t.hist_segs b with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace t.hist_segs b l;
            l
      in
      l := sid :: !l;
      h

let tuple_at t sid row = Col_segment.get_tuple (segment t sid).seg row
let key_at t sid row = Tuple.pk t.schema (tuple_at t sid row)

(* Segments holding live records of a branch, per the global
   branch–segment bitmap. *)
let segs_of_branch t b =
  if b >= Branch_bitmap.branch_count t.seg_index then []
  else Bitvec.to_list (Branch_bitmap.column_view t.seg_index ~branch:b)

let local_col t b sid =
  let s = segment t sid in
  if b >= Branch_bitmap.branch_count s.local then Bitvec.create ()
  else Branch_bitmap.column_view s.local ~branch:b

let set_live t b sid row =
  let s = segment t sid in
  ensure_branch s.local b;
  Branch_bitmap.set s.local ~branch:b ~row;
  ensure_branch t.seg_index b;
  Branch_bitmap.set t.seg_index ~branch:b ~row:sid

let clear_live t b sid row =
  let s = segment t sid in
  ensure_branch s.local b;
  Branch_bitmap.clear s.local ~branch:b ~row;
  (* keep the branch–segment bitmap exact: drop the segment when the
     branch's last record there dies (§3.4 "at least one record alive") *)
  if Bitvec.is_empty (Branch_bitmap.column_view s.local ~branch:b) then begin
    ensure_branch t.seg_index b;
    Branch_bitmap.clear t.seg_index ~branch:b ~row:sid
  end

(* A commit's (segment, history index) snapshot of branch [b]: every
   segment the branch has ever had a history for plus any it now
   touches, so deletions round-trip through checkout.  A column equal
   to its history's latest entry reuses that entry's index, so only
   the segments that changed since the branch's last snapshot are
   encoded and recorded. *)
let snapshot t b =
  let touched : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace touched s ()) (segs_of_branch t b);
  (match Hashtbl.find_opt t.hist_segs b with
  | Some l -> List.iter (fun s -> Hashtbl.replace touched s ()) !l
  | None -> ());
  Hashtbl.fold
    (fun sid () acc ->
      let h = history t b sid in
      let col = local_col t b sid in
      let idx =
        if Commit_history.is_latest h col then Commit_history.count h - 1
        else Commit_history.commit h col
      in
      (sid, idx) :: acc)
    touched []

let commit t b ~message =
  let snaps = snapshot t b in
  let vid = Vg.commit t.graph b ~message in
  Hashtbl.replace t.commit_loc vid (b, snaps);
  set_dirty t b false;
  vid

let commit_cols t vid =
  match Hashtbl.find_opt t.commit_loc vid with
  | None -> errorf "hybrid: version %d has no snapshot" vid
  | Some (b, snaps) ->
      List.map (fun (sid, idx) ->
          (sid, Commit_history.checkout (history t b sid) idx))
        snaps

let create_branch t ~name ~from =
  let v = Vg.version t.graph from in
  let parent = v.Vg.on_branch in
  let nb =
    try Vg.create_branch t.graph ~name ~from
    with Invalid_argument msg -> errorf "hybrid: %s" msg
  in
  if Vg.head t.graph parent = from && not (is_dirty t parent) then begin
    (* clean-head branch: freeze the parent's head segment (it becomes
       internal, holding records of both branches) and give both
       branches fresh head segments (§3.4 Branch) *)
    List.iter
      (fun sid ->
        let s = segment t sid in
        ensure_branch s.local nb;
        Branch_bitmap.overwrite_column s.local ~branch:nb
          (local_col t parent sid);
        ensure_branch t.seg_index nb;
        if not (Bitvec.is_empty (local_col t nb sid)) then
          Branch_bitmap.set t.seg_index ~branch:nb ~row:sid)
      (segs_of_branch t parent);
    ensure_branch t.seg_index nb;
    let parent_head = new_segment t in
    Vec.set t.head_seg parent parent_head.seg_id;
    let child_head = new_segment t in
    let slot = Vec.push t.head_seg child_head.seg_id in
    assert (slot = nb);
    let bid = Pk_index.add_branch t.pk ~from:(Some parent) in
    assert (bid = nb)
  end
  else begin
    (* branch from a historical commit: restore each covered segment's
       column from its history and rebuild the key index *)
    let bid = Pk_index.add_branch t.pk ~from:None in
    assert (bid = nb);
    ensure_branch t.seg_index nb;
    List.iter
      (fun (sid, col) ->
        let s = segment t sid in
        ensure_branch s.local nb;
        Branch_bitmap.overwrite_column s.local ~branch:nb col;
        if not (Bitvec.is_empty col) then
          Branch_bitmap.set t.seg_index ~branch:nb ~row:sid;
        Bitvec.iter_set
          (fun row ->
            Pk_index.set t.pk ~branch:nb (key_at t sid row) (sid, row))
          col)
      (commit_cols t from);
    let child_head = new_segment t in
    let slot = Vec.push t.head_seg child_head.seg_id in
    assert (slot = nb)
  end;
  set_dirty t nb false;
  nb

let validate t tuple =
  match Schema.validate t.schema tuple with
  | Ok () -> ()
  | Error msg -> errorf "hybrid: %s" msg

let append_record t b tuple =
  let sid = Vec.get t.head_seg b in
  let row = Col_segment.append (segment t sid).seg (Col_segment.Live tuple) in
  (sid, row)

let insert t b tuple =
  validate t tuple;
  let key = Tuple.pk t.schema tuple in
  if Pk_index.mem t.pk ~branch:b key then
    errorf "hybrid: duplicate key %s in branch %d" (Value.to_string key) b;
  let sid, row = append_record t b tuple in
  set_live t b sid row;
  Pk_index.set t.pk ~branch:b key (sid, row);
  set_dirty t b true

let update t b tuple =
  validate t tuple;
  let key = Tuple.pk t.schema tuple in
  match Pk_index.find t.pk ~branch:b key with
  | None -> errorf "hybrid: update of absent key %s" (Value.to_string key)
  | Some (old_sid, old_row) ->
      clear_live t b old_sid old_row;
      let sid, row = append_record t b tuple in
      set_live t b sid row;
      Pk_index.set t.pk ~branch:b key (sid, row);
      set_dirty t b true

let delete t b key =
  match Pk_index.find t.pk ~branch:b key with
  | None -> errorf "hybrid: delete of absent key %s" (Value.to_string key)
  | Some (sid, row) ->
      clear_live t b sid row;
      Pk_index.remove t.pk ~branch:b key;
      set_dirty t b true

let lookup t b key =
  Option.map
    (fun (sid, row) -> tuple_at t sid row)
    (Pk_index.find t.pk ~branch:b key)

(* The local column goes straight down as the segment scan's selection
   vector: the block skip + batch predicate machinery runs below
   decompression. *)
let scan_segment_col ?preds t sid col f =
  Col_segment.scan ~sel:col ?preds (segment t sid).seg (fun _row tuple ->
      f tuple)

(* A branch's (or version's) read costs over its (segment, local
   column) pairs, charged per read rather than per tuple: the live
   count is the columns' population, so the scans themselves run
   uninstrumented.  Every segment is one delta fragment. *)
let charge_cols cols =
  let words = ref 0 and live = ref 0 in
  List.iter
    (fun (_, col) ->
      words := !words + bitmap_words col;
      live := !live + Bitvec.pop_count col)
    cols;
  Obs.charge Obs.Prof.Delta_fragments (List.length cols);
  Obs.charge Obs.Prof.Bitmap_words !words;
  Obs.charge Obs.Prof.Tuples_scanned !live

(* A single-branch or version scan also reports the extent it walks:
   the whole of each segment, page by page. *)
let charge_scan t cols =
  List.iter
    (fun (sid, _) ->
      Obs.incr c_scan_segments;
      Obs.add c_scan_pages (Col_segment.page_count (segment t sid).seg))
    cols;
  charge_cols cols

let branch_cols t b =
  List.map (fun sid -> (sid, local_col t b sid)) (segs_of_branch t b)

(* Segment-parallel scan over (segment, column) pairs: pool workers
   decode their segments into buffered tuple lists against the
   read-only heap snapshot; buffers are consumed in list order, so the
   tuple stream is byte-identical to the serial loop.  With the pool
   off (or a single segment) this is the plain serial loop with no
   buffering. *)
let scan_cols ?ctx ?preds t cols f =
  match cols with
  | [] -> ()
  | _ when Par.available () && List.length cols > 1 ->
      let cols = Array.of_list cols in
      Par.parallel_iter_buffered ?ctx ~n:(Array.length cols)
        ~produce:(fun i ->
          let poll = Gctx.poller ctx in
          let sid, col = cols.(i) in
          let acc = ref [] in
          scan_segment_col ?preds t sid col (fun tu ->
              poll ();
              acc := tu :: !acc);
          List.rev !acc)
        ~consume:(fun tuples -> List.iter f tuples)
        ()
  | _ ->
      let poll = Gctx.poller ctx in
      List.iter
        (fun (sid, col) ->
          scan_segment_col ?preds t sid col (fun tu ->
              poll ();
              f tu))
        cols

(* Single-branch scan: only segments flagged in the branch–segment
   bitmap are read, in any order (§3.4 “Single-branch Scan”). *)
let scan ?ctx t b f =
  let cols = branch_cols t b in
  charge_scan t cols;
  scan_cols ?ctx t cols f

(* Predicate pushdown composes with segment skipping: the branch's
   local columns select, the predicates filter on decoded batches (or
   dictionary codes) inside each surviving block. *)
let scan_filtered ?ctx t b ~preds f =
  let cols = branch_cols t b in
  charge_scan t cols;
  scan_cols ?ctx ~preds t cols f

let scan_version ?ctx t vid f =
  let cols = commit_cols t vid in
  charge_scan t cols;
  scan_cols ?ctx t cols f

let multi_scan ?ctx t branches f =
  List.iter (fun b -> charge_cols (branch_cols t b)) branches;
  let seg_set : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun b -> List.iter (fun s -> Hashtbl.replace seg_set s ()) (segs_of_branch t b))
    branches;
  let segs =
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun s () a -> s :: a) seg_set []))
  in
  (* Union the branch columns into the per-domain scratch (in place, no
     allocation per segment per branch) and decode only live rows,
     annotating each with its branches.  Rows ascend within a segment
     and segments are consumed in sorted order, so output order matches
     the serial record walk. *)
  let annotated_of_segment sid =
    match List.map (fun b -> (b, local_col t b sid)) branches with
    | [] -> []
    | ((_, c0) :: rest) as cols ->
        let poll = Gctx.poller ctx in
        let any = scratch () in
        Bitvec.copy_into ~src:c0 ~dst:any;
        List.iter (fun (_, c) -> Bitvec.union_in_place any c) rest;
        (* bitmap scratch is a transient allocation; bill it to the
           operation's byte budget *)
        Gctx.charge_current ((Bitvec.length any + 7) lsr 3);
        let acc = ref [] in
        Col_segment.scan ~sel:any (segment t sid).seg (fun row tuple ->
            poll ();
            let live =
              List.filter_map
                (fun (b, col) -> if Bitvec.get col row then Some b else None)
                cols
            in
            acc := { tuple; in_branches = live } :: !acc);
        List.rev !acc
  in
  if Par.available () && Array.length segs > 1 then
    Par.parallel_iter_buffered ?ctx ~n:(Array.length segs)
      ~produce:(fun i -> annotated_of_segment segs.(i))
      ~consume:(fun l -> List.iter f l)
      ()
  else Array.iter (fun sid -> List.iter f (annotated_of_segment sid)) segs

(* Under a primary key each branch holds at most one live copy of a
   key.  So when [a]'s and [b]'s copies of a key are different physical
   rows, both are in the XOR set; a key live in one branch only has its
   one copy there.  The diff is therefore a join inside the XOR set
   (§3.2's bitmap XOR): each segment's XOR rows are decoded once, the
   rows are keyed by side, and keys whose two sides are equal in
   content drop out.  No row outside the XOR set is read. *)
let diff ?ctx t a b ~pos ~neg =
  charge_cols (branch_cols t a);
  charge_cols (branch_cols t b);
  let seg_set : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace seg_set s ()) (segs_of_branch t a);
  List.iter (fun s -> Hashtbl.replace seg_set s ()) (segs_of_branch t b);
  (* sorted so output is deterministic and parallel == serial *)
  let segs =
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) seg_set []))
  in
  let collect sid =
    let poll = Gctx.poller ctx in
    let ca = local_col t a sid and cb = local_col t b sid in
    let sym = scratch () in
    Bitvec.copy_into ~src:ca ~dst:sym;
    Bitvec.xor_in_place sym cb;
    Gctx.charge_current ((Bitvec.length sym + 7) lsr 3);
    let acc = ref [] in
    (* every symmetric-difference row is live in exactly one branch;
       the selection-driven scan decodes each exactly once *)
    Col_segment.scan ~sel:sym (segment t sid).seg (fun row tuple ->
        poll ();
        acc := (Bitvec.get ca row, Tuple.pk t.schema tuple, tuple) :: !acc);
    List.rev !acc
  in
  (* per-segment XOR rows, segments ascending *)
  let rows = ref [] in
  if Par.available () && Array.length segs > 1 then
    Par.parallel_iter_buffered ?ctx ~n:(Array.length segs)
      ~produce:(fun i -> collect segs.(i))
      ~consume:(fun l -> rows := l :: !rows)
      ()
  else Array.iter (fun sid -> rows := collect sid :: !rows) segs;
  let rows = List.rev !rows in
  let on_a : (Value.t, Tuple.t) Hashtbl.t = Hashtbl.create 256 in
  let n = ref 0 in
  List.iter
    (List.iter (fun (side, key, tuple) ->
         incr n;
         if side then Hashtbl.replace on_a key tuple))
    rows;
  (* the join tables are transient: a decoded row (one boxed value per
     field) plus its key, table cell and list cell per XOR row *)
  Gctx.charge_current (!n * (2 * Schema.arity t.schema + 16) * 8);
  let same : (Value.t, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (side, key, tuple) ->
         if not side then
           match Hashtbl.find_opt on_a key with
           | Some ta when Tuple.equal ta tuple -> Hashtbl.replace same key ()
           | _ -> ()))
    rows;
  List.iter
    (List.iter (fun (side, key, tuple) ->
         if not (Hashtbl.mem same key) then
           if side then pos tuple else neg tuple))
    rows

(* Change tables for merge: per segment, XOR the branch's current
   column against the LCA's restored column; set-minus directions give
   new live copies and overwritten/deleted LCA copies (§3.4 Merge). *)
let changes_since t b lca_cols =
  let tbl : (Value.t, Merge_driver.side_change) Hashtbl.t =
    Hashtbl.create 256
  in
  let lca_map : (int, Bitvec.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (sid, col) -> Hashtbl.replace lca_map sid col) lca_cols;
  let seg_set : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace seg_set s ()) (segs_of_branch t b);
  List.iter (fun (sid, _) -> Hashtbl.replace seg_set sid ()) lca_cols;
  let no_col = Bitvec.create () in
  let d = scratch () in
  Hashtbl.iter
    (fun sid () ->
      let col = local_col t b sid in
      let col_lca =
        Option.value ~default:no_col (Hashtbl.find_opt lca_map sid)
      in
      Bitvec.copy_into ~src:col ~dst:d;
      Bitvec.diff_in_place d col_lca;
      Bitvec.iter_set
        (fun row ->
          let tuple = tuple_at t sid row in
          Hashtbl.replace tbl (Tuple.pk t.schema tuple)
            { Merge_driver.state = Some tuple; base = None })
        d)
    seg_set;
  Hashtbl.iter
    (fun sid () ->
      let col = local_col t b sid in
      let col_lca =
        Option.value ~default:no_col (Hashtbl.find_opt lca_map sid)
      in
      Bitvec.copy_into ~src:col_lca ~dst:d;
      Bitvec.diff_in_place d col;
      Bitvec.iter_set
        (fun row ->
          let tuple = tuple_at t sid row in
          let key = Tuple.pk t.schema tuple in
          match Hashtbl.find_opt tbl key with
          | Some c -> Hashtbl.replace tbl key { c with base = Some tuple }
          | None ->
              Hashtbl.replace tbl key
                { Merge_driver.state = None; base = Some tuple })
        d)
    seg_set;
  (* changes are by content: a key updated back to its LCA value via a
     fresh physical row is not a change *)
  Hashtbl.filter_map_inplace
    (fun _key (c : Merge_driver.side_change) ->
      if Merge_driver.opt_tuple_equal c.state c.base then None else Some c)
    tbl;
  tbl

let merge ?ctx t ~into ~from ~policy ~message =
  (* the read phase (change collection) polls the context; once
     decisions start installing the merge runs to completion so a
     deadline can never leave a half-applied merge behind *)
  let check () = match ctx with Some c -> Gctx.check c | None -> () in
  let v_ours = Vg.head t.graph into and v_theirs = Vg.head t.graph from in
  let lca = Vg.lca t.graph v_ours v_theirs in
  let lca_cols = commit_cols t lca in
  check ();
  let ours = changes_since t into lca_cols in
  check ();
  let theirs = changes_since t from lca_cols in
  check ();
  let decisions, stats = Merge_driver.decide ~policy ~ours ~theirs in
  check ();
  List.iter
    (fun (d : Merge_driver.decision) ->
      let key = d.Merge_driver.d_key in
      let install_state final =
        let current = Pk_index.find t.pk ~branch:into key in
        match final with
        | None ->
            Option.iter
              (fun (sid, row) ->
                clear_live t into sid row;
                Pk_index.remove t.pk ~branch:into key)
              current
        | Some tuple ->
            let target =
              match d.Merge_driver.origin with
              | Merge_driver.O_theirs -> Pk_index.find t.pk ~branch:from key
              | Merge_driver.O_merged | Merge_driver.O_ours -> None
            in
            let sid, row =
              match target with
              | Some loc -> loc
              | None -> append_record t into tuple
            in
            Option.iter
              (fun (osid, orow) ->
                if (osid, orow) <> (sid, row) then clear_live t into osid orow)
              current;
            set_live t into sid row;
            Pk_index.set t.pk ~branch:into key (sid, row)
      in
      match d.Merge_driver.changed_in, d.Merge_driver.origin with
      | `Ours, _ -> ()
      | _, Merge_driver.O_ours -> ()
      | (`Theirs | `Both), _ -> install_state d.Merge_driver.final)
    decisions;
  let vid = Vg.merge_commit t.graph ~into ~theirs:v_theirs ~message in
  (* snapshot the merged state, like any commit *)
  Hashtbl.replace t.commit_loc vid (into, snapshot t into);
  set_dirty t into false;
  {
    merge_version = vid;
    conflicts = Merge_driver.conflicts_of decisions;
    keys_ours = stats.Merge_driver.n_ours;
    keys_theirs = stats.Merge_driver.n_theirs;
    keys_both = stats.Merge_driver.n_both;
  }

let dataset_bytes t =
  let acc = ref 0 in
  Vec.iter (fun s -> acc := !acc + Col_segment.byte_size s.seg) t.segments;
  !acc

(* (files, bytes) of every commit history, pending records included *)
let history_footprint t =
  Commit_history.footprint ~dir:t.dir
    (Hashtbl.fold (fun _ h acc -> h :: acc) t.histories [])

let commit_meta_bytes t = snd (history_footprint t)

let storage_report t =
  let module R = Decibel_obs.Report in
  let branches =
    List.map
      (fun (br : Vg.branch) ->
        let b = br.Vg.bid in
        let segs = segs_of_branch t b in
        (* liveness bits allocated for the branch span its segments'
           local rows; live bits are the set ones among them *)
        let live, bits =
          List.fold_left
            (fun (live, bits) sid ->
              ( live + Bitvec.pop_count (local_col t b sid),
                bits + Col_segment.rows (segment t sid).seg ))
            (0, 0) segs
        in
        let chain, dbytes =
          match Hashtbl.find_opt t.commit_loc br.Vg.head with
          | Some (hb, snaps) ->
              List.fold_left
                (fun (chain, dbytes) (sid, idx) ->
                  let h = history t hb sid in
                  ( max chain (Commit_history.replay_length h idx),
                    dbytes + Commit_history.disk_bytes h ))
                (0, 0) snaps
          | None -> (0, 0)
        in
        {
          R.br_name = br.Vg.name;
          br_id = b;
          br_head = br.Vg.head;
          br_active = br.Vg.active;
          br_live_tuples = live;
          br_dead_tuples = bits - live;
          br_bitmap_bits = bits;
          br_density = R.density ~live ~bits;
          br_segments = List.length segs;
          br_delta_chain = chain;
          br_delta_bytes = dbytes;
        })
      (Vg.branches t.graph)
  in
  let active = List.filter (fun (br : Vg.branch) -> br.Vg.active)
      (Vg.branches t.graph)
  in
  let segments =
    List.init (Vec.length t.segments) (fun sid ->
        let s = segment t sid in
        let records = Col_segment.rows s.seg in
        let any_live = Bitvec.create ~capacity:(max 1 records) () in
        List.iter
          (fun (br : Vg.branch) ->
            Bitvec.union_in_place any_live (local_col t br.Vg.bid sid))
          active;
        let live = Bitvec.pop_count any_live in
        {
          R.sg_id = sid;
          sg_file = Filename.basename (Col_segment.path s.seg);
          sg_bytes = Col_segment.byte_size s.seg;
          sg_pages = Col_segment.page_count s.seg;
          sg_records = records;
          sg_live_records = live;
          sg_fragmentation = R.fragmentation ~live ~records;
        })
  in
  let chains =
    Hashtbl.fold
      (fun _ (b, snaps) acc ->
        List.fold_left
          (fun chain (sid, idx) ->
            max chain (Commit_history.replay_length (history t b sid) idx))
          0 snaps
        :: acc)
      t.commit_loc []
  in
  let max_chain, mean_chain = R.chain_stats chains in
  let h_files, h_bytes = history_footprint t in
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
        R.h_files;
        h_bytes;
        h_commits = Hashtbl.length t.commit_loc;
        h_max_chain = max_chain;
        h_mean_chain = mean_chain;
      };
  }

(* The manifest body persists the graph, every segment's local bitmap
   and block index, branch head segments, the branch–segment bitmap and
   history bookkeeping; the commit locator, dirtiness and WAL marker
   follow as {!Manifest}'s shared tail.  The key index is rebuilt from
   local bitmaps on reopen.  Histories reach disk first, so the
   manifest never references a record that is not there. *)
let save_manifest ?path t =
  Hashtbl.iter (fun _ h -> Commit_history.flush h) t.histories;
  Manifest.write
    (Option.value path ~default:(Manifest.path Manifest.Hy t.dir))
    (fun buf ->
      Manifest.write_head buf ~compress:t.compress ~graph:t.graph
        ~schema:t.schema;
      Binio.write_varint buf (Vec.length t.segments);
      Vec.iter
        (fun s ->
          Col_segment.save_meta buf s.seg;
          Branch_bitmap.serialize buf s.local)
        t.segments;
      Binio.write_list Binio.write_varint buf (Vec.to_list t.head_seg);
      Branch_bitmap.serialize buf t.seg_index;
      Binio.write_varint buf (Hashtbl.length t.hist_segs);
      Hashtbl.iter
        (fun b l ->
          Binio.write_varint buf b;
          Binio.write_list Binio.write_varint buf !l)
        t.hist_segs;
      Manifest.write_tail buf ~locators:t.commit_loc
        (fun buf (b, snaps) ->
          Binio.write_varint buf b;
          Binio.write_list
            (fun buf (sid, idx) ->
              Binio.write_varint buf sid;
              Binio.write_varint buf idx)
            buf snaps)
        ~dirty:t.dirty ~wal_marker:t.wal_marker)

(* [Col_segment.save_meta] flushes each segment first *)
let flush t = save_manifest t

(* A bitmap whose branches are graph branches and whose every column
   stays below [rows]. *)
let check_bitmap what bm ~branches ~rows =
  Manifest.check what (Branch_bitmap.branch_count bm <= branches);
  for b = 0 to Branch_bitmap.branch_count bm - 1 do
    Manifest.check what
      (Bitvec.length (Branch_bitmap.column_view bm ~branch:b) <= rows)
  done

(* Manifest body past the format header.  [read_seg] reads one
   segment's section (segment plus local bitmap): the v2 block index
   here, a staged v1 offset table in [upgrade_v1]. *)
let load ~dir ~pool ~read_seg data pos =
  let compress, graph, schema = Manifest.read_head data pos in
  let branches = Vg.branch_count graph in
  let t =
    {
      dir;
      pool;
      schema;
      compress;
      graph;
      segments = Vec.create ~dummy:seg_dummy ();
      head_seg = Vec.create ~dummy:(-1) ();
      seg_index = Branch_bitmap.create ();
      pk = Pk_index.create ();
      histories = Hashtbl.create 64;
      hist_segs = Hashtbl.create 16;
      commit_loc = Hashtbl.create 64;
      dirty = Hashtbl.create 16;
      wal_marker = 0;
      closed = false;
    }
  in
  let nsegs = Binio.read_varint data pos in
  for seg_id = 0 to nsegs - 1 do
    let seg, local = read_seg ~schema ~compress seg_id data pos in
    check_bitmap "local bitmap" local ~branches ~rows:(Col_segment.rows seg);
    let _ = Vec.push t.segments { seg_id; seg; local } in
    ()
  done;
  let read_sid = Manifest.read_id "segment" ~bound:nsegs in
  let read_branch = Manifest.read_id "branch" ~bound:branches in
  List.iter
    (fun sid -> ignore (Vec.push t.head_seg sid))
    (Binio.read_list read_sid data pos);
  Manifest.check "head segments" (Vec.length t.head_seg = branches);
  let seg_index = Branch_bitmap.deserialize data pos in
  check_bitmap "segment index" seg_index ~branches ~rows:nsegs;
  (* seg_index is immutable in the record; rebuild via overwrite *)
  for b = 0 to Branch_bitmap.branch_count seg_index - 1 do
    ensure_branch t.seg_index b;
    Branch_bitmap.overwrite_column t.seg_index ~branch:b
      (Branch_bitmap.column_view seg_index ~branch:b)
  done;
  for _ = 1 to Binio.read_varint data pos do
    let b = read_branch data pos in
    Hashtbl.replace t.hist_segs b (ref (Binio.read_list read_sid data pos))
  done;
  t.wal_marker <-
    Manifest.read_tail data pos ~locators:t.commit_loc
      (fun s pos ->
        let b = read_branch s pos in
        let snaps =
          Binio.read_list
            (fun s pos ->
              let sid = read_sid s pos in
              (sid, Binio.read_varint s pos))
            s pos
        in
        (b, snaps))
      ~dirty:t.dirty ~branches;
  (* rebuild the key index from the local bitmaps.  A branch starts
     from the map of the branch it was created from (any earlier branch
     would do) and applies the rows their columns differ in, so the maps
     share structure as before the reopen and the rebuild pays per
     difference. *)
  let no_col = Bitvec.create () in
  for b = 0 to branches - 1 do
    let base =
      let p = (Vg.version graph (Vg.branch graph b).Vg.base).Vg.on_branch in
      if p < b then Some p else None
    in
    let bid = Pk_index.add_branch t.pk ~from:base in
    assert (bid = b);
    let base_col sid =
      match base with Some p -> local_col t p sid | None -> no_col
    in
    (* removals first: a key that moved to another row is re-added *)
    Vec.iter
      (fun s ->
        Bitvec.iter_set
          (fun row -> Pk_index.remove t.pk ~branch:b (key_at t s.seg_id row))
          (Bitvec.diff (base_col s.seg_id) (local_col t b s.seg_id)))
      t.segments;
    Vec.iter
      (fun s ->
        Bitvec.iter_set
          (fun row ->
            Pk_index.set t.pk ~branch:b (key_at t s.seg_id row) (s.seg_id, row))
          (Bitvec.diff (local_col t b s.seg_id) (base_col s.seg_id)))
      t.segments
  done;
  t

let open_existing ~cut_tails ~dir ~pool =
  Col_segment.with_opened ~cut_tails (fun open_v2 ->
      Manifest.load Manifest.Hy ~dir
        (load ~dir ~pool ~read_seg:(fun ~schema ~compress seg_id data pos ->
             let seg =
               open_v2 ~pool ~schema ~compress ~path:(seg_file_path dir seg_id)
                 data pos
             in
             (seg, Branch_bitmap.deserialize data pos))))

(* A v1 segment section is the heap's byte size, the local bitmap and
   the per-row offset table, where v2 keeps the block index before the
   local bitmap. *)
let upgrade_v1 ~dir ~pool =
  Seg_v1.upgrade Manifest.Hy ~dir (fun st data pos ->
      let t =
        load ~dir ~pool data pos
          ~read_seg:(fun ~schema ~compress seg_id data pos ->
            let size = Binio.read_varint data pos in
            let local = Branch_bitmap.deserialize data pos in
            let offsets = Binio.read_list Binio.read_varint data pos in
            let seg, _ =
              Seg_v1.stage st ~pool ~schema ~compress ~layout:Seg_v1.Tagged
                ~offsets ~path:(seg_file_path dir seg_id) ~size ()
            in
            (seg, local))
      in
      fun path -> save_manifest ~path t)

let wal_marker t = t.wal_marker
let set_wal_marker t lsn = t.wal_marker <- lsn

let verify t =
  Manifest.verify Manifest.Hy ~dir:t.dir ~graph:t.graph
    (List.map (fun s -> s.seg) (Vec.to_list t.segments))
    t.commit_loc
    (fun (_, snaps) -> List.map fst snaps)

(* ------------------------------------------------------------------ *)
(* maintenance *)

let hist_file b sid = Printf.sprintf "hist_b%d_s%d.chx" b sid
let hist_path t b sid = Filename.concat t.dir (hist_file b sid)

let referenced_files t =
  let segs =
    List.init (Vec.length t.segments) (fun sid ->
        Printf.sprintf "seg_%d.dat" sid)
  in
  let hists =
    Hashtbl.fold
      (fun b l acc ->
        List.fold_left (fun acc sid -> hist_file b sid :: acc) acc !l)
      t.hist_segs []
  in
  segs @ List.sort compare hists

(* branches owning a commit history for segment [sid], ascending *)
let hist_branches t sid =
  Hashtbl.fold
    (fun b l acc -> if List.mem sid !l then b :: acc else acc)
    t.hist_segs []
  |> List.sort compare

(* Rows of [sid] that anything still addresses: any branch's local
   column (active or not) or any commit snapshot in any branch's
   history for this segment.  Rows outside this set are unreachable
   from every head and every committed version, so a compaction may
   drop them. *)
let keep_set t sid =
  let s = segment t sid in
  let keep = Bitvec.create ~capacity:(max 1 (Col_segment.rows s.seg)) () in
  for b = 0 to Branch_bitmap.branch_count s.local - 1 do
    Bitvec.union_in_place keep (Branch_bitmap.column_view s.local ~branch:b)
  done;
  List.iter
    (fun b ->
      let h = history t b sid in
      for i = 0 to Commit_history.count h - 1 do
        Bitvec.union_in_place keep (Commit_history.checkout h i)
      done)
    (hist_branches t sid);
  keep

let seg_by_file t name =
  let found = ref None in
  Vec.iter
    (fun s ->
      if Filename.basename (Col_segment.path s.seg) = name then
        found := Some s.seg_id)
    t.segments;
  !found

(* Compact segment [sid] into a fresh tail segment: copy only
   still-referenced rows (order preserved), rebuild the segment's
   commit histories with remapped rows at unchanged commit indices,
   and repoint every in-memory reference (local bitmap, key index,
   head pointers, branch–segment index, hist bookkeeping, commit
   locators).  The old slot is re-staffed with an EMPTY segment whose
   file is deliberately NOT truncated: until the manifest commits, a
   crash must reopen the old bytes.  The committed manifest records
   size 0 for the slot, so [Col_segment.with_opened]'s truncate
   self-heals the file on the next reopen, and the in-process
   [mp_cleanup] truncates it eagerly after invalidating the old
   handle's buffer-pool pages. *)
let plan_compact t ~kind sid =
  if sid < 0 || sid >= Vec.length t.segments then None
  else begin
    let rows = Col_segment.rows (segment t sid).seg in
    let kept = Bitvec.pop_count (keep_set t sid) in
    if rows = 0 || kept >= rows then None
    else begin
      let new_sid = Vec.length t.segments in
      let hbranches = hist_branches t sid in
      let bytes_before =
        Col_segment.byte_size (segment t sid).seg
        + List.fold_left
            (fun acc b -> acc + Commit_history.disk_bytes (history t b sid))
            0 hbranches
      in
      let new_seg_path = seg_file_path t.dir new_sid in
      (* handles retired by the swap, reclaimed by cleanup *)
      let retired : (Col_segment.t * Commit_history.t list) option ref =
        ref None
      in
      let apply () =
        let s = segment t sid in
        let rows = Col_segment.rows s.seg in
        Col_segment.flush s.seg;
        let keep = keep_set t sid in
        let map = Array.make (max 1 rows) (-1) in
        let new_seg =
          Col_segment.create_v2 ~pool:t.pool ~schema:t.schema
            ~compress:t.compress ~path:new_seg_path
        in
        let new_hists = ref [] in
        (try
           Decibel_fault.Failpoint.hit "maint.rewrite";
           let next = ref 0 in
           for row = 0 to rows - 1 do
             if Bitvec.get keep row then begin
               let r =
                 Col_segment.append new_seg
                   (Col_segment.Live (tuple_at t sid row))
               in
               assert (r = !next);
               map.(row) <- !next;
               incr next
             end
           done;
           Col_segment.flush new_seg;
           (* rebuild histories commit-by-commit so indices — what the
              commit locators store — survive unchanged *)
           List.iter
             (fun b ->
               let oldh = history t b sid in
               let nh = Commit_history.create ~path:(hist_path t b new_sid) in
               new_hists := (b, nh) :: !new_hists;
               for i = 0 to Commit_history.count oldh - 1 do
                 let col = Commit_history.checkout oldh i in
                 let ncol = Bitvec.create ~capacity:(max 1 !next) () in
                 Bitvec.iter_set
                   (fun row ->
                     if map.(row) >= 0 then Bitvec.set ncol map.(row))
                   col;
                 let idx = Commit_history.commit nh ncol in
                 assert (idx = i)
               done)
             hbranches
         with e ->
           (* the new histories are still pending: dropping them
              leaves no file behind *)
           Col_segment.abandon new_seg;
           (try Sys.remove new_seg_path with Sys_error _ -> ());
           raise e);
        (* swap: pure in-memory repointing, nothing below raises *)
        let new_local = Branch_bitmap.create () in
        for b = 0 to Branch_bitmap.branch_count s.local - 1 do
          let col = Branch_bitmap.column_view s.local ~branch:b in
          if not (Bitvec.is_empty col) then begin
            ensure_branch new_local b;
            let ncol = Bitvec.create () in
            Bitvec.iter_set
              (fun row -> if map.(row) >= 0 then Bitvec.set ncol map.(row))
              col;
            Branch_bitmap.overwrite_column new_local ~branch:b ncol
          end
        done;
        let slot =
          Vec.push t.segments
            { seg_id = new_sid; seg = new_seg; local = new_local }
        in
        assert (slot = new_sid);
        let old_hists =
          List.map
            (fun b ->
              let oldh = history t b sid in
              Hashtbl.remove t.histories (b, sid);
              oldh)
            hbranches
        in
        List.iter
          (fun (b, nh) -> Hashtbl.replace t.histories (b, new_sid) nh)
          !new_hists;
        Hashtbl.iter
          (fun _b l ->
            l := List.map (fun s' -> if s' = sid then new_sid else s') !l)
          t.hist_segs;
        let reloc =
          Hashtbl.fold
            (fun vid (b, snaps) acc ->
              if List.exists (fun (s', _) -> s' = sid) snaps then
                (vid, b, snaps) :: acc
              else acc)
            t.commit_loc []
        in
        List.iter
          (fun (vid, b, snaps) ->
            Hashtbl.replace t.commit_loc vid
              ( b,
                List.map
                  (fun (s', i) -> ((if s' = sid then new_sid else s'), i))
                  snaps ))
          reloc;
        for b = 0 to Vec.length t.head_seg - 1 do
          if Vec.get t.head_seg b = sid then Vec.set t.head_seg b new_sid
        done;
        for b = 0 to Branch_bitmap.branch_count t.seg_index - 1 do
          if Branch_bitmap.get t.seg_index ~branch:b ~row:sid then begin
            Branch_bitmap.clear t.seg_index ~branch:b ~row:sid;
            let nonempty =
              b < Branch_bitmap.branch_count new_local
              && not
                   (Bitvec.is_empty
                      (Branch_bitmap.column_view new_local ~branch:b))
            in
            if nonempty then
              Branch_bitmap.set t.seg_index ~branch:b ~row:new_sid
          end
        done;
        for b = 0 to Vec.length t.head_seg - 1 do
          let moves = ref [] in
          Pk_index.iter t.pk ~branch:b (fun key (s', row) ->
              if s' = sid then moves := (key, map.(row)) :: !moves);
          List.iter
            (fun (key, nrow) ->
              if nrow >= 0 then Pk_index.set t.pk ~branch:b key (new_sid, nrow))
            !moves
        done;
        let stub =
          Col_segment.empty_over ~pool:t.pool ~schema:t.schema
            ~compress:t.compress ~path:(seg_file_path t.dir sid)
        in
        Vec.set t.segments sid
          { seg_id = sid; seg = stub; local = Branch_bitmap.create () };
        retired := Some (s.seg, old_hists)
      in
      let cleanup () =
        match !retired with
        | None -> ()
        | Some (old_seg, old_hists) ->
            List.iter
              (fun h ->
                try Sys.remove (Commit_history.path h) with Sys_error _ -> ())
              old_hists;
            (* the old handle's buffer-pool pages are invalidated by
               its close BEFORE the slot file is truncated, so a
               recycled file id can never serve the stale bytes *)
            (try Col_segment.close old_seg with _ -> ());
            let slot = segment t sid in
            (try Col_segment.close slot.seg with _ -> ());
            let fresh =
              Col_segment.create_v2 ~pool:t.pool ~schema:t.schema
                ~compress:t.compress ~path:(seg_file_path t.dir sid)
            in
            Vec.set t.segments sid
              { seg_id = sid; seg = fresh; local = Branch_bitmap.create () };
            retired := None
      in
      Some
        {
          Engine_intf.mp_kind = kind;
          mp_target = Printf.sprintf "seg_%d.dat" sid;
          mp_new_files =
            Filename.basename new_seg_path
            :: List.map (fun b -> hist_file b new_sid) hbranches;
          mp_old_files = List.map (fun b -> hist_file b sid) hbranches;
          mp_bytes_before = bytes_before;
          mp_apply = apply;
          mp_cleanup = cleanup;
        }
    end
  end

let is_head t sid =
  let r = ref false in
  Vec.iter (fun h -> if h = sid then r := true) t.head_seg;
  !r

let plan_maintenance t ~kind ~target =
  match kind with
  | Engine_intf.M_materialize -> None (* no delta chains in this scheme *)
  | Engine_intf.M_compact -> (
      match seg_by_file t target with
      | None -> None
      | Some sid -> plan_compact t ~kind sid)
  | Engine_intf.M_gc ->
      (* pick the most fragmented non-head segment with dead rows *)
      let best = ref None in
      Vec.iter
        (fun s ->
          if not (is_head t s.seg_id) then begin
            let rows = Col_segment.rows s.seg in
            if rows > 0 then begin
              let dead = rows - Bitvec.pop_count (keep_set t s.seg_id) in
              if dead > 0 then
                match !best with
                | Some (_, d) when d >= dead -> ()
                | _ -> best := Some (s.seg_id, dead)
            end
          end)
        t.segments;
      Option.bind !best (fun (sid, _) -> plan_compact t ~kind sid)

(* histories hold no descriptor: a crash drops their pending records *)
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
