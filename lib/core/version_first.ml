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
    records are read newest-first.  The first copy of a key seen wins,
    decided from the key column and tombstone bits alone; tuples are
    built only for live winners (DESIGN.md §15).

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
module Par = Decibel_par.Par
module Gctx = Decibel_governor.Governor.Ctx

(* same engine.* names as the other schemes: Obs interns by name, so
   all engines feed the shared counters *)
let c_scan_pages = Obs.counter "engine.scan.pages"
let c_scan_segments = Obs.counter "engine.scan.segments"

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

(* First writer wins, over one plan item's [blocks] (newest first):
   rows [0, upto) are visited newest first and a key's first copy in
   the walk decides it, from the key column and tombstone bits alone.
   [f] receives each live winner's segment, row, key and block. *)
let settle ~seen ~poll (sid, upto) blocks f =
  List.iter
    (fun blk ->
      let lo, hi = Col_segment.extent blk in
      for row = min hi upto - 1 downto lo do
        poll ();
        let key = Col_segment.key blk row in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          if not (Col_segment.is_tombstone blk row) then f sid row key blk
        end
      done)
    blocks

(* Plan items' blocks, decoded in parallel (each block fetched and
   decoded once) and handed to [consume] serially, in plan order.  The
   decoded extent is billed to the operation's budget here, once, on
   every path. *)
let decode ?ctx ?keys_only t items consume =
  Gctx.charge_current
    (List.fold_left
       (fun acc (sid, upto) ->
         acc + Col_segment.bytes_upto (segment t sid).seg upto)
       0 items);
  let items = Array.of_list items in
  Par.parallel_iter_buffered ?ctx ~n:(Array.length items)
    ~produce:(fun i ->
      let sid, upto = items.(i) in
      (items.(i), Col_segment.blocks_rev ?keys_only ~upto (segment t sid).seg))
    ~consume ()

(* The lineage walk behind every read of a branch's contents: each
   key's winner once, newest copy first within a plan item, items in
   plan order (descendants before ancestors).  Winners are settled
   serially over the buffered blocks, so a parallel walk yields
   exactly the serial winners in the serial order.  [~keys_only]
   decodes just the key column (index rebuilds). *)
let walk ?ctx ?keys_only t items f =
  let seen = Hashtbl.create 1024 and poll = Gctx.poller ctx in
  decode ?ctx ?keys_only t items (fun (item, blocks) ->
      settle ~seen ~poll item blocks f)

let head_loc t b =
  let sid = Vec.get t.head_seg b in
  (sid, Col_segment.rows (segment t sid).seg)

let commit_loc t vid =
  match Hashtbl.find_opt t.commits vid with
  | Some loc -> loc
  | None -> errorf "version-first: version %d has no commit record" vid

let commit t b ~message =
  let sid, upto = head_loc t b in
  Col_segment.flush (segment t sid).seg;
  let vid = Vg.commit t.graph b ~message in
  Hashtbl.replace t.commits vid (sid, upto);
  set_dirty t b false;
  vid

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
    walk ~keys_only:true t (plan t psid prow) (fun sid row key _ ->
        Pk_index.set t.pk ~branch:nb key (sid, row))
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
  set_dirty t b true

let update t b tuple =
  validate t tuple;
  let key = Tuple.pk t.schema tuple in
  if not (Pk_index.mem t.pk ~branch:b key) then
    errorf "version-first: update of absent key %s" (Value.to_string key);
  let loc = append t b (Col_segment.Live tuple) in
  Pk_index.set t.pk ~branch:b key loc;
  set_dirty t b true

let delete t b key =
  if not (Pk_index.mem t.pk ~branch:b key) then
    errorf "version-first: delete of absent key %s" (Value.to_string key);
  let _ = append t b (Col_segment.Tombstone key) in
  Pk_index.remove t.pk ~branch:b key;
  set_dirty t b true

let fetch t (sid, row) =
  match Col_segment.get (segment t sid).seg row with
  | Col_segment.Live tuple -> tuple
  | Col_segment.Tombstone _ ->
      errorf "version-first: key index points at tombstone"

let lookup t b key =
  Option.map (fetch t) (Pk_index.find t.pk ~branch:b key)

(* A single-lineage read also reports its extent: each planned
   (segment, upto) pair up to the branch point, in buffer-pool pages.
   It is charged by the cost kinds' definitions: one delta fragment
   per plan item, one scanned tuple per live winner. *)
let scan_loc ?ctx t (sid, upto) f =
  let items = plan t sid upto in
  let psz = Buffer_pool.page_size t.pool in
  List.iter
    (fun (s, u) ->
      let bytes = Col_segment.bytes_upto (segment t s).seg u in
      Obs.add c_scan_pages ((bytes + psz - 1) / psz))
    items;
  Obs.add c_scan_segments (List.length items);
  Obs.charge Obs.Prof.Delta_fragments (List.length items);
  let n = ref 0 in
  walk ?ctx t items (fun _ row _ blk ->
      incr n;
      f (Col_segment.tuple blk row));
  Obs.charge Obs.Prof.Tuples_scanned !n

let scan ?ctx t b f = scan_loc ?ctx t (head_loc t b) f

(* Winners must be resolved before predicates apply: filtering below
   the newest-copy-wins dedup would let a stale copy of a key win when
   its head copy fails the predicate.  So version-first evaluates
   predicates row-wise on winning tuples. *)
let scan_filtered ?ctx t b ~preds f =
  scan ?ctx t b (fun tuple -> if Col_pred.eval_tuple preds tuple then f tuple)

let scan_version ?ctx t vid f = scan_loc ?ctx t (commit_loc t vid) f

(* Multi-branch scan, per the paper's two-pass scheme (§3.3).  Pass
   one decodes the key column of every segment in the union of the
   heads' lineages once, over the longest extent any plan reads, and
   settles each head's live winners into one bitmap per segment.  Pass
   two scans each segment once, in id order, selecting the union of
   its bitmaps, and annotates each row with the heads whose bitmap
   holds it. *)
let multi_scan ?ctx t branches f =
  let plans =
    List.map
      (fun b ->
        let sid, upto = head_loc t b in
        (b, plan t sid upto))
      branches
  in
  let extent = Hashtbl.create 16 in
  List.iter
    (fun (sid, upto) ->
      if upto >= Option.value ~default:0 (Hashtbl.find_opt extent sid) then
        Hashtbl.replace extent sid upto)
    (List.concat_map snd plans);
  let union = List.sort compare (List.of_seq (Hashtbl.to_seq extent)) in
  let keys = Hashtbl.create 16 in
  decode ?ctx ~keys_only:true t union (fun ((sid, _), blocks) ->
      Hashtbl.replace keys sid blocks);
  (* segment -> [(head, its live winners there)], heads ascending;
     heads are settled in descending order so consing sorts them *)
  let owners = Hashtbl.create 16 in
  List.iter
    (fun (b, items) ->
      let seen = Hashtbl.create 1024 and poll = Gctx.poller ctx in
      Obs.charge Obs.Prof.Delta_fragments (List.length items);
      List.iter
        (fun ((sid, _) as item) ->
          let bits = Bitvec.create () in
          settle ~seen ~poll item (Hashtbl.find keys sid) (fun _ row _ _ ->
              Bitvec.set bits row);
          if not (Bitvec.is_empty bits) then
            Hashtbl.replace owners sid
              ((b, bits)
              :: Option.value ~default:[] (Hashtbl.find_opt owners sid));
          Obs.charge Obs.Prof.Tuples_scanned (Bitvec.pop_count bits))
        items)
    (List.rev (List.stable_sort (fun (a, _) (b, _) -> compare a b) plans));
  (* pass 2: [owners] is read-only from here on, so segments decode in
     parallel; buffered segments are consumed in id order *)
  let annotated sid =
    let owners = Option.value ~default:[] (Hashtbl.find_opt owners sid) in
    let any = Bitvec.create () and poll = Gctx.poller ctx and acc = ref [] in
    List.iter (fun (_, bits) -> Bitvec.union_in_place any bits) owners;
    if owners <> [] then
      Col_segment.scan ~sel:any (segment t sid).seg (fun row tuple ->
          poll ();
          let in_branches =
            List.filter_map
              (fun (b, bits) -> if Bitvec.get bits row then Some b else None)
              owners
          in
          acc := { tuple; in_branches } :: !acc);
    List.rev !acc
  in
  let sids = Array.of_list (List.map fst union) in
  Par.parallel_iter_buffered ?ctx ~n:(Array.length sids)
    ~produce:(fun i -> annotated sids.(i))
    ~consume:(List.iter f) ()

(* Content diff needs the active records of both branches, which
   version-first can only obtain with full lineage scans — the
   multiple-pass cost the paper reports for Q2 (§5.2). *)
let diff ?ctx t a b ~pos ~neg =
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

(* A branch's changes since the LCA.  Its keys come from the segment
   ranges of its lineage beyond the LCA's coverage (the records
   "appearing after the lowest common ancestor", §3.3 Diff/Merge), read
   from the key column alone, oldest row first.  Current states are
   fetched in (segment, row) order, so each block meets the one-block
   cache once; a key whose state equals the LCA's is dropped. *)
let changes_since t b (lca_sid, lca_upto) ~lca_state =
  let lca_cover = Hashtbl.create 16 in
  List.iter
    (fun (s, u) -> Hashtbl.replace lca_cover s u)
    (plan t lca_sid lca_upto);
  let keys = Hashtbl.create 256 in
  let sid, upto = head_loc t b in
  List.iter
    (fun (s, u) ->
      let from = Option.value ~default:0 (Hashtbl.find_opt lca_cover s) in
      List.iter
        (fun blk ->
          let lo, hi = Col_segment.extent blk in
          for row = lo to hi - 1 do
            Hashtbl.replace keys (Col_segment.key blk row) ()
          done)
        (List.rev
           (Col_segment.blocks_rev ~keys_only:true ~from ~upto:u
              (segment t s).seg)))
    (plan t sid upto);
  let states = Hashtbl.create (Hashtbl.length keys) in
  Hashtbl.fold
    (fun key () acc -> (Pk_index.find t.pk ~branch:b key, key) :: acc)
    keys []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (loc, key) ->
         Hashtbl.replace states key (Option.map (fetch t) loc));
  let tbl = Hashtbl.create (Hashtbl.length keys) in
  Hashtbl.iter
    (fun key () ->
      let state = Hashtbl.find states key
      and base = Hashtbl.find_opt lca_state key in
      if not (Option.equal Tuple.equal state base) then
        Hashtbl.replace tbl key { Merge_driver.state; base })
    keys;
  tbl

let merge ?ctx t ~into ~from ~policy ~message =
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
  let lca_state = Hashtbl.create 4096 in
  walk ?ctx t (plan t (fst lca_loc) (snd lca_loc)) (fun _ row key blk ->
      Hashtbl.replace lca_state key (Col_segment.tuple blk row));
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

(* The manifest body persists the version graph, the segment DAG
   (parent pointers with branch-point rows) and the branch head
   segments; the commit locator, dirtiness and WAL marker follow as
   {!Manifest}'s shared tail.  Segment contents live in their own files
   and the key index is rebuilt by lineage scans on reopen. *)
let save_manifest ?path t =
  let write_loc buf (sid, row) =
    Binio.write_varint buf sid;
    Binio.write_varint buf row
  in
  Manifest.write
    (Option.value path ~default:(Manifest.path Manifest.Vf t.dir))
    (fun buf ->
      Manifest.write_head buf ~compress:t.compress ~graph:t.graph
        ~schema:t.schema;
      Binio.write_varint buf (Vec.length t.segments);
      Vec.iter
        (fun s ->
          Col_segment.save_meta buf s.seg;
          Binio.write_list write_loc buf s.parents)
        t.segments;
      Binio.write_list Binio.write_varint buf (Vec.to_list t.head_seg);
      Manifest.write_tail buf ~locators:t.commits write_loc ~dirty:t.dirty
        ~wal_marker:t.wal_marker)

(* [Col_segment.save_meta] flushes each segment first *)
let flush t = save_manifest t

(* Manifest body past the format header.  [read_seg] reads one
   segment's section and [row_of sid loc] turns a persisted locator
   into segment [sid]'s row: the v2 block index and rows here, a
   staged v1 heap and byte offsets in [upgrade_v1]. *)
let load ~dir ~pool ~read_seg ~row_of data pos =
  let compress, graph, schema = Manifest.read_head data pos in
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
  (* a locator names an already-read segment and a row up to its end *)
  let read_loc ~bound what s pos =
    let sid = Manifest.read_id what ~bound s pos in
    let row = row_of sid (Binio.read_varint s pos) in
    Manifest.check "row locator"
      (row >= 0 && row <= Col_segment.rows (segment t sid).seg);
    (sid, row)
  in
  let nsegs = Binio.read_varint data pos in
  for seg_id = 0 to nsegs - 1 do
    let seg = read_seg ~schema ~compress seg_id data pos in
    (* parents are earlier segments, so the DAG is acyclic *)
    let parents =
      Binio.read_list (read_loc ~bound:seg_id "parent segment") data pos
    in
    let _ = Vec.push t.segments { seg_id; seg; parents } in
    ()
  done;
  let branches = Vg.branch_count graph in
  List.iter
    (fun sid -> ignore (Vec.push t.head_seg sid))
    (Binio.read_list (Manifest.read_id "head segment" ~bound:nsegs) data pos);
  Manifest.check "head segments" (Vec.length t.head_seg = branches);
  t.wal_marker <-
    Manifest.read_tail data pos ~locators:t.commits
      (read_loc ~bound:nsegs "segment")
      ~dirty:t.dirty ~branches;
  (* rebuild the per-branch key index with one lineage scan each *)
  for b = 0 to branches - 1 do
    let bid = Pk_index.add_branch t.pk ~from:None in
    assert (bid = b);
    let sid = Vec.get t.head_seg b in
    walk ~keys_only:true t (plan t sid (Col_segment.rows (segment t sid).seg))
      (fun s row key _ -> Pk_index.set t.pk ~branch:b key (s, row))
  done;
  t

let open_existing ~cut_tails ~dir ~pool =
  Col_segment.with_opened ~cut_tails (fun open_v2 ->
      Manifest.load Manifest.Vf ~dir
        (load ~dir ~pool
           ~read_seg:(fun ~schema ~compress seg_id data pos ->
             open_v2 ~pool ~schema ~compress ~path:(seg_file_path dir seg_id)
               data pos)
           ~row_of:(fun _ row -> row)))

(* A v1 manifest persists each segment's byte size where v2 keeps the
   block index, and addresses branch points and commit uptos by byte
   offset. *)
let upgrade_v1 ~dir ~pool =
  Seg_v1.upgrade Manifest.Vf ~dir (fun st data pos ->
      (* locators name segments already read, so their heaps are
         staged by the time a locator into them is read *)
      let heaps = Hashtbl.create 8 in
      let t =
        load ~dir ~pool data pos
          ~row_of:(fun sid off ->
            Seg_v1.row_of_offset (Hashtbl.find heaps sid) off)
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
  Manifest.verify Manifest.Vf ~dir:t.dir ~graph:t.graph
    (List.map (fun s -> s.seg) (Vec.to_list t.segments))
    t.commits
    (fun (sid, _) -> [ sid ])

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
              walk t (plan t sid upto) (fun _ row _ blk ->
                  winners := Col_segment.tuple blk row :: !winners);
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
