(** Tuple-first storage (paper §3.2).

    Every tuple that has ever existed in any branch lives in one shared
    segment file, in insertion order; a bitmap index with one bit per
    (tuple, branch) records which branches each tuple is live in.
    Branching clones the parent's bitmap column; commits snapshot the
    column into a compressed per-branch history file; updates and
    deletes only flip bits (plus append the new copy on update), so old
    record versions remain readable through historical commits.

    Record storage is a {!Decibel_storage.Col_segment}, which packs
    rows into columnar blocks with per-column compression, so branch
    scans skip whole blocks the membership bitmap rules out and
    evaluate pushed predicates on decoded batches before any [Tuple.t]
    exists.

    The module is a functor over the bitmap layout
    ({!Decibel_index.Bitmap_intf.S}) so tuple-oriented and
    branch-oriented variants share all versioning logic. *)

open Decibel_util
open Decibel_storage
open Decibel_index
open Types
module Vg = Decibel_graph.Version_graph
module Obs = Decibel_obs.Obs
module Par = Decibel_par.Par
module Gctx = Decibel_governor.Governor.Ctx

(* Per-domain bitmap scratch for the in-place diff kernels. *)
let scratch_key = Domain.DLS.new_key (fun () -> Bitvec.create ())
let scratch () = Domain.DLS.get scratch_key

(* engine.* counters are shared across all three schemes (Obs.counter
   interns by name), so benchmark reports can diff them uniformly *)
let c_scan_pages = Obs.counter "engine.scan.pages"

let bitmap_words col = (Bitvec.length col + 63) / 64

module type S = sig
  include Engine_intf.S

  val upgrade_v1 : dir:string -> pool:Buffer_pool.t -> bool
end

module Make (B : Bitmap_intf.S) = struct
  type t = {
    dir : string;
    schema : Schema.t;
    compress : bool;
    graph : Vg.t;
    mutable seg : Col_segment.t; (* replaced by compaction *)
    mutable bitmap : B.t; (* replaced wholesale by compaction *)
    mutable pk : int Pk_index.t; (* branch -> key -> live row *)
    mutable gen : int; (* heap generation, bumped by each compaction *)
    histories : (branch_id, Commit_history.t) Hashtbl.t;
    commit_loc : (version_id, branch_id * int) Hashtbl.t;
        (* version -> (branch, index in that branch's history) *)
    dirty : (branch_id, bool) Hashtbl.t;
    mutable wal_marker : int; (* last WAL LSN reflected here *)
    mutable closed : bool;
  }

  let scheme = "tuple-first (" ^ B.layout ^ ")"

  (* Generation-suffixed file names: gen 0 keeps the original names so
     pre-compaction repositories are untouched; each compaction rewrites
     the heap and every history at gen+1 and retires the old files.
     History names keep the ["hist_"] prefix so directory-scan
     accounting ([commit_meta_bytes], [storage_report]) still sees
     them. *)
  let seg_file gen =
    if gen = 0 then "heap.dat" else Printf.sprintf "heap.g%d.dat" gen

  let hist_file gen b =
    if gen = 0 then Printf.sprintf "hist_b%d.chx" b
    else Printf.sprintf "hist_b%d.g%d.chx" b gen

  let history t b =
    match Hashtbl.find_opt t.histories b with
    | Some h -> h
    | None ->
        let path = Filename.concat t.dir (hist_file t.gen b) in
        let h =
          if Sys.file_exists path then Commit_history.open_existing ~path
          else Commit_history.create ~path
        in
        Hashtbl.replace t.histories b h;
        h

  let seg_path dir gen = Filename.concat dir (seg_file gen)

  let create ~compress ~dir ~pool ~schema =
    Fsutil.mkdir_p dir;
    let seg =
      Col_segment.create_v2 ~pool ~schema ~compress ~path:(seg_path dir 0)
    in
    let t =
      {
        dir;
        schema;
        compress;
        graph = Vg.create ();
        seg;
        bitmap = B.create ();
        pk = Pk_index.create ();
        gen = 0;
        histories = Hashtbl.create 16;
        commit_loc = Hashtbl.create 64;
        dirty = Hashtbl.create 16;
        wal_marker = 0;
        closed = false;
      }
    in
    let master = B.add_branch t.bitmap ~from:None in
    let _ = Pk_index.add_branch t.pk ~from:None in
    (* the root version is an explicit empty snapshot so scan_version
       treats it like any other commit *)
    let idx = Commit_history.commit (history t master) (Bitvec.create ()) in
    Hashtbl.replace t.commit_loc Vg.root_version (master, idx);
    t

  let schema t = t.schema
  let graph t = t.graph

  let is_dirty t b = Hashtbl.find_opt t.dirty b = Some true
  let set_dirty t b v = Hashtbl.replace t.dirty b v
  let tuple_at t row = Col_segment.get_tuple t.seg row
  let key_at t row = Tuple.pk t.schema (tuple_at t row)

  let bitmap_at_version t vid =
    match Hashtbl.find_opt t.commit_loc vid with
    | Some (b, idx) -> Commit_history.checkout (history t b) idx
    | None -> errorf "tuple-first: version %d has no snapshot" vid

  let commit t b ~message =
    let col = B.snapshot t.bitmap ~branch:b in
    let idx = Commit_history.commit (history t b) col in
    let vid = Vg.commit t.graph b ~message in
    Hashtbl.replace t.commit_loc vid (b, idx);
    set_dirty t b false;
    vid

  let create_branch t ~name ~from =
    let v = Vg.version t.graph from in
    let parent = v.Vg.on_branch in
    let nb =
      try Vg.create_branch t.graph ~name ~from
      with Invalid_argument msg -> errorf "tuple-first: %s" msg
    in
    if Vg.head t.graph parent = from && not (is_dirty t parent)
       && (Vg.branch t.graph parent).Vg.head = from
    then begin
      (* fast path: clone the parent's live column and key index,
         the paper's "simple memory copy" (§3.2 Branch) *)
      let bid = B.add_branch t.bitmap ~from:(Some parent) in
      let _ = Pk_index.add_branch t.pk ~from:(Some parent) in
      assert (bid = nb)
    end
    else begin
      (* branching from a historical commit: restore its bitmap and
         rebuild the key index from the restored column *)
      let col = bitmap_at_version t from in
      let bid = B.add_branch t.bitmap ~from:None in
      let _ = Pk_index.add_branch t.pk ~from:None in
      assert (bid = nb);
      B.overwrite_column t.bitmap ~branch:nb col;
      Bitvec.iter_set
        (fun row -> Pk_index.set t.pk ~branch:nb (key_at t row) row)
        col
    end;
    set_dirty t nb false;
    nb

  let validate t tuple =
    match Schema.validate t.schema tuple with
    | Ok () -> ()
    | Error msg -> errorf "tuple-first: %s" msg

  let append_record t tuple =
    let row = Col_segment.append t.seg (Col_segment.Live tuple) in
    let row' = B.append_row t.bitmap in
    assert (row = row');
    row

  let insert t b tuple =
    validate t tuple;
    let key = Tuple.pk t.schema tuple in
    if Pk_index.mem t.pk ~branch:b key then
      errorf "tuple-first: duplicate key %s in branch %d"
        (Value.to_string key) b;
    let row = append_record t tuple in
    B.set t.bitmap ~branch:b ~row;
    Pk_index.set t.pk ~branch:b key row;
    set_dirty t b true

  let update t b tuple =
    validate t tuple;
    let key = Tuple.pk t.schema tuple in
    match Pk_index.find t.pk ~branch:b key with
    | None ->
        errorf "tuple-first: update of absent key %s" (Value.to_string key)
    | Some old_row ->
        B.clear t.bitmap ~branch:b ~row:old_row;
        let row = append_record t tuple in
        B.set t.bitmap ~branch:b ~row;
        Pk_index.set t.pk ~branch:b key row;
        set_dirty t b true

  let delete t b key =
    match Pk_index.find t.pk ~branch:b key with
    | None ->
        errorf "tuple-first: delete of absent key %s" (Value.to_string key)
    | Some row ->
        B.clear t.bitmap ~branch:b ~row;
        Pk_index.remove t.pk ~branch:b key;
        set_dirty t b true

  let lookup t b key =
    Option.map (tuple_at t) (Pk_index.find t.pk ~branch:b key)

  (* Single scans drive the segment's batch reader with the branch
     column as the selection bitmap: blocks with no selected row are
     skipped before any read or decode (the interleaved-load penalty of
     §5.2 becomes a bitmap test instead of a page fetch), and pushed
     predicates run on the decoded columns before tuples materialize.
     Row-range parallel form: rows ascend within a range and ranges are
     consumed in ascending order, so the tuple stream matches the
     serial walk. *)
  let scan_col ?ctx ?(preds = []) t col f =
    let serial () =
      let poll = Gctx.poller ctx in
      Col_segment.scan ~sel:col ~preds t.seg (fun _row tuple ->
          poll ();
          f tuple)
    in
    if not (Par.available ()) then serial ()
    else
      let ranges = Par.chunk_ranges (Bitvec.length col) in
      if Array.length ranges <= 1 then serial ()
      else
        Par.parallel_iter_buffered ?ctx ~n:(Array.length ranges)
          ~produce:(fun i ->
            let poll = Gctx.poller ctx in
            let lo, hi = ranges.(i) in
            let acc = ref [] in
            Col_segment.scan ~sel:col ~preds ~from:lo ~upto:hi t.seg
              (fun _row tuple ->
                poll ();
                acc := tuple :: !acc);
            List.rev !acc)
          ~consume:(fun tuples -> List.iter f tuples)
          ()

  (* Costs are charged per scan, not per row: the live count is the
     column's population, and the page figure is the segment's page
     count rather than a per-row count (scattered rows under
     interleaved loads touch nearly every page, §5.2). *)
  let charge_col t col =
    Obs.add c_scan_pages (Col_segment.page_count t.seg);
    Obs.charge Obs.Prof.Bitmap_words (bitmap_words col);
    Obs.charge Obs.Prof.Tuples_scanned (Bitvec.pop_count col)

  let scan ?ctx t b f =
    let col = B.column_view t.bitmap ~branch:b in
    charge_col t col;
    scan_col ?ctx t col f

  let scan_filtered ?ctx t b ~preds f =
    let col = B.column_view t.bitmap ~branch:b in
    charge_col t col;
    scan_col ?ctx ~preds t col f

  let scan_version ?ctx t vid f =
    let col = bitmap_at_version t vid in
    charge_col t col;
    scan_col ?ctx t col f

  let multi_scan ?ctx t branches f =
    Obs.add c_scan_pages (Col_segment.page_count t.seg);
    List.iter
      (fun b ->
        Obs.charge Obs.Prof.Tuples_scanned
          (Bitvec.pop_count (B.column_view t.bitmap ~branch:b)))
      branches;
    let nrows = Col_segment.rows t.seg in
    let probe row =
      List.filter (fun b -> B.get t.bitmap ~branch:b ~row) branches
    in
    let ranges = if Par.available () then Par.chunk_ranges nrows else [||] in
    if Array.length ranges > 1 then
      (* rows ascend within a range and ranges are consumed in order,
         so the annotated stream matches the serial record walk below *)
      Par.parallel_iter_buffered ?ctx ~n:(Array.length ranges)
        ~produce:(fun i ->
          let poll = Gctx.poller ctx in
          let lo, hi = ranges.(i) in
          let acc = ref [] in
          Col_segment.iter ~from:lo ~upto:hi t.seg (fun row rv ->
              poll ();
              match rv with
              | Col_segment.Tombstone _ -> ()
              | Col_segment.Live tuple ->
                  let live = probe row in
                  if live <> [] then
                    acc := { tuple; in_branches = live } :: !acc);
          List.rev !acc)
        ~consume:(fun l -> List.iter f l)
        ()
    else
      let poll = Gctx.poller ctx in
      Col_segment.iter t.seg (fun row rv ->
          poll ();
          match rv with
          | Col_segment.Tombstone _ -> ()
          | Col_segment.Live tuple ->
              let live = probe row in
              if live <> [] then f { tuple; in_branches = live })


  (* Bitmap XOR yields candidate rows; a key-level content check drops
     rows whose key has an identical live copy on the other side, so
     diff is by content, consistently across engines. *)
  let diff ?ctx t a b ~pos ~neg =
    let ca = B.column_view t.bitmap ~branch:a in
    let cb = B.column_view t.bitmap ~branch:b in
    List.iter
      (fun col ->
        Obs.charge Obs.Prof.Bitmap_words (bitmap_words col);
        Obs.charge Obs.Prof.Tuples_scanned (Bitvec.pop_count col))
      [ ca; cb ];
    (* candidate rows into the per-domain scratch, in place *)
    let sym = scratch () in
    Bitvec.copy_into ~src:ca ~dst:sym;
    Bitvec.xor_in_place sym cb;
    Gctx.charge_current ((Bitvec.length sym + 7) lsr 3);
    let emit_side ~live_in ~other out row =
      if Bitvec.get live_in row then begin
        let tuple = tuple_at t row in
        let key = Tuple.pk t.schema tuple in
        let same =
          match lookup t other key with
          | Some other_t -> Tuple.equal tuple other_t
          | None -> false
        in
        if not same then out tuple
      end
    in
    let serial () =
      let poll = Gctx.poller ctx in
      Bitvec.iter_set
        (fun row ->
          poll ();
          emit_side ~live_in:ca ~other:b pos row;
          emit_side ~live_in:cb ~other:a neg row)
        sym
    in
    if not (Par.available ()) then serial ()
    else
      let ranges = Par.chunk_ranges (Bitvec.length sym) in
      if Array.length ranges <= 1 then serial ()
      else
        Par.parallel_iter_buffered ?ctx ~n:(Array.length ranges)
          ~produce:(fun i ->
            let poll = Gctx.poller ctx in
            let lo, hi = ranges.(i) in
            let acc = ref [] in
            let buffer side tuple = acc := (side, tuple) :: !acc in
            Bitvec.iter_set_range
              (fun row ->
                poll ();
                emit_side ~live_in:ca ~other:b (buffer true) row;
                emit_side ~live_in:cb ~other:a (buffer false) row)
              sym ~lo ~hi;
            List.rev !acc)
          ~consume:
            (List.iter (fun (side, tu) -> if side then pos tu else neg tu))
          ()


  (* Change table for one branch relative to the LCA snapshot: rows set
     now but not at the LCA are new live copies; rows live at the LCA
     but not now are overwritten or deleted copies, which also supply
     the base tuples for three-way field merges (§3.2 Merge). *)
  let changes_since t col_lca branch =
    let col = B.column_view t.bitmap ~branch in
    let tbl : (Value.t, Merge_driver.side_change) Hashtbl.t =
      Hashtbl.create 256
    in
    let d = scratch () in
    Bitvec.copy_into ~src:col ~dst:d;
    Bitvec.diff_in_place d col_lca;
    Bitvec.iter_set
      (fun row ->
        let tuple = tuple_at t row in
        Hashtbl.replace tbl (Tuple.pk t.schema tuple)
          { Merge_driver.state = Some tuple; base = None })
      d;
    Bitvec.copy_into ~src:col_lca ~dst:d;
    Bitvec.diff_in_place d col;
    Bitvec.iter_set
      (fun row ->
        let tuple = tuple_at t row in
        let key = Tuple.pk t.schema tuple in
        match Hashtbl.find_opt tbl key with
        | Some c -> Hashtbl.replace tbl key { c with base = Some tuple }
        | None ->
            Hashtbl.replace tbl key
              { Merge_driver.state = None; base = Some tuple })
      d;
    (* drop keys whose content is back to the LCA state (e.g. updated
       to the same value through a fresh physical row): changes are by
       content, not by row identity *)
    Hashtbl.filter_map_inplace
      (fun _key (c : Merge_driver.side_change) ->
        if Merge_driver.opt_tuple_equal c.state c.base then None else Some c)
      tbl;
    tbl

  let merge ?ctx t ~into ~from ~policy ~message =
    (* read phase polls the context; the install loop below never does,
       so an expired deadline cannot leave a half-applied merge *)
    let check () = match ctx with Some c -> Gctx.check c | None -> () in
    let v_ours = Vg.head t.graph into and v_theirs = Vg.head t.graph from in
    let lca = Vg.lca t.graph v_ours v_theirs in
    let col_lca = bitmap_at_version t lca in
    check ();
    let ours = changes_since t col_lca into in
    check ();
    let theirs = changes_since t col_lca from in
    check ();
    let decisions, stats = Merge_driver.decide ~policy ~ours ~theirs in
    check ();
    List.iter
      (fun (d : Merge_driver.decision) ->
        let install_state final =
          let current = Pk_index.find t.pk ~branch:into d.Merge_driver.d_key in
          match final with
          | None ->
              Option.iter
                (fun row ->
                  B.clear t.bitmap ~branch:into ~row;
                  Pk_index.remove t.pk ~branch:into d.Merge_driver.d_key)
                current
          | Some tuple ->
              let target_row =
                match d.Merge_driver.origin with
                | Merge_driver.O_theirs ->
                    (* adopt the source branch's physical copy *)
                    Pk_index.find t.pk ~branch:from d.Merge_driver.d_key
                | Merge_driver.O_merged | Merge_driver.O_ours -> None
              in
              let row =
                match target_row with
                | Some r -> r
                | None -> append_record t tuple
              in
              Option.iter
                (fun old -> if old <> row then B.clear t.bitmap ~branch:into ~row:old)
                current;
              B.set t.bitmap ~branch:into ~row;
              Pk_index.set t.pk ~branch:into d.Merge_driver.d_key row
        in
        match d.Merge_driver.changed_in, d.Merge_driver.origin with
        | `Ours, _ -> () (* already in place *)
        | _, Merge_driver.O_ours -> () (* precedence kept our copy *)
        | (`Theirs | `Both), _ -> install_state d.Merge_driver.final)
      decisions;
    let vid = Vg.merge_commit t.graph ~into ~theirs:v_theirs ~message in
    let col = B.snapshot t.bitmap ~branch:into in
    let idx = Commit_history.commit (history t into) col in
    Hashtbl.replace t.commit_loc vid (into, idx);
    set_dirty t into false;
    {
      merge_version = vid;
      conflicts = Merge_driver.conflicts_of decisions;
      keys_ours = stats.Merge_driver.n_ours;
      keys_theirs = stats.Merge_driver.n_theirs;
      keys_both = stats.Merge_driver.n_both;
    }


  let dataset_bytes t = Col_segment.byte_size t.seg

  (* (files, bytes) of every commit history, pending records included *)
  let history_footprint t =
    Commit_history.footprint ~dir:t.dir
      (Hashtbl.fold (fun _ h acc -> h :: acc) t.histories [])

  let commit_meta_bytes t = snd (history_footprint t)

  let storage_report t =
    let module R = Decibel_obs.Report in
    let rows = B.row_count t.bitmap in
    let branches =
      List.map
        (fun (br : Vg.branch) ->
          let live = B.live_count t.bitmap ~branch:br.Vg.bid in
          let chain, dbytes =
            match Hashtbl.find_opt t.commit_loc br.Vg.head with
            | Some (hb, idx) ->
                let h = history t hb in
                (Commit_history.replay_length h idx, Commit_history.disk_bytes h)
            | None -> (0, 0)
          in
          {
            R.br_name = br.Vg.name;
            br_id = br.Vg.bid;
            br_head = br.Vg.head;
            br_active = br.Vg.active;
            br_live_tuples = live;
            br_dead_tuples = rows - live;
            br_bitmap_bits = rows;
            br_density = B.density t.bitmap ~branch:br.Vg.bid;
            br_segments = 1;
            br_delta_chain = chain;
            br_delta_bytes = dbytes;
          })
        (Vg.branches t.graph)
    in
    (* a record is live when at least one active branch sees it *)
    let any_live = Bitvec.create ~capacity:(max 1 rows) () in
    List.iter
      (fun (br : Vg.branch) ->
        if br.Vg.active then
          Bitvec.union_in_place any_live
            (B.column_view t.bitmap ~branch:br.Vg.bid))
      (Vg.branches t.graph);
    let records = Col_segment.rows t.seg in
    let live_records = Bitvec.pop_count any_live in
    let segment =
      {
        R.sg_id = 0;
        sg_file = Filename.basename (Col_segment.path t.seg);
        sg_bytes = Col_segment.byte_size t.seg;
        sg_pages = Col_segment.page_count t.seg;
        sg_records = records;
        sg_live_records = live_records;
        sg_fragmentation = R.fragmentation ~live:live_records ~records;
      }
    in
    let chains =
      Hashtbl.fold
        (fun _ (b, idx) acc ->
          Commit_history.replay_length (history t b) idx :: acc)
        t.commit_loc []
    in
    let max_chain, mean_chain = R.chain_stats chains in
    let h_files, h_bytes = history_footprint t in
    let columns =
      List.map
        (fun (c : Col_segment.col_report) ->
          {
            R.co_name = c.Col_segment.cr_name;
            co_encoding = c.cr_encoding;
            co_raw_bytes = c.cr_raw_bytes;
            co_enc_bytes = c.cr_enc_bytes;
          })
        (Array.to_list (Col_segment.column_report t.seg))
    in
    {
      R.e_branches = branches;
      e_segments = [ segment ];
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

  (* The manifest body persists everything the segment file and commit
     histories do not: the layout, heap generation, compress flag,
     schema, version graph, segment block index and live bitmap; the
     commit locator, dirtiness and WAL marker follow as {!Manifest}'s
     shared tail.  The key index is rebuilt from the bitmap on
     reopen.  Histories reach disk first, so the manifest never
     references a record that is not there. *)
  let save_manifest ?path t =
    Hashtbl.iter (fun _ h -> Commit_history.flush h) t.histories;
    Manifest.write
      (Option.value path ~default:(Manifest.path Manifest.Tf t.dir))
      (fun buf ->
        Binio.write_string buf B.layout;
        Binio.write_varint buf t.gen;
        Binio.write_u8 buf (if t.compress then 1 else 0);
        Schema.serialize buf t.schema;
        Binio.write_string buf (Vg.serialize t.graph);
        Col_segment.save_meta buf t.seg;
        B.serialize buf t.bitmap;
        Manifest.write_tail buf ~locators:t.commit_loc
          (fun buf (b, idx) ->
            Binio.write_varint buf b;
            Binio.write_varint buf idx)
          ~dirty:t.dirty ~wal_marker:t.wal_marker)

  (* [Col_segment.save_meta] flushes the segment first *)
  let flush t = save_manifest t

  (* Manifest body past the format header.  [read_gen] and [read_seg]
     read the segment section: the v2 block index here, a staged v1
     offset table in [upgrade_v1]. *)
  let load ~dir ~read_gen ~read_seg s pos =
    let layout = Binio.read_string s pos in
    if layout <> B.layout then
      errorf "tuple-first: manifest written by %s layout, opening as %s"
        layout B.layout;
    let gen = read_gen s pos in
    let compress = Binio.read_u8 s pos = 1 in
    let schema = Schema.deserialize s pos in
    let graph = Vg.deserialize (Binio.read_string s pos) in
    let seg = read_seg ~schema ~compress ~gen s pos in
    let bitmap = B.deserialize s pos in
    let branches = Vg.branch_count graph in
    let rows = Col_segment.rows seg in
    Manifest.check "bitmap"
      (B.branch_count bitmap = branches && B.row_count bitmap = rows);
    let commit_loc = Hashtbl.create 64 in
    let dirty = Hashtbl.create 16 in
    let wal_marker =
      Manifest.read_tail s pos ~locators:commit_loc
        (fun s pos ->
          let b = Manifest.read_id "branch" ~bound:branches s pos in
          (b, Binio.read_varint s pos))
        ~dirty ~branches
    in
    let t =
      {
        dir;
        schema;
        compress;
        graph;
        seg;
        bitmap;
        pk = Pk_index.create ();
        gen;
        histories = Hashtbl.create 16;
        commit_loc;
        dirty;
        wal_marker;
        closed = false;
      }
    in
    (* rebuild the per-branch key index from the live bitmap.  A branch
       starts from the map of the branch it was created from (any
       earlier branch would do) and applies the rows their columns
       differ in, so the maps share structure as before the reopen. *)
    for b = 0 to branches - 1 do
      let col = B.column_view t.bitmap ~branch:b in
      Manifest.check "bitmap column" (Bitvec.length col <= rows);
      let base =
        let p = (Vg.version graph (Vg.branch graph b).Vg.base).Vg.on_branch in
        if p < b then Some p else None
      in
      let bid = Pk_index.add_branch t.pk ~from:base in
      assert (bid = b);
      let base_col =
        match base with
        | Some p -> B.column_view t.bitmap ~branch:p
        | None -> Bitvec.create ()
      in
      (* removals first: a key that moved to another row is re-added *)
      Bitvec.iter_set
        (fun row -> Pk_index.remove t.pk ~branch:b (key_at t row))
        (Bitvec.diff base_col col);
      Bitvec.iter_set
        (fun row -> Pk_index.set t.pk ~branch:b (key_at t row) row)
        (Bitvec.diff col base_col)
    done;
    t

  let open_existing ~cut_tails ~dir ~pool =
    Col_segment.with_opened ~cut_tails (fun open_v2 ->
        Manifest.load Manifest.Tf ~dir
          (load ~dir
             ~read_gen:(Manifest.read_id "heap generation" ~bound:max_int)
             ~read_seg:(fun ~schema ~compress ~gen s pos ->
               open_v2 ~pool ~schema ~compress ~path:(seg_path dir gen) s pos)))

  (* A v1 manifest has no heap generation (always 0) and persists the
     heap's byte size and per-row offset table where v2 keeps the
     block index. *)
  let upgrade_v1 ~dir ~pool =
    Seg_v1.upgrade Manifest.Tf ~dir (fun st s pos ->
        let t =
          load ~dir s pos
            ~read_gen:(fun _ _ -> 0)
            ~read_seg:(fun ~schema ~compress ~gen:_ s pos ->
              let size = Binio.read_varint s pos in
              let offsets = Binio.read_list Binio.read_varint s pos in
              fst
                (Seg_v1.stage st ~pool ~schema ~compress
                   ~layout:Seg_v1.Tagged ~offsets ~path:(seg_path dir 0)
                   ~size ()))
        in
        fun path -> save_manifest ~path t)

  let wal_marker t = t.wal_marker
  let set_wal_marker t lsn = t.wal_marker <- lsn

  (* {2 Maintenance: generational whole-heap rewrite}

     Tuple-first keeps every record ever written in one shared heap, so
     the only way to reclaim dead space is to rewrite the whole store:
     copy the rows any branch head or committed snapshot still reaches
     into a fresh heap at generation [gen+1], re-commit every history
     with remapped bitmaps (index-preserving, so [commit_loc] stays
     valid), rebuild the bitmap index and key index over the dense new
     row space, and swap in memory as the very last step.  Old-gen
     files keep their names until [mp_cleanup], so a crash anywhere
     before the manifest commit recovers the old generation
     untouched. *)

  (* Branches whose commit history exists (open handle or on-disk
     file).  Probing via [history] would create empty files, so check
     before opening. *)
  let hist_branches t =
    let bs = ref [] in
    for b = B.branch_count t.bitmap - 1 downto 0 do
      if
        Hashtbl.mem t.histories b
        || Sys.file_exists (Filename.concat t.dir (hist_file t.gen b))
      then bs := b :: !bs
    done;
    !bs

  let referenced_files t =
    seg_file t.gen :: List.map (hist_file t.gen) (hist_branches t)

  (* Rows reachable from any branch column (heads, including inactive
     branches whose snapshots remain checkable) or any committed
     snapshot in any history. *)
  let keep_set t hb =
    let keep = Bitvec.create ~capacity:(max 1 (B.row_count t.bitmap)) () in
    for b = 0 to B.branch_count t.bitmap - 1 do
      Bitvec.union_in_place keep (B.column_view t.bitmap ~branch:b)
    done;
    List.iter
      (fun b ->
        let h = history t b in
        for i = 0 to Commit_history.count h - 1 do
          Bitvec.union_in_place keep (Commit_history.checkout h i)
        done)
      hb;
    keep

  let plan_maintenance t ~kind ~target =
    match kind with
    | Engine_intf.M_materialize -> None
    | Engine_intf.M_compact when target <> seg_file t.gen -> None
    | Engine_intf.M_compact | Engine_intf.M_gc ->
        let rows = Col_segment.rows t.seg in
        let hb = hist_branches t in
        let keep = keep_set t hb in
        let kept = Bitvec.pop_count keep in
        if kept >= rows then None
        else begin
          let gen' = t.gen + 1 in
          let nheap_path = seg_path t.dir gen' in
          let bytes_before =
            List.fold_left
              (fun acc b -> acc + Commit_history.disk_bytes (history t b))
              (Col_segment.byte_size t.seg)
              hb
          in
          (* old-generation artifacts to retire, captured at swap *)
          let retired : (Col_segment.t * string list) option ref = ref None in
          let apply () =
            let nbranches = B.branch_count t.bitmap in
            (* dense remap old row -> new row for kept rows *)
            let map = Array.make (max 1 rows) (-1) in
            let next = ref 0 in
            Bitvec.iter_set
              (fun row ->
                map.(row) <- !next;
                incr next)
              keep;
            let remap col =
              let c = Bitvec.create ~capacity:(max 1 kept) () in
              Bitvec.iter_set (fun row -> Bitvec.set c map.(row)) col;
              c
            in
            let nseg =
              Col_segment.create_v2 ~pool:(Col_segment.pool t.seg)
                ~schema:t.schema ~compress:t.compress ~path:nheap_path
            in
            let nhists = ref [] in
            (try
               Decibel_fault.Failpoint.hit "maint.rewrite";
               Bitvec.iter_set
                 (fun row ->
                   let nrow =
                     Col_segment.append nseg
                       (Col_segment.Live (tuple_at t row))
                   in
                   assert (nrow = map.(row)))
                 keep;
               Col_segment.flush nseg;
               (* re-commit every history at the new generation; commit
                  indices are preserved so [commit_loc] needs no edit *)
               List.iter
                 (fun b ->
                   let oh = history t b in
                   let nh =
                     Commit_history.create
                       ~path:(Filename.concat t.dir (hist_file gen' b))
                   in
                   nhists := (b, nh) :: !nhists;
                   for i = 0 to Commit_history.count oh - 1 do
                     let idx =
                       Commit_history.commit nh
                         (remap (Commit_history.checkout oh i))
                     in
                     assert (idx = i)
                   done)
                 hb
             with e ->
               (* the new histories are still pending: dropping them
                  leaves no file behind *)
               Col_segment.abandon nseg;
               (try Sys.remove nheap_path with Sys_error _ -> ());
               raise e);
            (* rebuild bitmap and key index over the new row space *)
            let nb = B.create () in
            for b = 0 to nbranches - 1 do
              let bid = B.add_branch nb ~from:None in
              assert (bid = b)
            done;
            for _ = 1 to kept do
              ignore (B.append_row nb)
            done;
            let npk = Pk_index.create () in
            for b = 0 to nbranches - 1 do
              B.overwrite_column nb ~branch:b
                (remap (B.column_view t.bitmap ~branch:b));
              let bid = Pk_index.add_branch npk ~from:None in
              assert (bid = b);
              Pk_index.iter t.pk ~branch:b (fun key row ->
                  Pk_index.set npk ~branch:b key map.(row))
            done;
            (* swap: pure in-memory, nothing below can raise *)
            let old_seg = t.seg in
            let old_paths =
              Filename.concat t.dir (seg_file t.gen)
              :: List.map
                   (fun b -> Filename.concat t.dir (hist_file t.gen b))
                   hb
            in
            t.seg <- nseg;
            t.bitmap <- nb;
            t.pk <- npk;
            t.gen <- gen';
            Hashtbl.reset t.histories;
            List.iter
              (fun (b, nh) -> Hashtbl.replace t.histories b nh)
              !nhists;
            retired := Some (old_seg, old_paths)
          in
          let cleanup () =
            match !retired with
            | None -> ()
            | Some (old_seg, old_paths) ->
                retired := None;
                (* abandon (not close): invalidates the buffer pool's
                   pages for the old heap without flushing bytes into
                   a file about to be unlinked *)
                Col_segment.abandon old_seg;
                List.iter
                  (fun p -> try Sys.remove p with Sys_error _ -> ())
                  old_paths
          in
          Some
            {
              Engine_intf.mp_kind = kind;
              mp_target = seg_file t.gen;
              mp_new_files =
                seg_file gen' :: List.map (hist_file gen') hb;
              mp_old_files =
                seg_file t.gen :: List.map (hist_file t.gen) hb;
              mp_bytes_before = bytes_before;
              mp_apply = apply;
              mp_cleanup = cleanup;
            }
        end

  let verify t =
    Manifest.verify Manifest.Tf ~dir:t.dir ~graph:t.graph [ t.seg ]
      t.commit_loc (fun _ -> [])

  (* histories hold no descriptor: a crash drops their pending
     records *)
  let crash t =
    if not t.closed then begin
      Col_segment.abandon t.seg;
      t.closed <- true
    end

  let close t =
    if not t.closed then begin
      flush t;
      Col_segment.close t.seg;
      t.closed <- true
    end
end

module Branch_oriented = Make (Branch_bitmap)
module Tuple_oriented = Make (Tuple_bitmap)
