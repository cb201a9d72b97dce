(* Storage advisor: joins the per-branch workload table with the
   storage report through a recreation/storage cost model and emits
   ranked, explained recommendations.  See advisor.mli. *)

type kind = Materialize | Compact | Gc | Rechunk

let kind_name = function
  | Materialize -> "materialize"
  | Compact -> "compact"
  | Gc -> "gc"
  | Rechunk -> "rechunk"

type recommendation = {
  rc_kind : kind;
  rc_target : string;
  rc_score : float;
  rc_benefit : float;
  rc_unit : string;
  rc_reason : string;
}

type thresholds = {
  th_chain_min : int;
  th_hot_read_rate : float;
  th_rechunk_chain : int;
  th_dead_ratio : float;
  th_min_dead_tuples : int;
  th_frag_min : float;
  th_min_seg_bytes : int;
}

let default =
  {
    th_chain_min = 4;
    th_hot_read_rate = 0.05;
    th_rechunk_chain = 16;
    th_dead_ratio = 0.3;
    th_min_dead_tuples = 64;
    th_frag_min = 0.3;
    th_min_seg_bytes = 4096;
  }

let dead_ratio (b : Report.branch) =
  let total = b.Report.br_live_tuples + b.Report.br_dead_tuples in
  if total = 0 then 0.0
  else float_of_int b.Report.br_dead_tuples /. float_of_int total

(* The workload entry for a branch, if any; [advise]'s caller filters
   the workload to the report's table, so the join is by branch name. *)
let stats_for workload name =
  List.find_opt (fun (s : Workload.stats) -> s.Workload.w_branch = name) workload

let advise ?(thresholds = default) ~report ~workload () =
  let th = thresholds in
  let recs = ref [] in
  let push r = recs := r :: !recs in
  List.iter
    (fun (b : Report.branch) ->
      if b.Report.br_active then begin
        let name = b.Report.br_name in
        let chain = b.Report.br_delta_chain in
        let stats = stats_for workload name in
        let read_rate =
          match stats with Some s -> s.Workload.w_read_rate | None -> 0.0
        in
        let frags_per_read =
          match stats with
          | Some s when s.Workload.w_reads > 0 -> Workload.fragments_per_read s
          | _ -> float_of_int chain
        in
        (* Recreation vs storage (the "Principles of Dataset
           Versioning" tradeoff): a hot branch on a long delta chain
           pays [fragments/read * reads/s] in replay continuously;
           materializing trades that for a one-time storage copy.  A
           cold branch keeps its chain — the replay cost is never
           paid, so the deltas' storage saving wins. *)
        if chain >= th.th_chain_min && read_rate >= th.th_hot_read_rate then
          push
            {
              rc_kind = Materialize;
              rc_target = name;
              rc_score = read_rate *. frags_per_read;
              rc_benefit = read_rate *. frags_per_read;
              rc_unit = "fragments/s";
              rc_reason =
                Printf.sprintf
                  "hot branch on a %d-deep delta chain: %.4f reads/s x %.1f \
                   fragments replayed per scan; materializing removes the \
                   recurring replay cost"
                  chain read_rate frags_per_read;
            }
        else if chain >= th.th_rechunk_chain then
          (* too long to leave unbounded even when cold: rechunking the
             chain (merging adjacent fragments) caps a future checkout's
             replay cost without paying full materialization storage *)
          push
            {
              rc_kind = Rechunk;
              rc_target = name;
              rc_score = float_of_int (chain - th.th_chain_min) /. 100.0;
              rc_benefit = float_of_int (chain - th.th_chain_min);
              rc_unit = "fragments";
              rc_reason =
                Printf.sprintf
                  "cold branch (%.4f reads/s) but the delta chain is %d deep; \
                   rechunking bounds future replay without materializing"
                  read_rate chain;
            };
        let dr = dead_ratio b in
        if dr >= th.th_dead_ratio && b.Report.br_dead_tuples >= th.th_min_dead_tuples
        then
          push
            {
              rc_kind = Gc;
              rc_target = name;
              rc_score = dr;
              rc_benefit = float_of_int b.Report.br_dead_tuples;
              rc_unit = "tuples";
              rc_reason =
                Printf.sprintf
                  "%.0f%% of the branch's tuples are dead (%d of %d); \
                   reclaiming them shrinks storage and scan page counts"
                  (100.0 *. dr) b.Report.br_dead_tuples
                  (b.Report.br_live_tuples + b.Report.br_dead_tuples);
            }
      end)
    report.Report.r_branches;
  List.iter
    (fun (s : Report.segment) ->
      if
        s.Report.sg_fragmentation >= th.th_frag_min
        && s.Report.sg_bytes >= th.th_min_seg_bytes
      then
        let reclaim =
          s.Report.sg_fragmentation *. float_of_int s.Report.sg_bytes
        in
        push
          {
            rc_kind = Compact;
            rc_target = s.Report.sg_file;
            rc_score = reclaim /. 1_048_576.0;
            rc_benefit = reclaim;
            rc_unit = "bytes";
            rc_reason =
              Printf.sprintf
                "segment %d is %.0f%% dead space; compaction reclaims ~%.0f \
                 of %d bytes"
                s.Report.sg_id
                (100.0 *. s.Report.sg_fragmentation)
                reclaim s.Report.sg_bytes;
          })
    report.Report.r_segments;
  List.stable_sort
    (fun a b ->
      match compare b.rc_score a.rc_score with
      | 0 -> compare (a.rc_target, kind_name a.rc_kind)
                 (b.rc_target, kind_name b.rc_kind)
      | c -> c)
    !recs

(* ------------------------------------------------------------------ *)
(* Rendering *)

let esc = Obs.json_escape
let fl = Obs.json_float

let recommendation_json r =
  Printf.sprintf
    "{\"kind\":\"%s\",\"target\":\"%s\",\"score\":%s,\"benefit\":%s,\"unit\":\"%s\",\"reason\":\"%s\"}"
    (kind_name r.rc_kind) (esc r.rc_target) (fl r.rc_score) (fl r.rc_benefit)
    (esc r.rc_unit) (esc r.rc_reason)

let to_json recs =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (recommendation_json r))
    recs;
  Buffer.add_char buf ']';
  Buffer.contents buf

let to_text recs =
  if recs = [] then "no recommendations: storage matches the workload\n"
  else begin
    let buf = Buffer.create 1024 in
    let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pf "recommendations (%d, best first)\n" (List.length recs);
    List.iteri
      (fun i r ->
        pf "  %d. %-11s %-24s benefit %.2f %s\n" (i + 1) (kind_name r.rc_kind)
          r.rc_target r.rc_benefit r.rc_unit;
        pf "     %s\n" r.rc_reason)
      recs;
    Buffer.contents buf
  end
