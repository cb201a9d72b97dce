(* Storage introspection report: plain data assembled by the engines,
   rendered here.  See report.mli. *)

type branch = {
  br_name : string;
  br_id : int;
  br_head : int;
  br_active : bool;
  br_live_tuples : int;
  br_dead_tuples : int;
  br_bitmap_bits : int;
  br_density : float;
  br_segments : int;
  br_delta_chain : int;
  br_delta_bytes : int;
}

type segment = {
  sg_id : int;
  sg_file : string;
  sg_bytes : int;
  sg_pages : int;
  sg_records : int;
  sg_live_records : int;
  sg_fragmentation : float;
}

type history = {
  h_files : int;
  h_bytes : int;
  h_commits : int;
  h_max_chain : int;
  h_mean_chain : float;
}

type graph = {
  g_versions : int;
  g_branches : int;
  g_active_branches : int;
  g_depth : int;
  g_max_fanout : int;
}

type pool = {
  p_page_size : int;
  p_capacity_pages : int;
  p_resident_pages : int;
  p_hits : int;
  p_misses : int;
  p_evictions : int;
  p_write_backs : int;
}

type column = {
  co_name : string;
  co_encoding : string;
  co_raw_bytes : int;
  co_enc_bytes : int;
}

type engine_part = {
  e_branches : branch list;
  e_segments : segment list;
  e_columns : column list;
  e_history : history;
}

type t = {
  r_scheme : string;
  r_format : int;
  r_dataset_bytes : int;
  r_commit_meta_bytes : int;
  r_branches : branch list;
  r_segments : segment list;
  r_columns : column list;
  r_history : history;
  r_graph : graph;
  r_pool : pool;
  r_health : string;
  r_quarantined : (string * string) list;
}

let empty_history =
  { h_files = 0; h_bytes = 0; h_commits = 0; h_max_chain = 0; h_mean_chain = 0.0 }

let density ~live ~bits = if bits = 0 then 0.0 else float_of_int live /. float_of_int bits

let fragmentation ~live ~records =
  if records = 0 then 0.0
  else 1.0 -. (float_of_int live /. float_of_int records)

let compression_ratio c =
  if c.co_enc_bytes = 0 then 0.0
  else float_of_int c.co_raw_bytes /. float_of_int c.co_enc_bytes

let chain_stats chains =
  let n = List.length chains in
  let mx = List.fold_left max 0 chains in
  let mean =
    if n = 0 then 0.0
    else float_of_int (List.fold_left ( + ) 0 chains) /. float_of_int n
  in
  (mx, mean)

(* ------------------------------------------------------------------ *)
(* JSON *)

let esc = Obs.json_escape
let fl = Obs.json_float

let branch_json b =
  Printf.sprintf
    "{\"name\":\"%s\",\"id\":%d,\"head\":%d,\"active\":%b,\"live_tuples\":%d,\"dead_tuples\":%d,\"bitmap_bits\":%d,\"density\":%s,\"segments\":%d,\"delta_chain\":%d,\"delta_bytes\":%d}"
    (esc b.br_name) b.br_id b.br_head b.br_active b.br_live_tuples
    b.br_dead_tuples b.br_bitmap_bits (fl b.br_density) b.br_segments
    b.br_delta_chain b.br_delta_bytes

let segment_json s =
  Printf.sprintf
    "{\"id\":%d,\"file\":\"%s\",\"bytes\":%d,\"pages\":%d,\"records\":%d,\"live_records\":%d,\"fragmentation\":%s}"
    s.sg_id (esc s.sg_file) s.sg_bytes s.sg_pages s.sg_records
    s.sg_live_records (fl s.sg_fragmentation)

let column_json c =
  Printf.sprintf
    "{\"name\":\"%s\",\"encoding\":\"%s\",\"raw_bytes\":%d,\"enc_bytes\":%d,\"ratio\":%s}"
    (esc c.co_name) (esc c.co_encoding) c.co_raw_bytes c.co_enc_bytes
    (fl (compression_ratio c))

let to_json r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"scheme\":\"%s\",\"format\":%d,\"dataset_bytes\":%d,\"commit_meta_bytes\":%d"
       (esc r.r_scheme) r.r_format r.r_dataset_bytes r.r_commit_meta_bytes);
  Buffer.add_string buf ",\"branches\":[";
  List.iteri
    (fun i b ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (branch_json b))
    r.r_branches;
  Buffer.add_string buf "],\"segments\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (segment_json s))
    r.r_segments;
  Buffer.add_string buf "],\"columns\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (column_json c))
    r.r_columns;
  Buffer.add_string buf "]";
  let h = r.r_history in
  Buffer.add_string buf
    (Printf.sprintf
       ",\"history\":{\"files\":%d,\"bytes\":%d,\"commits\":%d,\"max_chain\":%d,\"mean_chain\":%s}"
       h.h_files h.h_bytes h.h_commits h.h_max_chain (fl h.h_mean_chain));
  let g = r.r_graph in
  Buffer.add_string buf
    (Printf.sprintf
       ",\"graph\":{\"versions\":%d,\"branches\":%d,\"active_branches\":%d,\"depth\":%d,\"max_fanout\":%d}"
       g.g_versions g.g_branches g.g_active_branches g.g_depth g.g_max_fanout);
  let p = r.r_pool in
  Buffer.add_string buf
    (Printf.sprintf
       ",\"pool\":{\"page_size\":%d,\"capacity_pages\":%d,\"resident_pages\":%d,\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"write_backs\":%d}"
       p.p_page_size p.p_capacity_pages p.p_resident_pages p.p_hits p.p_misses
       p.p_evictions p.p_write_backs);
  Buffer.add_string buf
    (Printf.sprintf ",\"health\":\"%s\",\"quarantined\":[" (esc r.r_health));
  List.iteri
    (fun i (b, reason) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"branch\":\"%s\",\"reason\":\"%s\"}" (esc b)
           (esc reason)))
    r.r_quarantined;
  Buffer.add_string buf "]";
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* text rendering (ANALYZE-style) *)

let to_text r =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "scheme            %s\n" r.r_scheme;
  pf "segment format    v%d\n" r.r_format;
  pf "health            %s\n" r.r_health;
  List.iter
    (fun (b, reason) -> pf "  quarantined     %s: %s\n" b reason)
    r.r_quarantined;
  pf "dataset bytes     %d\n" r.r_dataset_bytes;
  pf "commit meta bytes %d\n" r.r_commit_meta_bytes;
  let g = r.r_graph in
  pf "version graph     %d versions, %d branches (%d active), depth %d, max fan-out %d\n"
    g.g_versions g.g_branches g.g_active_branches g.g_depth g.g_max_fanout;
  let p = r.r_pool in
  pf "buffer pool       %d/%d pages resident (page size %d), %d hits / %d misses, %d evictions, %d write-backs\n"
    p.p_resident_pages p.p_capacity_pages p.p_page_size p.p_hits p.p_misses
    p.p_evictions p.p_write_backs;
  let h = r.r_history in
  pf "commit history    %d files, %d bytes, %d commits, chain max %d / mean %.2f\n"
    h.h_files h.h_bytes h.h_commits h.h_max_chain h.h_mean_chain;
  pf "branches (%d)\n" (List.length r.r_branches);
  pf "  %-16s %8s %8s %8s %8s %5s %6s %10s\n" "name" "live" "dead" "bits"
    "density" "segs" "chain" "delta-B";
  List.iter
    (fun b ->
      pf "  %-16s %8d %8d %8d %8.3f %5d %6d %10d%s\n" b.br_name
        b.br_live_tuples b.br_dead_tuples b.br_bitmap_bits b.br_density
        b.br_segments b.br_delta_chain b.br_delta_bytes
        (if b.br_active then "" else "  (retired)"))
    r.r_branches;
  pf "segments (%d)\n" (List.length r.r_segments);
  pf "  %-4s %-24s %10s %6s %8s %8s %6s\n" "id" "file" "bytes" "pages"
    "records" "live" "frag";
  List.iter
    (fun s ->
      pf "  %-4d %-24s %10d %6d %8d %8d %6.3f\n" s.sg_id s.sg_file s.sg_bytes
        s.sg_pages s.sg_records s.sg_live_records s.sg_fragmentation)
    r.r_segments;
  if r.r_columns <> [] then begin
    pf "columns (%d)\n" (List.length r.r_columns);
    pf "  %-16s %-12s %10s %10s %7s\n" "name" "encoding" "raw-B" "enc-B"
      "ratio";
    List.iter
      (fun c ->
        pf "  %-16s %-12s %10d %10d %7.2f\n" c.co_name c.co_encoding
          c.co_raw_bytes c.co_enc_bytes (compression_ratio c))
      r.r_columns
  end;
  Buffer.contents buf
