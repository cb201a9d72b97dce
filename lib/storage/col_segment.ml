(* Row-addressed segment storage in format v2: PAX column-group
   blocks with per-column lightweight compression.

   Engines address records by dense row index; this module maps rows
   onto sealed blocks inside a {!Heap_file}.  Rows are buffered in
   memory and sealed into column blocks of up to [block_rows] rows.  A
   sealed block is ONE heap record:

     u8 wrap            0 = raw, 1 = LZ77-compressed body
     -- body --
     varint nrows
     u8 has_tombstones  (1: RLE bitmap of tombstone rows follows)
     per column:        u8 encoding, varint byte length, bytes

   Column encodings: ints are constant-folded (enc 0) or delta +
   zigzag varint (enc 1); strings are raw (enc 2) or dictionary coded
   in first-occurrence order (enc 3).

   The pre-columnar row-per-record format v1 is not readable here: its
   only reader is {!Seg_v1}, behind the offline upgrade.

   Scans decode a block at a time into per-domain scratch
   arrays and evaluate column predicates on the decoded batch (on
   dictionary codes for string comparisons), materializing Tuple.t
   only for emitted rows.  A selection bitmap is tested against a
   block's row range before the block is read, so rows dead in the
   scanned branch cost neither I/O nor decode.  Lineage walks
   ({!blocks_rev}) may decode the key column only. *)

open Decibel_util
module Obs = Decibel_obs.Obs

let c_blocks_sealed = Obs.counter "colseg.blocks_sealed"
let c_blocks_decoded = Obs.counter "colseg.blocks_decoded"
let c_blocks_skipped = Obs.counter "colseg.blocks_skipped"
let c_rows_decoded = Obs.counter "colseg.rows_decoded"

let block_rows = 1024

type row_value = Live of Tuple.t | Tombstone of Value.t

(* per-column encoding statistics, persisted with the manifest meta
   so compression-ratio reporting survives reopen *)
type col_stats = {
  mutable cs_raw_bytes : int;   (* pre-encoding byte volume *)
  mutable cs_enc_bytes : int;   (* encoded byte volume *)
  mutable cs_const_blocks : int;
  mutable cs_delta_blocks : int;
  mutable cs_rawstr_blocks : int;
  mutable cs_dict_blocks : int;
}

let fresh_stats () =
  {
    cs_raw_bytes = 0;
    cs_enc_bytes = 0;
    cs_const_blocks = 0;
    cs_delta_blocks = 0;
    cs_rawstr_blocks = 0;
    cs_dict_blocks = 0;
  }

type blk = { bk_off : int; bk_start : int; bk_rows : int }

let next_id = Atomic.make 0

type t = {
  id : int; (* process-unique, keys the per-domain decoded-block cache *)
  path : string;
  pool : Buffer_pool.t;
  schema : Schema.t;
  compress : bool;
  file : Heap_file.t;
  blocks : blk Vec.t; (* sealed blocks, ascending bk_start *)
  mutable sealed_rows : int;
  open_block : row_value array; (* rows not yet sealed *)
  mutable open_n : int;
  mutable open_bytes : int; (* approximate raw bytes buffered in it *)
  stats : col_stats array; (* one per column *)
}

let dummy_blk = { bk_off = 0; bk_start = 0; bk_rows = 0 }

let make ~pool ~schema ~compress ~path file =
  {
    id = Atomic.fetch_and_add next_id 1;
    path;
    pool;
    schema;
    compress;
    file;
    blocks = Vec.create ~dummy:dummy_blk ();
    sealed_rows = 0;
    open_block = Array.make block_rows (Live [||]);
    open_n = 0;
    open_bytes = 0;
    stats = Array.init (Schema.arity schema) (fun _ -> fresh_stats ());
  }

let create_v2 ~pool ~schema ~compress ~path =
  make ~pool ~schema ~compress ~path (Heap_file.create ~pool path)

(* Empty segment staged over a slot file whose old bytes must stay
   on disk until the engine manifest commits (maintenance compaction).
   [save_meta] records size 0 and zero blocks without touching the fd,
   and [with_opened] cuts the stale tail back to the manifest size on
   the next reopen. *)
let empty_over ~pool ~schema ~compress ~path =
  make ~pool ~schema ~compress ~path (Heap_file.open_reset ~pool path)

let path t = t.path
let pool t = t.pool
let rows t = t.sealed_rows + t.open_n

(* Unsealed rows live only in the open block; the dataset-size and
   page-traffic figures count their approximate raw footprint so
   growth is visible between flushes. *)
let byte_size t = Heap_file.size t.file + t.open_bytes

let page_count t =
  let psz = Buffer_pool.page_size t.pool in
  Heap_file.page_count t.file + ((t.open_bytes + psz - 1) / psz)

(* ------------------------------------------------------------------ *)
(* block encoding *)

let tomb_filler = function Schema.T_int -> Value.Int 0L | Schema.T_str -> Value.Str ""

let cell t c j =
  let cols = Schema.columns t.schema in
  match Array.unsafe_get t.open_block j with
  | Live tuple -> tuple.(c)
  | Tombstone key ->
      if c = Schema.pk_index t.schema then key
      else tomb_filler cols.(c).Schema.col_type

let encode_int_col t c n buf =
  let st = t.stats.(c) in
  st.cs_raw_bytes <- st.cs_raw_bytes + (8 * n);
  let v0 =
    match cell t c 0 with
    | Value.Int x -> x
    | Value.Str _ -> invalid_arg "Col_segment: str value in int column"
  in
  let const = ref true in
  for j = 1 to n - 1 do
    match cell t c j with
    | Value.Int x -> if x <> v0 then const := false
    | Value.Str _ -> invalid_arg "Col_segment: str value in int column"
  done;
  let body = Buffer.create 64 in
  if !const then begin
    Varint.write_i64 body v0;
    st.cs_const_blocks <- st.cs_const_blocks + 1;
    Binio.write_u8 buf 0
  end
  else begin
    let prev = ref 0L in
    for j = 0 to n - 1 do
      match cell t c j with
      | Value.Int x ->
          Varint.write_i64 body (Int64.sub x !prev);
          prev := x
      | Value.Str _ -> assert false
    done;
    st.cs_delta_blocks <- st.cs_delta_blocks + 1;
    Binio.write_u8 buf 1
  end;
  st.cs_enc_bytes <- st.cs_enc_bytes + Buffer.length body;
  Binio.write_varint buf (Buffer.length body);
  Buffer.add_buffer buf body

let encode_str_col t c n buf =
  let st = t.stats.(c) in
  let strs =
    Array.init n (fun j ->
        match cell t c j with
        | Value.Str s -> s
        | Value.Int _ -> invalid_arg "Col_segment: int value in str column")
  in
  Array.iter
    (fun s ->
      let l = String.length s in
      st.cs_raw_bytes <- st.cs_raw_bytes + l + Varint.size_u64 (Int64.of_int l))
    strs;
  (* first-occurrence dictionary; fall back to raw when the column is
     not low-cardinality enough to win *)
  let table = Hashtbl.create 64 in
  let dict = Vec.create ~dummy:"" () in
  let codes = Array.make n 0 in
  (try
     Array.iteri
       (fun j s ->
         let code =
           match Hashtbl.find_opt table s with
           | Some c -> c
           | None ->
               if Hashtbl.length table >= 256 then raise Exit;
               let c = Vec.push dict s in
               Hashtbl.replace table s c;
               c
         in
         codes.(j) <- code)
       strs
   with Exit -> Hashtbl.reset table);
  let ndict = Vec.length dict in
  let use_dict = Hashtbl.length table = ndict && ndict > 0 && ndict < n in
  let body = Buffer.create 256 in
  if use_dict then begin
    Binio.write_varint body ndict;
    Vec.iter (Binio.write_string body) dict;
    Array.iter (Binio.write_varint body) codes;
    st.cs_dict_blocks <- st.cs_dict_blocks + 1;
    Binio.write_u8 buf 3
  end
  else begin
    Array.iter (Binio.write_string body) strs;
    st.cs_rawstr_blocks <- st.cs_rawstr_blocks + 1;
    Binio.write_u8 buf 2
  end;
  st.cs_enc_bytes <- st.cs_enc_bytes + Buffer.length body;
  Binio.write_varint buf (Buffer.length body);
  Buffer.add_buffer buf body

let seal t =
  if t.open_n > 0 then begin
    let n = t.open_n in
    let inner = Buffer.create 4096 in
    Binio.write_varint inner n;
    let tombs = Bitvec.create ~capacity:n () in
    let any_tomb = ref false in
    for j = 0 to n - 1 do
      match t.open_block.(j) with
      | Tombstone _ ->
          Bitvec.set tombs j;
          any_tomb := true
      | Live _ -> ()
    done;
    if !any_tomb then begin
      if Bitvec.length tombs < n then Bitvec.assign tombs (n - 1) false;
      Binio.write_u8 inner 1;
      Buffer.add_string inner (Rle.encode tombs)
    end
    else Binio.write_u8 inner 0;
    let cols = Schema.columns t.schema in
    Array.iteri
      (fun c (col : Schema.column) ->
        match col.Schema.col_type with
        | Schema.T_int -> encode_int_col t c n inner
        | Schema.T_str -> encode_str_col t c n inner)
      cols;
    let body = Buffer.contents inner in
    let payload =
      if t.compress then begin
        let z = Lz77.compress body in
        if String.length z < String.length body then "\001" ^ z
        else "\000" ^ body
      end
      else "\000" ^ body
    in
    let off = Heap_file.append t.file payload in
    ignore (Vec.push t.blocks { bk_off = off; bk_start = t.sealed_rows; bk_rows = n });
    t.sealed_rows <- t.sealed_rows + n;
    Array.fill t.open_block 0 n (Live [||]);
    t.open_n <- 0;
    t.open_bytes <- 0;
    Obs.incr c_blocks_sealed
  end

let approx_row_bytes rv =
  let value_bytes = function
    | Value.Int _ -> 8
    | Value.Str s -> String.length s + 2
  in
  match rv with
  | Live tuple -> Array.fold_left (fun acc v -> acc + value_bytes v) 2 tuple
  | Tombstone key -> 2 + value_bytes key

let append t rv =
  let row = t.sealed_rows + t.open_n in
  t.open_block.(t.open_n) <- rv;
  t.open_n <- t.open_n + 1;
  t.open_bytes <- t.open_bytes + approx_row_bytes rv;
  if t.open_n = block_rows then seal t;
  row

let flush t =
  seal t;
  Heap_file.flush t.file

(* ------------------------------------------------------------------ *)
(* block decoding *)

type col_batch =
  | C_int of int64 array
  | C_str of string array
  | C_dict of { dict : string array; codes : int array }

type batch = {
  b_rows : int;
  b_cols : col_batch array; (* key-projected: the others are empty *)
  b_tombs : Bitvec.t option;
}

(* Per-domain scratch: decoded-column arrays reused block to block
   inside one scan.  [busy] guards re-entrancy — a scan started from
   inside another scan's consumer falls back to fresh allocation
   rather than clobbering the outer batch. *)
type scratch = {
  mutable s_ints : int64 array array;
  mutable s_strs : string array array;
  mutable s_codes : int array array;
  mutable s_busy : bool;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { s_ints = [||]; s_strs = [||]; s_codes = [||]; s_busy = false })

let grow_slot arr c mk =
  if Array.length !arr <= c then begin
    let bigger = Array.make (c + 4) [||] in
    Array.blit !arr 0 bigger 0 (Array.length !arr);
    arr := bigger
  end;
  if Array.length !arr.(c) = 0 then !arr.(c) <- mk ();
  !arr.(c)

let scratch_ints s c =
  let r = ref s.s_ints in
  let a = grow_slot r c (fun () -> Array.make block_rows 0L) in
  s.s_ints <- !r;
  a

let scratch_strs s c =
  let r = ref s.s_strs in
  let a = grow_slot r c (fun () -> Array.make block_rows "") in
  s.s_strs <- !r;
  a

let scratch_codes s c =
  let r = ref s.s_codes in
  let a = grow_slot r c (fun () -> Array.make block_rows 0) in
  s.s_codes <- !r;
  a

let corrupt fmt = Printf.ksprintf (fun m -> raise (Binio.Corrupt m)) fmt

(* Decode one sealed block payload into a batch.  With [?scratch] the
   column arrays are the per-domain scratch (valid until the next
   decode on this domain); without, fresh arrays are allocated.  With
   [~keys_only] only the primary-key column is decoded: every other
   column's header is read and its bytes skipped by the recorded
   length, under the same bounds checks. *)
let decode_payload t ?scratch ?(keys_only = false) payload =
  Obs.charge Obs.Prof.Bytes_decoded (String.length payload);
  Obs.incr c_blocks_decoded;
  let pos = ref 0 in
  let body =
    match Binio.read_u8 payload pos with
    | 0 -> payload
    | 1 ->
        let z = String.sub payload 1 (String.length payload - 1) in
        let b = Lz77.decompress z in
        pos := 0;
        b
    | w -> corrupt "Col_segment: bad block wrap tag %d in %s" w t.path
  in
  let n = Binio.read_varint body pos in
  if n <= 0 || n > block_rows then
    corrupt "Col_segment: bad block row count %d in %s" n t.path;
  Obs.add c_rows_decoded n;
  let tombs =
    match Binio.read_u8 body pos with
    | 0 -> None
    | 1 ->
        let v = Rle.decode body pos in
        if Bitvec.length v <> n then
          corrupt "Col_segment: tombstone bitmap length mismatch in %s" t.path;
        Some v
    | b -> corrupt "Col_segment: bad tombstone flag %d in %s" b t.path
  in
  let cols = Schema.columns t.schema in
  let pk = Schema.pk_index t.schema in
  let b_cols =
    Array.mapi
      (fun c (col : Schema.column) ->
        let enc = Binio.read_u8 body pos in
        let len = Binio.read_varint body pos in
        if len < 0 || !pos + len > String.length body then
          corrupt "Col_segment: column %d overruns block in %s" c t.path;
        let colend = !pos + len in
        (match enc, col.Schema.col_type with
        | (0 | 1), Schema.T_int | (2 | 3), Schema.T_str -> ()
        | _ ->
            corrupt "Col_segment: bad encoding %d for column %d in %s" enc c
              t.path);
        if keys_only && c <> pk then (pos := colend; C_int [||])
        else
        let r =
          match enc, col.Schema.col_type with
          | 0, Schema.T_int ->
              let v = Varint.read_i64 body pos in
              let a =
                match scratch with
                | Some s -> scratch_ints s c
                | None -> Array.make n 0L
              in
              Array.fill a 0 n v;
              C_int a
          | 1, Schema.T_int ->
              let a =
                match scratch with
                | Some s -> scratch_ints s c
                | None -> Array.make n 0L
              in
              let prev = ref 0L in
              for j = 0 to n - 1 do
                prev := Int64.add !prev (Varint.read_i64 body pos);
                a.(j) <- !prev
              done;
              C_int a
          | 2, Schema.T_str ->
              let a =
                match scratch with
                | Some s -> scratch_strs s c
                | None -> Array.make n ""
              in
              for j = 0 to n - 1 do
                a.(j) <- Binio.read_string body pos
              done;
              C_str a
          | 3, Schema.T_str ->
              let ndict = Binio.read_varint body pos in
              if ndict <= 0 || ndict > n then
                corrupt "Col_segment: bad dictionary size %d in %s" ndict
                  t.path;
              let dict =
                Array.init ndict (fun _ -> Binio.read_string body pos)
              in
              let codes =
                match scratch with
                | Some s -> scratch_codes s c
                | None -> Array.make n 0
              in
              for j = 0 to n - 1 do
                let code = Binio.read_varint body pos in
                if code >= ndict then
                  corrupt "Col_segment: dictionary code %d out of range in %s"
                    code t.path;
                codes.(j) <- code
              done;
              C_dict { dict; codes }
          | _ -> assert false (* tags checked above *)
        in
        if !pos <> colend then
          corrupt "Col_segment: column %d length mismatch in %s" c t.path;
        r)
      cols
  in
  { b_rows = n; b_cols; b_tombs = tombs }

let col_value cols c j =
  match cols.(c) with
  | C_int a -> Value.Int a.(j)
  | C_str a -> Value.Str a.(j)
  | C_dict { dict; codes } -> Value.Str dict.(codes.(j))

(* placeholder for Array.make before the real values land; never
   escapes *)
let dummy_value = Value.Int 0L

let tuple_of_batch b j =
  let n = Array.length b.b_cols in
  let a = Array.make n dummy_value in
  for c = 0 to n - 1 do
    Array.unsafe_set a c (col_value b.b_cols c j)
  done;
  a

let is_tomb b j =
  match b.b_tombs with None -> false | Some v -> Bitvec.get v j

let row_value_of_batch t b j =
  if is_tomb b j then Tombstone (col_value b.b_cols (Schema.pk_index t.schema) j)
  else Live (tuple_of_batch b j)

(* Per-domain cache of the most recently decoded block per segment:
   point lookups cluster (pk probes during merges and diffs), so one
   cached batch per segment id removes the quadratic decode. *)
let cache_key :
    (int, int * batch) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let block_index_of_row t row =
  (* greatest block with bk_start <= row *)
  let n = Vec.length t.blocks in
  let rec search lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if (Vec.get t.blocks mid).bk_start <= row then search (mid + 1) hi
      else search lo mid
  in
  let i = search 0 n in
  if i < 0 then corrupt "Col_segment: row %d before first block in %s" row t.path
  else i

(* Approximate on-disk bytes holding rows [0, row): the heap bytes
   before the block holding [row] — the charge basis for governed
   scans bounded by a row locator. *)
let bytes_upto t row =
  if row >= t.sealed_rows then Heap_file.size t.file
  else (Vec.get t.blocks (block_index_of_row t row)).bk_off

(* Fetch (checksum included) and decode sealed block [bi]. *)
let fetch_batch t ?scratch ?keys_only bi =
  let blk = Vec.get t.blocks bi in
  let payload = Heap_file.get t.file blk.bk_off in
  let b = decode_payload t ?scratch ?keys_only payload in
  if b.b_rows <> blk.bk_rows then
    corrupt "Col_segment: block at %d has %d rows, expected %d in %s"
      blk.bk_off b.b_rows blk.bk_rows t.path;
  b

let cached_batch t bi =
  let cache = Domain.DLS.get cache_key in
  match Hashtbl.find_opt cache t.id with
  | Some (i, b) when i = bi -> b
  | _ ->
      let b = fetch_batch t bi in
      Hashtbl.replace cache t.id (bi, b);
      b

let check_row t row =
  if row < 0 || row >= rows t then
    corrupt "Col_segment: row %d out of range (have %d) in %s" row (rows t)
      t.path

let with_scratch f =
  let s = Domain.DLS.get scratch_key in
  if s.s_busy then f None
  else begin
    s.s_busy <- true;
    Fun.protect ~finally:(fun () -> s.s_busy <- false) (fun () -> f (Some s))
  end

let get t row =
  check_row t row;
  if row >= t.sealed_rows then t.open_block.(row - t.sealed_rows)
  else
    let bi = block_index_of_row t row in
    let blk = Vec.get t.blocks bi in
    let b = cached_batch t bi in
    row_value_of_batch t b (row - blk.bk_start)

let get_tuple t row =
  match get t row with
  | Live tuple -> tuple
  | Tombstone _ ->
      corrupt "Col_segment: row %d of %s is a tombstone" row t.path

(* ------------------------------------------------------------------ *)
(* iteration *)

let clip_bounds t from upto =
  let n = rows t in
  (max 0 (Option.value from ~default:0), min n (Option.value upto ~default:n))

(* [f bi blk lo hi] for each sealed block overlapping [from, upto),
   ascending, with the overlap [lo, hi) in absolute rows. *)
let each_block t from upto f =
  let last = min upto t.sealed_rows - 1 in
  if from <= last then
    for bi = block_index_of_row t from to block_index_of_row t last do
      let blk = Vec.get t.blocks bi in
      f bi blk (max from blk.bk_start) (min upto (blk.bk_start + blk.bk_rows))
    done

(* All rows (live and tombstone) in [from, upto), ascending. *)
let iter ?from ?upto t f =
  let from, upto = clip_bounds t from upto in
  with_scratch (fun scratch ->
      each_block t from upto (fun bi blk lo hi ->
          let b = fetch_batch t ?scratch bi in
          for row = lo to hi - 1 do
            f row (row_value_of_batch t b (row - blk.bk_start))
          done));
  for row = max from t.sealed_rows to upto - 1 do
    f row t.open_block.(row - t.sealed_rows)
  done

(* ------------------------------------------------------------------ *)
(* lineage blocks *)

(* One fetched block (or a copy of unsealed rows), answering for the
   absolute rows [bl_lo, bl_hi); [bl_start] is the row at index 0 of
   its data. *)
type block = {
  bl_lo : int;
  bl_hi : int;
  bl_start : int;
  bl_pk : int;
  bl_data : block_data;
}

and block_data = Sealed of batch | Unsealed of row_value array

(* The blocks holding rows [from, upto), newest first.  Each sealed
   block is fetched and decoded exactly once, into fresh arrays: the
   list outlives this call (engines buffer it across domains), so the
   per-domain scratch cannot back it. *)
let blocks_rev ?(keys_only = false) ?from ?upto t =
  let from, upto = clip_bounds t from upto in
  let block bl_lo bl_hi bl_start bl_data =
    { bl_lo; bl_hi; bl_start; bl_pk = Schema.pk_index t.schema; bl_data }
  in
  let acc = ref [] in
  each_block t from upto (fun bi blk lo hi ->
      let b = fetch_batch t ~keys_only bi in
      acc := block lo hi blk.bk_start (Sealed b) :: !acc);
  let lo = max from t.sealed_rows in
  if lo < upto then begin
    let rows = Array.sub t.open_block (lo - t.sealed_rows) (upto - lo) in
    acc := block lo upto lo (Unsealed rows) :: !acc
  end;
  !acc

let extent bl = (bl.bl_lo, bl.bl_hi)

let key bl row =
  let j = row - bl.bl_start in
  match bl.bl_data with
  | Sealed b -> col_value b.b_cols bl.bl_pk j
  | Unsealed a -> (
      match a.(j) with Live tuple -> tuple.(bl.bl_pk) | Tombstone key -> key)

let is_tombstone bl row =
  let j = row - bl.bl_start in
  match bl.bl_data with
  | Sealed b -> is_tomb b j
  | Unsealed a -> ( match a.(j) with Live _ -> false | Tombstone _ -> true)

let tuple bl row =
  if is_tombstone bl row then invalid_arg "Col_segment.tuple: tombstone row";
  match bl.bl_data with
  | Sealed b -> tuple_of_batch b (row - bl.bl_start)
  | Unsealed a -> (
      match a.(row - bl.bl_start) with Live t -> t | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* predicate compilation against a decoded batch *)

let compile_pred cols (p : Col_pred.t) =
  match cols.(p.Col_pred.cp_col), p.Col_pred.cp_value with
  | C_int a, Value.Int v ->
      let op = p.Col_pred.cp_op in
      fun j -> Col_pred.matches op (Int64.compare a.(j) v)
  | C_str a, Value.Str v ->
      let op = p.Col_pred.cp_op in
      fun j -> Col_pred.matches op (String.compare a.(j) v)
  | C_dict { dict; codes }, Value.Str v ->
      (* evaluate once per dictionary entry, then test codes only *)
      let op = p.Col_pred.cp_op in
      let ok = Array.map (fun d -> Col_pred.matches op (String.compare d v)) dict in
      fun j -> ok.(codes.(j))
  | (C_int _, Value.Str _) ->
      (* Value.compare orders Int < Str: int cell vs str literal *)
      let r = Col_pred.matches p.Col_pred.cp_op (-1) in
      fun _ -> r
  | (C_str _ | C_dict _), Value.Int _ ->
      let r = Col_pred.matches p.Col_pred.cp_op 1 in
      fun _ -> r

let compile_preds cols preds =
  let fs = List.map (compile_pred cols) preds in
  match fs with
  | [] -> fun _ -> true
  | [ f ] -> f
  | fs -> fun j -> List.for_all (fun f -> f j) fs

(* ------------------------------------------------------------------ *)
(* filtered scan *)

(* Live rows of [from, upto) passing [sel] (a bitmap over absolute
   rows) and [preds], ascending; tuples are materialized only for
   emitted rows. *)
let scan ?sel ?(preds = []) ?from ?upto t f =
  let from, upto = clip_bounds t from upto in
  with_scratch (fun scratch ->
      each_block t from upto (fun bi blk lo hi ->
          let selected =
            match sel with
            | None -> true
            | Some sel -> Bitvec.any_in_range sel ~lo ~hi
          in
          if not selected then Obs.incr c_blocks_skipped
          else begin
            let b = fetch_batch t ?scratch bi in
            let ok = compile_preds b.b_cols preds in
            let emit row =
              let j = row - blk.bk_start in
              if (not (is_tomb b j)) && ok j then f row (tuple_of_batch b j)
            in
            match sel with
            | Some sel -> Bitvec.iter_set_range emit sel ~lo ~hi
            | None ->
                for row = lo to hi - 1 do
                  emit row
                done
          end);
      (* open block: evaluate row-wise on the in-memory rows *)
      for row = max from t.sealed_rows to upto - 1 do
        let selected =
          match sel with None -> true | Some sel -> Bitvec.get sel row
        in
        if selected then
          match t.open_block.(row - t.sealed_rows) with
          | Live tuple -> if Col_pred.eval_tuple preds tuple then f row tuple
          | Tombstone _ -> ()
      done)

(* ------------------------------------------------------------------ *)
(* manifest metadata *)

(* Seals the open block and flushes the heap first, so the persisted
   byte size covers every appended row — reopen truncates the heap to
   exactly this size. *)
let save_meta buf t =
  flush t;
  Binio.write_varint buf (Heap_file.size t.file);
  Binio.write_varint buf (Vec.length t.blocks);
  Vec.iter
    (fun b ->
      Binio.write_varint buf b.bk_off;
      Binio.write_varint buf b.bk_rows)
    t.blocks;
  Array.iter
    (fun st ->
      Binio.write_varint buf st.cs_raw_bytes;
      Binio.write_varint buf st.cs_enc_bytes;
      Binio.write_varint buf st.cs_const_blocks;
      Binio.write_varint buf st.cs_delta_blocks;
      Binio.write_varint buf st.cs_rawstr_blocks;
      Binio.write_varint buf st.cs_dict_blocks)
    t.stats

(* Parses a segment section and opens its file at the manifest size;
   bytes a crash left past it stay on disk until [reclaim_tail]. *)
let open_v2 ~pool ~schema ~compress ~path s pos =
  let size = Binio.read_varint s pos in
  let blocks =
    Binio.read_list
      (fun s pos ->
        let bk_off = Binio.read_varint s pos in
        let bk_rows = Binio.read_varint s pos in
        if bk_rows <= 0 || bk_rows > block_rows || bk_off < 0 || bk_off >= size
        then corrupt "Col_segment: bad block descriptor in manifest for %s" path;
        (bk_off, bk_rows))
      s pos
  in
  let stats =
    Array.init (Schema.arity schema) (fun _ ->
        let st = fresh_stats () in
        st.cs_raw_bytes <- Binio.read_varint s pos;
        st.cs_enc_bytes <- Binio.read_varint s pos;
        st.cs_const_blocks <- Binio.read_varint s pos;
        st.cs_delta_blocks <- Binio.read_varint s pos;
        st.cs_rawstr_blocks <- Binio.read_varint s pos;
        st.cs_dict_blocks <- Binio.read_varint s pos;
        st)
  in
  (* the whole section parsed: only now touch the file *)
  if not (Sys.file_exists path) then
    corrupt "Col_segment: segment file %s is missing" path;
  let file = Heap_file.open_existing ~pool ~size path in
  let t = { (make ~pool ~schema ~compress ~path file) with stats } in
  let start = ref 0 in
  List.iter
    (fun (bk_off, bk_rows) ->
      ignore (Vec.push t.blocks { bk_off; bk_start = !start; bk_rows });
      start := !start + bk_rows)
    blocks;
  t.sealed_rows <- !start;
  t

(* Crash recovery: bytes written after the last checkpoint are cut
   (the WAL replays them instead). *)
let reclaim_tail t = Heap_file.truncate_to t.file (Heap_file.size t.file)

(* ------------------------------------------------------------------ *)
(* per-column encoding report *)

type col_report = {
  cr_name : string;
  cr_encoding : string; (* dominant encoding across sealed blocks *)
  cr_raw_bytes : int;
  cr_enc_bytes : int;
}

let column_report t =
  let cols = Schema.columns t.schema in
  Array.mapi
    (fun c (col : Schema.column) ->
      let st = t.stats.(c) in
      let kinds =
        [
          ("const", st.cs_const_blocks);
          ("delta", st.cs_delta_blocks);
          ("raw", st.cs_rawstr_blocks);
          ("dict", st.cs_dict_blocks);
        ]
      in
      let dominant =
        List.fold_left
          (fun (bn, bc) (n, c) -> if c > bc then (n, c) else (bn, bc))
          ("none", 0) kinds
        |> fst
      in
      {
        cr_name = col.Schema.col_name;
        cr_encoding = dominant;
        cr_raw_bytes = st.cs_raw_bytes;
        cr_enc_bytes = st.cs_enc_bytes;
      })
    cols

(* Aggregate several segments' reports (multi-segment engines): byte
   volumes sum per column; the dominant encoding is taken from the
   segment contributing the most raw bytes to that column. *)
let merge_column_reports reports =
  match reports with
  | [] -> [||]
  | r0 :: _ ->
      Array.mapi
        (fun i c0 ->
          let raw = ref 0 and enc = ref 0 in
          let best = ref c0.cr_encoding and best_raw = ref (-1) in
          List.iter
            (fun r ->
              let c = r.(i) in
              raw := !raw + c.cr_raw_bytes;
              enc := !enc + c.cr_enc_bytes;
              if c.cr_raw_bytes > !best_raw then begin
                best_raw := c.cr_raw_bytes;
                best := c.cr_encoding
              end)
            reports;
          {
            cr_name = c0.cr_name;
            cr_encoding = !best;
            cr_raw_bytes = !raw;
            cr_enc_bytes = !enc;
          })
        r0

(* ------------------------------------------------------------------ *)
(* integrity, lifecycle *)

let verify_records t =
  match Heap_file.verify t.file with
  | [] ->
      let errors = ref [] in
      Vec.iteri
        (fun i blk ->
          try
            let b = decode_payload t (Heap_file.get t.file blk.bk_off) in
            if b.b_rows <> blk.bk_rows then
              errors :=
                (blk.bk_off, Printf.sprintf "block %d row count mismatch" i)
                :: !errors
          with Binio.Corrupt msg -> errors := (blk.bk_off, msg) :: !errors)
        t.blocks;
      List.rev !errors
  | errs -> errs

let stray_tail = "stray tail:"

let verify t =
  let end_ = Heap_file.size t.file in
  verify_records t
  @
  match Heap_file.stray_bytes t.file with
  | 0 -> []
  | n ->
      [
        ( end_,
          Printf.sprintf "%s %d bytes past the checkpointed end %d" stray_tail
            n end_ );
      ]

let close t =
  flush t;
  Heap_file.close t.file

let abandon t = Heap_file.abandon t.file

(* A manifest refused anywhere, even in its last section, leaves no
   segment file open and every file as it was: tails are reclaimed
   only once the whole manifest has loaded, and never by a read-only
   open. *)
let with_opened ~cut_tails f =
  let opened = ref [] in
  let open_v2 ~pool ~schema ~compress ~path s pos =
    let t = open_v2 ~pool ~schema ~compress ~path s pos in
    opened := t :: !opened;
    t
  in
  try
    let x = f open_v2 in
    if cut_tails then List.iter reclaim_tail !opened;
    x
  with e ->
    List.iter abandon !opened;
    raise e

(* The only segment format the engines read and write. *)
let current_format = 2
