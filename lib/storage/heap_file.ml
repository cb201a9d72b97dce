open Decibel_util
module Obs = Decibel_obs.Obs
module Failpoint = Decibel_fault.Failpoint
module Retry = Decibel_fault.Retry

(* heap.* registry counters: shared by every heap/segment file, so
   engine scans can attribute page traffic without plumbing handles *)
let c_pages_read = Obs.counter "heap.pages_read"
let c_pages_allocated = Obs.counter "heap.pages_allocated"
let c_records_written = Obs.counter "heap.records_written"
let c_bytes_written = Obs.counter "heap.bytes_written"
let c_flushes = Obs.counter "heap.flushes"

type t = {
  path : string;
  fd : Unix.file_descr;
  io_m : Mutex.t;
      (* OCaml's Unix has no pread: positioned reads are an
         lseek+read pair on the shared fd, which parallel scan
         workers would otherwise interleave. Writes (flush) take it
         too, since they also move the file offset. *)
  pool : Buffer_pool.t;
  file_id : int;
  mutable size : int; (* logical end, including pending bytes *)
  mutable flushed : int; (* bytes durable in [fd] *)
  pending : Buffer.t;
      (* starts small and grows with the appends since the last flush,
         which hands its memory back: an idle or sealed file (one per
         segment, and segments multiply with branches) costs bytes,
         not [flush_threshold] *)
  mutable closed : bool;
}

let flush_threshold = 1 lsl 20

let make ~pool path fd initial_size =
  {
    path;
    fd;
    io_m = Mutex.create ();
    pool;
    file_id = Buffer_pool.next_file_id pool;
    size = initial_size;
    flushed = initial_size;
    pending = Buffer.create 256;
    closed = false;
  }

let create ~pool path =
  let fd = Unix.openfile path [ O_RDWR; O_CREAT; O_TRUNC ] 0o644 in
  make ~pool path fd 0

(* Bytes past [size] stay on disk, unread, until a [truncate_to]
   reclaims them: a reopen can check the rest of its manifest before
   it cuts anything. *)
let open_existing ~pool ~size path =
  let fd = Unix.openfile path [ O_RDWR ] 0o644 in
  let on_disk = (Unix.fstat fd).st_size in
  if size < 0 || size > on_disk then begin
    Unix.close fd;
    raise
      (Binio.Corrupt
         (Printf.sprintf "Heap_file: size %d outside %s (%d bytes)" size path
            on_disk))
  end;
  make ~pool path fd size

(* Open-or-create with logical size 0 but WITHOUT truncating: the
   maintenance executor uses this to stage an empty segment over a
   slot whose old bytes must survive until the manifest commits (a
   crash before the commit must still reopen the old data).  The stale
   on-disk tail is reclaimed later by [truncate_to]/[create]. *)
let open_reset ~pool path =
  let fd = Unix.openfile path [ O_RDWR; O_CREAT ] 0o644 in
  make ~pool path fd 0

let path t = t.path
let size t = t.size

let page_count t =
  let psz = Buffer_pool.page_size t.pool in
  (t.size + psz - 1) / psz

let check_open t = if t.closed then invalid_arg "Heap_file: closed"

let flush t =
  check_open t;
  if Buffer.length t.pending > 0 then begin
    let data = Buffer.contents t.pending in
    let len = String.length data in
    (* the guard may tear this write: a prefix lands on disk, the
       exception propagates, and [flushed]/[pending] stay put — the
       same state a crash mid-write leaves, cleaned up by the
       truncate-to-manifest-size step on reopen *)
    Retry.with_retries ~site:"heap.flush" (fun () ->
        Failpoint.guard_write "heap.flush" data (fun data ->
            Mutex.lock t.io_m;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock t.io_m)
              (fun () ->
                let _ = Unix.lseek t.fd t.flushed SEEK_SET in
                let n = String.length data in
                let written = Unix.write_substring t.fd data 0 n in
                if written <> n then failwith "Heap_file.flush: short write")));
    (* the old tail page may be cached with its old, shorter contents *)
    let psz = Buffer_pool.page_size t.pool in
    Buffer_pool.invalidate_page t.pool ~file:t.file_id ~page:(t.flushed / psz);
    Obs.add c_pages_allocated
      (((t.flushed + len + psz - 1) / psz) - ((t.flushed + psz - 1) / psz));
    t.flushed <- t.flushed + len;
    Buffer.reset t.pending;
    Obs.incr c_flushes;
    Buffer_pool.note_write_back t.pool
  end

let truncate_to t size =
  check_open t;
  if Buffer.length t.pending > 0 then
    invalid_arg "Heap_file.truncate_to: pending appends";
  if size < 0 || size > t.flushed then
    invalid_arg "Heap_file.truncate_to: size out of range";
  Failpoint.hit "heap.truncate";
  Unix.ftruncate t.fd size;
  (* only pages at or past the cut are stale (the page containing the
     cut may be cached with bytes beyond it); the retained prefix
     stays warm *)
  let psz = Buffer_pool.page_size t.pool in
  Buffer_pool.invalidate_from t.pool ~file:t.file_id ~page:(size / psz);
  t.flushed <- size;
  t.size <- size

let append t payload =
  check_open t;
  Failpoint.hit "heap.append";
  let off = t.size in
  Binio.write_varint t.pending (String.length payload);
  Binio.write_u32 t.pending (Crc32.string payload);
  Buffer.add_string t.pending payload;
  t.size <- t.flushed + Buffer.length t.pending;
  Obs.incr c_records_written;
  Obs.add c_bytes_written (t.size - off);
  if Buffer.length t.pending >= flush_threshold then flush t;
  off

(* Read [len] bytes at [off] from the durable region, assembling from
   buffer-pool pages.  Only complete pages are cached; the partial tail
   page of the durable region is read directly each time. *)
let read_disk t off len out out_pos =
  let psz = Buffer_pool.page_size t.pool in
  let pread file_off buf buf_pos n =
    Obs.incr c_pages_read;
    Mutex.lock t.io_m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.io_m)
      (fun () ->
        let _ = Unix.lseek t.fd file_off SEEK_SET in
        let rec loop pos remaining =
          if remaining > 0 then begin
            let r = Unix.read t.fd buf pos remaining in
            if r = 0 then failwith "Heap_file: unexpected EOF";
            loop (pos + r) (remaining - r)
          end
        in
        loop buf_pos n)
  in
  let first_page = off / psz and last_page = (off + len - 1) / psz in
  for p = first_page to last_page do
    let page_start = p * psz in
    let avail = min psz (t.flushed - page_start) in
    (* partial tail pages are cached too; flush invalidates the stale
       boundary page when the durable region grows past it *)
    let cached =
      match Buffer_pool.find t.pool ~file:t.file_id ~page:p with
      | Some data when Bytes.length data >= avail -> Some data
      | Some _ | None -> None
    in
    let page =
      match cached with
      | Some data -> data
      | None ->
          let data = Bytes.create avail in
          pread page_start data 0 avail;
          Buffer_pool.add t.pool ~file:t.file_id ~page:p data;
          data
    in
    let seg_start = max off page_start in
    let seg_end = min (off + len) (page_start + avail) in
    if seg_end > seg_start then
      Bytes.blit page (seg_start - page_start) out
        (out_pos + (seg_start - off))
        (seg_end - seg_start)
  done

let read_raw t off len =
  check_open t;
  if off < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Heap_file.read_raw: [%d,%d) out of bounds (size %d)"
         off (off + len) t.size);
  let out = Bytes.create len in
  let disk_len = min len (max 0 (t.flushed - off)) in
  if disk_len > 0 then read_disk t off disk_len out 0;
  if disk_len < len then begin
    let mem_off = max off t.flushed - t.flushed in
    let mem_len = len - disk_len in
    let s = Buffer.sub t.pending mem_off mem_len in
    Bytes.blit_string s 0 out disk_len mem_len
  end;
  Bytes.unsafe_to_string out

(* Header: varint payload length (<= 5 bytes) + u32 CRC-32 of the
   payload.  Returns (len, crc, payload_off). *)
let read_header t off =
  let n = min 9 (t.size - off) in
  if off < 0 || n <= 0 then
    raise (Binio.Corrupt "Heap_file: record offset outside the file");
  let hdr = read_raw t off n in
  let pos = ref 0 in
  let len = Binio.read_varint hdr pos in
  if !pos + 4 > n then
    raise (Binio.Corrupt "Heap_file: record header truncated");
  let crc = Binio.read_u32 hdr pos in
  if len < 0 || len > t.size - off - !pos then
    raise (Binio.Corrupt "Heap_file: record overruns the file");
  (len, crc, off + !pos)

let checked t off crc payload =
  if Crc32.string payload <> crc then
    raise
      (Binio.Corrupt
         (Printf.sprintf "Heap_file: checksum mismatch at offset %d of %s" off
            t.path));
  payload

let get t off =
  Failpoint.hit "heap.get";
  let len, crc, payload_off = read_header t off in
  checked t off crc (read_raw t payload_off len)

let iter ?(from = 0) ?upto t f =
  check_open t;
  let upto = Option.value upto ~default:t.size in
  let pos = ref from in
  while !pos < upto do
    let len, crc, payload_off = read_header t !pos in
    f !pos (checked t !pos crc (read_raw t payload_off len));
    pos := payload_off + len
  done

let iter_rev ?(from = 0) ?upto t f =
  check_open t;
  let upto = Option.value upto ~default:t.size in
  (* First pass collects record extents (headers only), second reads
     payloads newest-first. *)
  let extents = ref [] in
  let pos = ref from in
  while !pos < upto do
    let len, _, payload_off = read_header t !pos in
    extents := (!pos, payload_off, len) :: !extents;
    pos := payload_off + len
  done;
  List.iter
    (fun (off, payload_off, len) ->
      let _, crc, _ = read_header t off in
      f off (checked t off crc (read_raw t payload_off len)))
    !extents

let verify t =
  check_open t;
  let errors = ref [] in
  (try
     let pos = ref 0 in
     while !pos < t.size do
       let len, crc, payload_off = read_header t !pos in
       if payload_off + len > t.size then
         raise
           (Binio.Corrupt
              (Printf.sprintf "record at offset %d overruns end of file" !pos));
       let payload = read_raw t payload_off len in
       if Crc32.string payload <> crc then
         errors :=
           (!pos, Printf.sprintf "checksum mismatch at offset %d" !pos)
           :: !errors;
       pos := payload_off + len
     done
   with Binio.Corrupt msg ->
     (* framing is broken: nothing past this point can be trusted *)
     errors := (-1, msg) :: !errors);
  List.rev !errors

let stray_bytes t =
  check_open t;
  max 0 ((Unix.fstat t.fd).Unix.st_size - t.flushed)

let close t =
  if not t.closed then begin
    flush t;
    Unix.close t.fd;
    Buffer_pool.invalidate_file t.pool t.file_id;
    t.closed <- true
  end

let abandon t =
  if not t.closed then begin
    (* crash simulation: drop buffered appends on the floor and close
       the descriptor without flushing — disk keeps only what earlier
       flushes made durable *)
    Buffer.reset t.pending;
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    Buffer_pool.invalidate_file t.pool t.file_id;
    t.closed <- true
  end

let remove t =
  close t;
  if Sys.file_exists t.path then Sys.remove t.path
