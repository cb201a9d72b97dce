(* Read-only reader for the pre-columnar segment format v1, and the
   crash-atomic upgrade that rewrites a v1 repository as v2.  Nothing
   else reads v1: the engines only ever open v2 manifests.

   A v1 segment is a plain {!Heap_file}: one [varint len][u32 crc]
   [payload] record per row, the payload encoded by the engine:

     tuple-first, hybrid   u8 tag   0 raw tuple, 1 LZ77 tuple
     version-first         u8 flags 0 raw tuple, 1 tombstone (key),
                                    2 LZ77 tuple

   The walk here reads the file itself rather than through
   {!Heap_file}, so every bound, checksum and tag is checked before a
   row is copied: hostile bytes raise [Binio.Corrupt], never
   [Invalid_argument], and never reach a v2 file.

   Upgrade protocol (all staged names end in [.mig]):
   1. stage each v1 segment as a v2 segment [<file>.mig], flush and
      fsync it;
   2. write the v2 manifest to [<manifest>.mig] through {!Atomic_file}
      — the commit point;
   3. rename the staged segments over their v1 originals, the manifest
      last.
   A rerun that finds a staged manifest rolls forward (step 3);
   otherwise it deletes stray staged files and starts over.  Before
   the commit point no v1 file has been touched. *)

open Decibel_util
module Failpoint = Decibel_fault.Failpoint

let corrupt fmt = Printf.ksprintf (fun m -> raise (Binio.Corrupt m)) fmt

type layout = Tagged | Flagged

(* a walked v1 heap: bytes [0, size) and, per record, its start offset
   and payload extent *)
type heap = {
  path : string;
  size : int;
  data : string;
  records : (int * int * int) array; (* offset, payload pos, length *)
}

let read ~path ~size =
  let data =
    try Binio.read_file path
    with Sys_error msg -> corrupt "Seg_v1: cannot read %s: %s" path msg
  in
  if size < 0 || size > String.length data then
    corrupt "Seg_v1: manifest size %d exceeds %s (%d bytes)" size path
      (String.length data);
  let data = String.sub data 0 size in
  let records = ref [] in
  let pos = ref 0 in
  while !pos < size do
    let off = !pos in
    let len = Binio.read_varint data pos in
    let crc = Binio.read_u32 data pos in
    if len > size - !pos then
      corrupt "Seg_v1: record at offset %d overruns %s" off path;
    if Crc32.sub data !pos len <> crc then
      corrupt "Seg_v1: checksum mismatch at offset %d of %s" off path;
    records := (off, !pos, len) :: !records;
    pos := !pos + len
  done;
  { path; size; data; records = Array.of_list (List.rev !records) }

let rows h = Array.length h.records

(* Tuple-first and hybrid manifests list every row's offset; it must be
   exactly the walked record sequence. *)
let check_offsets h offsets =
  let n = rows h in
  if List.length offsets <> n
     || not (List.for_all2 (fun o (off, _, _) -> o = off) offsets
               (Array.to_list h.records))
  then corrupt "Seg_v1: offset table does not match the records of %s" h.path

(* Version-first locators are byte offsets: a record start, or the end
   of the segment. *)
let row_of_offset h off =
  if off = h.size then rows h
  else
    let rec search lo hi =
      if lo >= hi then
        corrupt "Seg_v1: locator %d is not a record boundary of %s" off h.path
      else
        let mid = (lo + hi) / 2 in
        let o, _, _ = h.records.(mid) in
        if o = off then mid
        else if o < off then search (mid + 1) hi
        else search lo mid
    in
    search 0 (rows h)

let decode layout schema h payload =
  let whole s f =
    let pos = ref 0 in
    let v = f s pos in
    if !pos <> String.length s then
      corrupt "Seg_v1: trailing bytes in a record of %s" h.path;
    v
  in
  let tuple s = Col_segment.Live (whole s (Tuple.decode schema)) in
  let body () = String.sub payload 1 (String.length payload - 1) in
  match layout, Binio.read_u8 payload (ref 0) with
  | _, 0 -> tuple (body ())
  | Tagged, 1 | Flagged, 2 -> tuple (Lz77.decompress (body ()))
  | Flagged, 1 ->
      let key = whole (body ()) Value.decode in
      let pk = (Schema.columns schema).(Schema.pk_index schema) in
      (match key, pk.Schema.col_type with
      | Value.Int _, Schema.T_int | Value.Str _, Schema.T_str -> ()
      | _ -> corrupt "Seg_v1: tombstone key type mismatch in %s" h.path);
      Col_segment.Tombstone key
  | _, tag -> corrupt "Seg_v1: bad record tag %d in %s" tag h.path

(* ------------------------------------------------------------------ *)
(* upgrade *)

type staging = { mutable staged : Col_segment.t list }

let stage st ~pool ~schema ~compress ~layout ?offsets ~path ~size () =
  let h = read ~path ~size in
  Option.iter (check_offsets h) offsets;
  let seg =
    Col_segment.create_v2 ~pool ~schema ~compress ~path:(path ^ ".mig")
  in
  st.staged <- seg :: st.staged;
  Array.iter
    (fun (_, p, len) ->
      let payload = String.sub h.data p len in
      ignore (Col_segment.append seg (decode layout schema h payload)))
    h.records;
  (seg, h)

let is_staged name =
  Filename.check_suffix name ".mig" || Filename.check_suffix name ".mig.tmp"

let remove_strays dir =
  Array.iter
    (fun name -> if is_staged name then Sys.remove (Filename.concat dir name))
    (Sys.readdir dir)

let fsync_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* Step 3: every staged segment over its original, the manifest last. *)
let publish ~manifest =
  let dir = Filename.dirname manifest in
  let staged_manifest = Filename.basename manifest ^ ".mig" in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.iter (fun name ->
         if Filename.check_suffix name ".mig" && name <> staged_manifest
         then begin
           Failpoint.hit "migrate.rename";
           let path = Filename.concat dir name in
           Sys.rename path (Filename.chop_suffix path ".mig")
         end);
  Failpoint.hit "migrate.rename";
  Sys.rename (manifest ^ ".mig") manifest

let upgrade ~manifest build =
  let dir = Filename.dirname manifest in
  if Sys.file_exists (manifest ^ ".mig") then begin
    publish ~manifest;
    true
  end
  else begin
    remove_strays dir;
    let data = Atomic_file.read manifest in
    let pos = ref 0 in
    if Col_segment.manifest_version data pos >= Col_segment.current_format
    then false
    else begin
      let st = { staged = [] } in
      let save =
        try
          let save = build st data pos in
          List.iter
            (fun seg ->
              Col_segment.flush seg;
              fsync_file (Col_segment.path seg))
            st.staged;
          save
        with e ->
          List.iter Col_segment.abandon st.staged;
          (* corrupt input is final: leave no staged files behind *)
          (match e with Binio.Corrupt _ -> remove_strays dir | _ -> ());
          raise e
      in
      Fun.protect
        ~finally:(fun () -> List.iter Col_segment.abandon st.staged)
        (fun () -> save (manifest ^ ".mig"));
      publish ~manifest;
      true
    end
  end
