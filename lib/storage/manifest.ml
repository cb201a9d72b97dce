(* Engine checkpoint manifests: header | body | locators | dirty | WAL
   marker, then the Atomic_file trailer.  A v1 manifest has no header
   and cannot begin with the v2 magic: v1 tuple-first manifests begin
   with a short layout name's length (< 0x80), the others with a 0/1
   compress flag. *)

open Decibel_util
module Vg = Decibel_graph.Version_graph

exception Engine_error of string

let errorf fmt = Printf.ksprintf (fun s -> raise (Engine_error s)) fmt
let corrupt fmt = Printf.ksprintf (fun s -> raise (Binio.Corrupt s)) fmt

type kind = Tf | Vf | Hy

let file = function
  | Tf -> "manifest.tf"
  | Vf -> "manifest.vf"
  | Hy -> "manifest.hy"

let name = function
  | Tf -> "tuple-first"
  | Vf -> "version-first"
  | Hy -> "hybrid"

let path kind dir = Filename.concat dir (file kind)
let magic_v2 = 0xF2

(* 1 (cursor unmoved) or the version of a v2 header (cursor past it) *)
let version s pos =
  if String.length s > !pos && Char.code s.[!pos] = magic_v2 then begin
    incr pos;
    let v = Binio.read_u8 s pos in
    if v <> Col_segment.current_format then
      corrupt "Manifest: unsupported format version %d" v;
    v
  end
  else 1

let detect dir =
  match List.filter (fun k -> Sys.file_exists (path k dir)) [ Tf; Vf; Hy ] with
  | [ Tf ] ->
      (* both bitmap layouts share the file; it records which layout
         wrote it, past the header (v1 manifests have none) *)
      let s = Binio.read_file (path Tf dir) in
      let pos = ref 0 in
      ignore (version s pos);
      (Tf, Some (Binio.read_string s pos))
  | [ kind ] -> (kind, None)
  | [] -> errorf "no Decibel repository found in %s" dir
  | _ -> errorf "ambiguous repository manifests in %s" dir

let write path body =
  let buf = Buffer.create 4096 in
  Binio.write_u8 buf magic_v2;
  Binio.write_u8 buf Col_segment.current_format;
  body buf;
  Atomic_file.write path (Buffer.contents buf)

let write_flag buf b = Binio.write_u8 buf (if b then 1 else 0)

let write_head buf ~compress ~graph ~schema =
  write_flag buf compress;
  Binio.write_string buf (Vg.serialize graph);
  Schema.serialize buf schema

let write_tail buf ~locators write_loc ~dirty ~wal_marker =
  Binio.write_varint buf (Hashtbl.length locators);
  Hashtbl.iter
    (fun vid loc ->
      Binio.write_varint buf vid;
      write_loc buf loc)
    locators;
  Binio.write_varint buf (Hashtbl.length dirty);
  Hashtbl.iter
    (fun b d ->
      Binio.write_varint buf b;
      write_flag buf d)
    dirty;
  Binio.write_varint buf wal_marker

let read kind ~dir =
  let s =
    try Atomic_file.read (path kind dir)
    with Sys_error _ -> errorf "%s: no repository in %s" (name kind) dir
  in
  let pos = ref 0 in
  let v = version s pos in
  (s, pos, v)

let load kind ~dir body =
  let s, pos, v = read kind ~dir in
  if v < Col_segment.current_format then
    errorf "segment format v1: run fsck --migrate";
  let x = body s pos in
  if !pos <> String.length s then
    corrupt "Manifest: %d trailing bytes in %s" (String.length s - !pos)
      (file kind);
  x

let read_v1 kind ~dir =
  let s, pos, v = read kind ~dir in
  if v < Col_segment.current_format then Some (s, pos) else None

let read_id what ~bound s pos =
  let id = Binio.read_varint s pos in
  if id < 0 || id >= bound then
    corrupt "Manifest: %s %d out of range [0, %d)" what id bound;
  id

let check what ok = if not ok then corrupt "Manifest: inconsistent %s" what

let read_flag s pos = Binio.read_u8 s pos = 1

let read_head s pos =
  let compress = read_flag s pos in
  let graph = Vg.deserialize (Binio.read_string s pos) in
  let schema = Schema.deserialize s pos in
  (compress, graph, schema)

let read_tail s pos ~locators read_loc ~dirty ~branches =
  for _ = 1 to Binio.read_varint s pos do
    let vid = Binio.read_varint s pos in
    Hashtbl.replace locators vid (read_loc s pos)
  done;
  for _ = 1 to Binio.read_varint s pos do
    let b = read_id "dirty branch" ~bound:branches s pos in
    Hashtbl.replace dirty b (read_flag s pos)
  done;
  Binio.read_varint s pos

let verify kind ~dir ~graph segments locators segments_of =
  let file = file kind in
  let finding fmt = Printf.ksprintf (fun m -> (file, m)) fmt in
  let trailer =
    Option.to_list
      (Option.map (fun r -> (file, r)) (Atomic_file.verify (path kind dir)))
  in
  let records =
    List.concat_map
      (fun seg ->
        let name = Filename.basename (Col_segment.path seg) in
        List.map (fun (_, reason) -> (name, reason)) (Col_segment.verify seg))
      segments
  in
  let nsegs = List.length segments in
  let errs =
    Hashtbl.fold
      (fun vid loc errs ->
        if not (Vg.mem_version graph vid) then
          finding "commit locator references unknown version %d" vid :: errs
        else
          List.fold_left
            (fun errs sid ->
              if sid < 0 || sid >= nsegs then
                finding "commit %d references unknown segment %d" vid sid
                :: errs
              else errs)
            errs (segments_of loc))
      locators []
  in
  trailer @ records @ List.rev errs
