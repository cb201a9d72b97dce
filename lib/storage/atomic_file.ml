(* Checksummed atomic small-file replacement (manifests, ACLs).

   Layout: payload bytes, then an 8-byte trailer of the 4-byte magic
   "DBC1" and the little-endian CRC-32 of the payload.  The trailer
   sits at the *end* so readers that sniff a manifest's leading bytes
   (scheme detection) keep working on checksummed files.

   Replacement is write-to-temp + rename, the same protocol as
   [Binio.write_file], but threaded through the fault-injection seam:
   the temp write is a [Failpoint.guard_write] (so torture runs can
   tear a manifest mid-write and prove the rename never exposes it)
   and the rename is a control site.  A crash before the rename leaves
   the previous manifest intact plus a stale [.tmp] that fsck sweeps. *)

open Decibel_util
module Failpoint = Decibel_fault.Failpoint
module Retry = Decibel_fault.Retry

let magic = "DBC1"
let trailer_len = 8

let frame payload =
  let buf = Buffer.create (String.length payload + trailer_len) in
  Buffer.add_string buf payload;
  Buffer.add_string buf magic;
  Binio.write_u32 buf (Crc32.string payload);
  Buffer.contents buf

let write path payload =
  let tmp = path ^ ".tmp" in
  Retry.with_retries (fun () ->
      Failpoint.guard_write "manifest.write_tmp" (frame payload)
        (fun data ->
          let oc = open_out_bin tmp in
          output_string oc data;
          close_out oc));
  Failpoint.hit "manifest.rename";
  Sys.rename tmp path

let check s =
  let n = String.length s in
  if n < trailer_len then
    raise (Binio.Corrupt "Atomic_file: missing checksum trailer");
  let payload_len = n - trailer_len in
  if String.sub s payload_len 4 <> magic then
    raise (Binio.Corrupt "Atomic_file: bad trailer magic");
  let pos = ref (payload_len + 4) in
  let stored = Binio.read_u32 s pos in
  if Crc32.sub s 0 payload_len <> stored then
    raise (Binio.Corrupt "Atomic_file: checksum mismatch");
  String.sub s 0 payload_len

let read path = check (Binio.read_file path)

let verify path =
  match check (Binio.read_file path) with
  | _ -> None
  | exception Binio.Corrupt msg -> Some msg
  | exception Sys_error msg -> Some msg
