(** Write-ahead logging of versioning operations.

    The paper notes that fault tolerance "can be done by employing
    standard write-ahead logging techniques on writes" (§2.1) and
    leaves it to future work; this module supplies it.  The log records
    *logical* operations (insert/update/delete/commit/branch/merge), so
    one implementation covers every storage scheme: after a crash, the
    engine reloads its last checkpoint (the manifest written by flush)
    and the tail of the log is replayed through the ordinary engine
    operations.

    Entries are framed as [u32 length][u32 checksum][payload] and the
    payload checksummed with FNV-1a; replay stops at the first frame
    that is truncated or fails its checksum, which is exactly the torn
    tail a crash mid-append leaves behind.  A checkpoint truncates the
    log.

    Every payload begins with a varint log-sequence number.  LSNs are
    monotonic across checkpoints (a reset truncates the file but never
    rewinds the counter), and each engine persists in its manifest the
    LSN of the last entry its checkpoint reflects, so recovery replays
    exactly the entries beyond the checkpoint — replaying an already-
    checkpointed operation would double-apply it (duplicate keys,
    spurious versions).  Appends and syncs run through the
    {!Decibel_fault.Failpoint} seam (sites ["wal.append"] — tearable —
    ["wal.sync"], ["wal.checkpoint"]); syncs retry on transient
    failures. *)

open Decibel_util
open Decibel_storage
open Types
module Obs = Decibel_obs.Obs
module Failpoint = Decibel_fault.Failpoint
module Retry = Decibel_fault.Retry

(* wal.* registry counters: log volume and durability cost ([wal.bytes]
   is the [Wal_bytes] cost kind's counter, bumped by [Obs.charge]) *)
let c_records = Obs.counter "wal.records"
let c_fsyncs = Obs.counter "wal.fsyncs"
let c_resets = Obs.counter "wal.resets"

type entry =
  | W_insert of branch_id * Tuple.t
  | W_update of branch_id * Tuple.t
  | W_delete of branch_id * Value.t
  | W_commit of branch_id * string
  | W_branch of string * version_id
  | W_merge of branch_id * branch_id * merge_policy * string
  | W_retire of branch_id

type t = {
  path : string;
  mutable oc : out_channel;
  mutable entries : int; (* entries appended since last checkpoint *)
  mutable next_lsn : int; (* monotonic, survives resets *)
}

(* FNV-1a, 32-bit.  The product of a 32-bit hash and the 25-bit prime
   stays under 2^57, so it is exact in OCaml's 63-bit native ints; the
   multiply is hoisted into a local and masked back to 32 bits in a
   separate step to keep the spec shape visible (hash ^= byte;
   hash *= prime; hash &= 2^32-1).  Pinned against the published test
   vectors in the unit tests. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      let mixed = (!h lxor Char.code c) * 0x01000193 in
      h := mixed land 0xFFFFFFFF)
    s;
  !h

let policy_tag = function Ours -> 0 | Theirs -> 1 | Three_way -> 2

let policy_of_tag = function
  | 0 -> Ours
  | 1 -> Theirs
  | 2 -> Three_way
  | n -> raise (Binio.Corrupt (Printf.sprintf "Wal: bad policy %d" n))

let encode_entry schema e =
  let buf = Buffer.create 64 in
  (match e with
  | W_insert (b, tuple) ->
      Binio.write_u8 buf 0;
      Binio.write_varint buf b;
      Tuple.encode_into schema buf tuple
  | W_update (b, tuple) ->
      Binio.write_u8 buf 1;
      Binio.write_varint buf b;
      Tuple.encode_into schema buf tuple
  | W_delete (b, key) ->
      Binio.write_u8 buf 2;
      Binio.write_varint buf b;
      Value.encode buf key
  | W_commit (b, message) ->
      Binio.write_u8 buf 3;
      Binio.write_varint buf b;
      Binio.write_string buf message
  | W_branch (name, from) ->
      Binio.write_u8 buf 4;
      Binio.write_string buf name;
      Binio.write_varint buf from
  | W_merge (into, from, policy, message) ->
      Binio.write_u8 buf 5;
      Binio.write_varint buf into;
      Binio.write_varint buf from;
      Binio.write_u8 buf (policy_tag policy);
      Binio.write_string buf message
  | W_retire b ->
      Binio.write_u8 buf 6;
      Binio.write_varint buf b);
  Buffer.contents buf

let decode_entry schema s =
  let pos = ref 0 in
  let e =
    match Binio.read_u8 s pos with
    | 0 ->
        let b = Binio.read_varint s pos in
        W_insert (b, Tuple.decode schema s pos)
    | 1 ->
        let b = Binio.read_varint s pos in
        W_update (b, Tuple.decode schema s pos)
    | 2 ->
        let b = Binio.read_varint s pos in
        W_delete (b, Value.decode s pos)
    | 3 ->
        let b = Binio.read_varint s pos in
        W_commit (b, Binio.read_string s pos)
    | 4 ->
        let name = Binio.read_string s pos in
        W_branch (name, Binio.read_varint s pos)
    | 5 ->
        let into = Binio.read_varint s pos in
        let from = Binio.read_varint s pos in
        let policy = policy_of_tag (Binio.read_u8 s pos) in
        W_merge (into, from, policy, Binio.read_string s pos)
    | 6 -> W_retire (Binio.read_varint s pos)
    | n -> raise (Binio.Corrupt (Printf.sprintf "Wal: bad entry tag %d" n))
  in
  if !pos <> String.length s then
    raise (Binio.Corrupt "Wal: trailing bytes in entry");
  e

(* Walk the raw frames of a log image without decoding entries (the
   LSN is schema-independent).  Returns the intact (lsn, entry bytes)
   frames in file order and the byte length of the intact prefix; a
   truncated or corrupt tail ends the walk silently (that is the crash
   case being recovered from). *)
let scan_frames data =
  let n = String.length data in
  let pos = ref 0 in
  let acc = ref [] in
  (try
     while !pos + 8 <= n do
       let p = ref !pos in
       let len = Binio.read_u32 data p in
       let sum = Binio.read_u32 data p in
       if !p + len > n then raise Exit;
       let payload = String.sub data !p len in
       if fnv1a payload <> sum then raise Exit;
       let q = ref 0 in
       let lsn = Binio.read_varint payload q in
       acc := (lsn, String.sub payload !q (len - !q)) :: !acc;
       pos := !p + len
     done
   with Exit | Binio.Corrupt _ -> ());
  (List.rev !acc, !pos)

let open_log ?(start_lsn = 1) ~path () =
  (* resume numbering past both the caller's floor (the checkpoint
     marker) and anything already in the file *)
  let next_lsn =
    if Sys.file_exists path then
      let frames, _ = scan_frames (Binio.read_file path) in
      List.fold_left (fun m (lsn, _) -> max m (lsn + 1)) start_lsn frames
    else start_lsn
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  { path; oc; entries = 0; next_lsn }

let append t schema entry =
  let lsn = t.next_lsn in
  let payload =
    let buf = Buffer.create 64 in
    Binio.write_varint buf lsn;
    Buffer.add_string buf (encode_entry schema entry);
    Buffer.contents buf
  in
  let buf = Buffer.create (String.length payload + 8) in
  Binio.write_u32 buf (String.length payload);
  Binio.write_u32 buf (fnv1a payload);
  Buffer.add_string buf payload;
  Failpoint.guard_write "wal.append" (Buffer.contents buf)
    (output_string t.oc);
  Retry.with_retries (fun () ->
      Failpoint.hit "wal.sync";
      flush t.oc);
  t.next_lsn <- lsn + 1;
  t.entries <- t.entries + 1;
  Obs.incr c_records;
  Obs.charge Obs.Prof.Wal_bytes (String.length payload + 8);
  Obs.incr c_fsyncs;
  lsn

let read_frames ~path schema =
  if not (Sys.file_exists path) then []
  else begin
    let frames, _ = scan_frames (Binio.read_file path) in
    let acc = ref [] in
    (try
       List.iter
         (fun (lsn, s) -> acc := (lsn, decode_entry schema s) :: !acc)
         frames
     with Binio.Corrupt _ -> ());
    List.rev !acc
  end

let read_entries ~path schema = List.map snd (read_frames ~path schema)

let intact_bytes ~path =
  if not (Sys.file_exists path) then 0
  else snd (scan_frames (Binio.read_file path))

(* Checkpoint: everything up to now is reflected in the engine's
   durable state, so the log restarts empty.  The LSN counter is NOT
   rewound — markers persisted by earlier checkpoints stay comparable
   with every future entry. *)
let reset t =
  Failpoint.hit "wal.checkpoint";
  Obs.incr c_resets;
  close_out_noerr t.oc;
  let oc = open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 t.path in
  t.oc <- oc;
  t.entries <- 0

let pending t = t.entries
let next_lsn t = t.next_lsn

let close t = close_out_noerr t.oc
