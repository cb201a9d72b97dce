open Decibel_util
module Obs = Decibel_obs.Obs

(* commit_history.* registry counters: how much compressed delta data
   commits write and how much checkout replays read back (Table 2's
   "pack file size" column, but live) *)
let c_commits = Obs.counter "commit_history.commits"
let c_checkouts = Obs.counter "commit_history.checkouts"
let c_delta_bytes = Obs.counter "commit_history.delta_bytes"
let c_rle_runs = Obs.counter "commit_history.rle_runs"
let c_deltas_replayed = Obs.counter "commit_history.deltas_replayed"

(* the RLE wire format is [varint bit-length][varint run-count][runs] *)
let rle_run_count compressed =
  if compressed = "" then 0
  else begin
    let pos = ref 0 in
    let _bits = Binio.read_varint compressed pos in
    Binio.read_varint compressed pos
  end

let layer_stride = 16

type entry = { compressed : string }

type t = {
  path : string;
  mutable units : entry array; (* delta i: commit i-1 -> i (or empty -> 0) *)
  mutable nunits : int;
  mutable composites : entry array; (* delta j: commit (j*S - 1) -> j*S+S-1 *)
  mutable ncomposites : int;
  mutable last : Bitvec.t; (* bitmap at latest commit *)
  mutable anchor : Bitvec.t; (* bitmap at last composite boundary *)
  mutable disk : int; (* file bytes plus pending bytes *)
  mutable on_disk : bool; (* the file exists and holds the flushed prefix *)
  mutable pending : Buffer.t option;
      (* records since the last flush; released by it *)
}

let push_entry arr n e =
  let arr = if n = Array.length arr then begin
      let a = Array.make (max 8 (2 * n)) { compressed = "" } in
      Array.blit arr 0 a 0 n;
      a
    end
    else arr
  in
  arr.(n) <- e;
  arr

(* File framing: [u8 kind][varint rle length][rle bytes]; kind 0 = unit
   delta, 1 = composite delta. *)
let write_record t kind compressed =
  let buf =
    match t.pending with
    | Some b -> b
    | None ->
        let b = Buffer.create (String.length compressed + 8) in
        t.pending <- Some b;
        b
  in
  let before = Buffer.length buf in
  Binio.write_u8 buf kind;
  Binio.write_string buf compressed;
  t.disk <- t.disk + Buffer.length buf - before

let make ~on_disk path =
  {
    path;
    units = Array.make 8 { compressed = "" };
    nunits = 0;
    composites = Array.make 2 { compressed = "" };
    ncomposites = 0;
    last = Bitvec.create ();
    anchor = Bitvec.create ();
    disk = 0;
    on_disk;
    pending = None;
  }

let create ~path = make ~on_disk:false path

let flush t =
  if t.pending <> None || not t.on_disk then begin
    let flags =
      if t.on_disk then [ Open_wronly; Open_append; Open_binary ]
      else [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
    in
    let oc = open_out_gen flags 0o644 t.path in
    (try Option.iter (Buffer.output_buffer oc) t.pending
     with e ->
       close_out_noerr oc;
       raise e);
    close_out oc;
    t.on_disk <- true;
    t.pending <- None
  end

let commit t bitmap =
  let idx = t.nunits in
  let delta = Bitvec.xor t.last bitmap in
  let compressed = Rle.encode delta in
  t.units <- push_entry t.units t.nunits { compressed };
  t.nunits <- t.nunits + 1;
  write_record t 0 compressed;
  t.last <- Bitvec.copy bitmap;
  Obs.incr c_commits;
  Obs.add c_delta_bytes (String.length compressed);
  Obs.add c_rle_runs (rle_run_count compressed);
  if (idx + 1) mod layer_stride = 0 then begin
    let comp = Bitvec.xor t.anchor bitmap in
    let comp_c = Rle.encode comp in
    t.composites <- push_entry t.composites t.ncomposites { compressed = comp_c };
    t.ncomposites <- t.ncomposites + 1;
    write_record t 1 comp_c;
    t.anchor <- Bitvec.copy bitmap;
    Obs.add c_delta_bytes (String.length comp_c);
    Obs.add c_rle_runs (rle_run_count comp_c)
  end;
  idx

let is_latest t bitmap = t.nunits > 0 && Bitvec.equal t.last bitmap

let decode_entry e =
  let pos = ref 0 in
  Rle.decode e.compressed pos

(* Plan for reaching commit [idx]: apply composites 0..c-1 (reaching
   commit c*S - 1), then unit deltas c*S .. idx. *)
let plan _t idx =
  let c = (idx + 1) / layer_stride in
  (c, (c * layer_stride, idx))

let checkout t idx =
  if idx < 0 || idx >= t.nunits then
    invalid_arg (Printf.sprintf "Commit_history.checkout: index %d/%d" idx t.nunits);
  let ncomp, (ufrom, uto) = plan t idx in
  Obs.incr c_checkouts;
  Obs.add c_deltas_replayed (ncomp + (uto - ufrom + 1));
  let acc = ref (Bitvec.create ()) in
  for j = 0 to ncomp - 1 do
    acc := Bitvec.xor !acc (decode_entry t.composites.(j))
  done;
  for i = ufrom to uto do
    acc := Bitvec.xor !acc (decode_entry t.units.(i))
  done;
  !acc

let replay_length t idx =
  let ncomp, (ufrom, uto) = plan t idx in
  ncomp + (uto - ufrom + 1)

let count t = t.nunits
let disk_bytes t = t.disk
let path t = t.path

let open_existing ~path =
  let data = Binio.read_file path in
  let t = make ~on_disk:true path in
  t.disk <- String.length data;
  let pos = ref 0 in
  while !pos < String.length data do
    let kind = Binio.read_u8 data pos in
    let compressed = Binio.read_string data pos in
    match kind with
    | 0 ->
        t.units <- push_entry t.units t.nunits { compressed };
        t.nunits <- t.nunits + 1
    | 1 ->
        t.composites <- push_entry t.composites t.ncomposites { compressed };
        t.ncomposites <- t.ncomposites + 1
    | k -> raise (Binio.Corrupt (Printf.sprintf "Commit_history: kind %d" k))
  done;
  if t.nunits > 0 then begin
    t.last <- checkout t (t.nunits - 1);
    let boundary = t.nunits / layer_stride * layer_stride in
    t.anchor <-
      (if boundary = 0 then Bitvec.create () else checkout t (boundary - 1))
  end;
  t

let is_history_file name =
  String.length name > 5 && String.sub name 0 5 = "hist_"

let footprint ~dir loaded =
  let in_memory = Hashtbl.create 64 in
  let files, bytes =
    List.fold_left
      (fun (n, bytes) h ->
        Hashtbl.replace in_memory (Filename.basename h.path) ();
        (n + 1, bytes + h.disk))
      (0, 0) loaded
  in
  Array.fold_left
    (fun (n, bytes) name ->
      if is_history_file name && not (Hashtbl.mem in_memory name) then
        (n + 1, bytes + (Unix.stat (Filename.concat dir name)).Unix.st_size)
      else (n, bytes))
    (files, bytes) (Sys.readdir dir)
