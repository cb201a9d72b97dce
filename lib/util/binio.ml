exception Corrupt of string

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let check_remaining s pos n =
  if !pos + n > String.length s then
    fail "truncated input: need %d bytes at %d (len %d)" n !pos
      (String.length s)

let write_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let read_u8 s pos =
  check_remaining s pos 1;
  let v = Char.code s.[!pos] in
  incr pos;
  v

let write_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let read_u32 s pos =
  check_remaining s pos 4;
  let v = Int32.to_int (String.get_int32_le s !pos) in
  pos := !pos + 4;
  (* keep unsigned semantics for values up to 2^32-1 *)
  v land 0xFFFFFFFF

let write_i64 buf v = Buffer.add_int64_le buf v

let read_i64 s pos =
  check_remaining s pos 8;
  let v = String.get_int64_le s !pos in
  pos := !pos + 8;
  v

let write_varint buf v =
  if v < 0 then invalid_arg "Binio.write_varint: negative";
  let rec loop v =
    if v < 0x80 then write_u8 buf v
    else begin
      write_u8 buf (0x80 lor (v land 0x7f));
      loop (v lsr 7)
    end
  in
  loop v

let read_varint s pos =
  let rec loop shift acc =
    if shift > 62 then fail "varint too long at %d" !pos;
    let b = read_u8 s pos in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let read_string s pos =
  let n = read_varint s pos in
  check_remaining s pos n;
  let r = String.sub s !pos n in
  pos := !pos + n;
  r

let write_list write_elt buf l =
  write_varint buf (List.length l);
  List.iter (write_elt buf) l

let read_list read_elt s pos =
  let n = read_varint s pos in
  (* every element takes at least one byte *)
  if n < 0 || n > String.length s - !pos then
    fail "list length %d out of range at %d" n !pos;
  List.init n (fun _ -> read_elt s pos)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp path

let append_file path contents =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)
