(* Tests for the columnar segment format v2: codec round-trips
   (delta-varint ints, dictionary strings, RLE tombstone bitmaps)
   through append / save_meta / open_v2, vectorized-scan pushdown
   against row-wise evaluation, adversarial truncated and bit-flipped
   input, and the v1 upgrade story on committed fixtures — a v1
   repository refuses to open, [fsck --migrate] rewrites it with the
   query results of a fresh v2 build (also after a crash at any
   failpoint the upgrade crosses), hostile v1 bytes are refused
   untouched, and today's writer reproduces the v2 fixtures byte for
   byte, for all three schemes. *)

open Decibel
open Decibel_storage
module Binio = Decibel_util.Binio
module Bitvec = Decibel_util.Bitvec
module Varint = Decibel_util.Varint
module Rle = Decibel_util.Rle
module Prng = Decibel_util.Prng
module Fsutil = Decibel_util.Fsutil
module Vg = Decibel_graph.Version_graph
module Obs = Decibel_obs.Obs

let qtest t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* varint codec *)

let i64_gen =
  QCheck2.Gen.(
    oneof
      [
        map Int64.of_int int;
        oneofl [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 300L; -300L ];
      ])

let prop_zigzag_involution =
  QCheck2.Test.make ~name:"zigzag/unzigzag identity" ~count:500 i64_gen
    (fun x -> Varint.unzigzag (Varint.zigzag x) = x)

let prop_varint_roundtrip =
  QCheck2.Test.make ~name:"varint i64 roundtrip + size" ~count:500 i64_gen
    (fun x ->
      let buf = Buffer.create 10 in
      Varint.write_i64 buf x;
      let s = Buffer.contents buf in
      let pos = ref 0 in
      Varint.read_i64 s pos = x
      && !pos = String.length s
      && Varint.size_i64 x = String.length s)

let test_varint_rejects_truncated () =
  let buf = Buffer.create 10 in
  Varint.write_u64 buf Int64.max_int;
  let s = Buffer.contents buf in
  for cut = 0 to String.length s - 1 do
    match Varint.read_u64 (String.sub s 0 cut) (ref 0) with
    | _ -> Alcotest.failf "prefix of %d bytes decoded" cut
    | exception Binio.Corrupt _ -> ()
  done

let test_varint_rejects_overlong () =
  (* eleven continuation bytes can never be a valid 64-bit varint *)
  let s = String.make 11 '\x80' in
  match Varint.read_u64 s (ref 0) with
  | _ -> Alcotest.fail "over-long varint decoded"
  | exception Binio.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Rle under adversarial input *)

let bits_gen = QCheck2.Gen.(list_size (int_range 0 200) (int_bound 2000))

let prop_rle_rejects_truncation =
  QCheck2.Test.make ~name:"rle rejects every strict prefix" ~count:100
    bits_gen (fun l ->
      let enc = Rle.encode (Bitvec.of_list l) in
      let ok = ref true in
      for cut = 0 to String.length enc - 1 do
        (match Rle.decode (String.sub enc 0 cut) (ref 0) with
        | _ -> ok := false
        | exception Binio.Corrupt _ -> ())
      done;
      !ok)

let prop_rle_bitflip_never_crashes =
  QCheck2.Test.make ~name:"rle bit flips: Corrupt or bounded decode"
    ~count:200
    QCheck2.Gen.(pair bits_gen (int_bound 10_000))
    (fun (l, seed) ->
      let enc = Rle.encode (Bitvec.of_list l) in
      if String.length enc = 0 then true
      else begin
        let rng = Prng.create (Int64.of_int (seed + 1)) in
        let b = Bytes.of_string enc in
        let i = Prng.int rng (Bytes.length b) in
        let bit = Prng.int rng 8 in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        let flipped = Bytes.to_string b in
        match Rle.decode flipped (ref 0) with
        | v ->
            (* decoded fine: the declared length bounds the result, so
               a flipped run count can not turn into runaway growth *)
            Bitvec.length v <= 8 * String.length flipped * 128
        | exception Binio.Corrupt _ -> true
      end)

(* ------------------------------------------------------------------ *)
(* v2 segment round-trip *)

let seg_schema =
  Schema.make ~name:"s"
    ~columns:
      [
        { Schema.col_name = "id"; col_type = Schema.T_int };
        { Schema.col_name = "grp"; col_type = Schema.T_str };
        { Schema.col_name = "v"; col_type = Schema.T_int };
        { Schema.col_name = "note"; col_type = Schema.T_str };
      ]
    ~pk:"id"

let words = [| "alpha"; "beta"; "gamma"; "delta" |]

(* deterministic but varied rows: sequential pk, low-cardinality
   strings (dictionary-friendly), near-constant ints (delta-friendly),
   occasional wide outliers and tombstones *)
let rows_of_seeds seeds =
  List.mapi
    (fun i (a, b, c) ->
      if a mod 13 = 0 then Col_segment.Tombstone (Value.int i)
      else
        Col_segment.Live
          [|
            Value.int i;
            Value.Str words.(b mod Array.length words);
            (if c mod 29 = 0 then Value.Int Int64.min_int
             else Value.int (1000 + (c mod 50)));
            Value.Str (if b mod 5 = 0 then "" else Printf.sprintf "n%d" (c mod 7));
          |])
    seeds

let collect seg =
  let out = ref [] in
  Col_segment.iter seg (fun _ rv -> out := rv :: !out);
  List.rev !out

(* (row, key, tombstone?) newest row first, through the key-projected
   lineage decode *)
let walk_keys ?from ?upto seg =
  List.concat_map
    (fun blk ->
      let lo, hi = Col_segment.extent blk in
      List.init (hi - lo) (fun i ->
          let row = hi - 1 - i in
          (row, Col_segment.key blk row, Col_segment.is_tombstone blk row)))
    (Col_segment.blocks_rev ~keys_only:true ?from ?upto seg)

(* the same triples derived from row values, rows [from, upto) *)
let keys_of_rows ?(from = 0) ?upto rows =
  let upto = Option.value upto ~default:(List.length rows) in
  List.rev
    (List.concat
       (List.mapi
          (fun row rv ->
            if row < from || row >= upto then []
            else
              match rv with
              | Col_segment.Live t -> [ (row, t.(0), false) ]
              | Col_segment.Tombstone k -> [ (row, k, true) ])
          rows))

let verdict f = match f () with v -> Ok v | exception Binio.Corrupt m -> Error m

let with_seg_dir f =
  let dir = Fsutil.fresh_dir "decibel-colseg" in
  Fun.protect ~finally:(fun () -> Fsutil.rm_rf dir) (fun () -> f dir)

let seeds_gen =
  QCheck2.Gen.(
    list_size (int_range 0 400) (triple small_nat small_nat small_nat))

let prop_segment_roundtrip =
  QCheck2.Test.make ~name:"v2 segment roundtrip save_meta/open_v2"
    ~count:30 seeds_gen (fun seeds ->
      let rows = rows_of_seeds seeds in
      with_seg_dir (fun dir ->
          let pool = Buffer_pool.create () in
          let path = Filename.concat dir "seg" in
          let seg =
            Col_segment.create_v2 ~pool ~schema:seg_schema ~compress:true
              ~path
          in
          List.iteri
            (fun i rv ->
              if Col_segment.append seg rv <> i then
                QCheck2.Test.fail_report "append returned wrong row")
            rows;
          let before = collect seg in
          let buf = Buffer.create 256 in
          Col_segment.save_meta buf seg;
          let meta = Buffer.contents buf in
          Col_segment.close seg;
          let seg2 =
            Col_segment.open_v2 ~pool ~schema:seg_schema ~compress:true ~path
              meta (ref 0)
          in
          let after = collect seg2 in
          let verified = Col_segment.verify seg2 in
          Col_segment.close seg2;
          before = rows && after = rows && verified = []))

let prop_scan_pushdown_matches_rowwise =
  (* scan with a selection bitmap + pushed predicates must equal the
     row-wise reference: live rows, selected, satisfying every pred *)
  QCheck2.Test.make ~name:"pushdown scan = row-wise filter" ~count:30
    QCheck2.Gen.(pair seeds_gen (pair (int_bound 3) (int_bound 49)))
    (fun (seeds, (widx, vbound)) ->
      let rows = rows_of_seeds seeds in
      with_seg_dir (fun dir ->
          let pool = Buffer_pool.create () in
          let seg =
            Col_segment.create_v2 ~pool ~schema:seg_schema ~compress:false
              ~path:(Filename.concat dir "seg")
          in
          List.iter (fun rv -> ignore (Col_segment.append seg rv)) rows;
          let preds =
            [
              Col_pred.of_index 1 Col_pred.Eq (Value.Str words.(widx));
              Col_pred.of_index 2 Col_pred.Le (Value.int (1000 + vbound));
            ]
          in
          let sel = Bitvec.create () in
          List.iteri (fun i (a, _, _) -> if a mod 2 = 0 then Bitvec.set sel i)
            (List.map (fun x -> x) seeds);
          let got = ref [] in
          Col_segment.scan ~sel ~preds seg (fun i t -> got := (i, t) :: !got);
          let want =
            List.filteri (fun i _ -> Bitvec.get sel i) rows
            |> List.concat_map (fun rv ->
                   match rv with
                   | Col_segment.Tombstone _ -> []
                   | Col_segment.Live t ->
                       if Col_pred.eval_tuple preds t then [ t ] else [])
          in
          let got = List.rev_map snd !got in
          Col_segment.close seg;
          got = want))

let test_column_report_compresses () =
  with_seg_dir (fun dir ->
      let pool = Buffer_pool.create () in
      let seg =
        Col_segment.create_v2 ~pool ~schema:seg_schema ~compress:false
          ~path:(Filename.concat dir "seg")
      in
      for i = 0 to 4999 do
        ignore
          (Col_segment.append seg
             (Col_segment.Live
                [|
                  Value.int i;
                  Value.Str words.(i mod 4);
                  Value.int 42;
                  Value.Str "note";
                |]))
      done;
      Col_segment.flush seg;
      let report = Col_segment.column_report seg in
      Alcotest.(check int) "one entry per column" 4 (Array.length report);
      let by_name n =
        Array.to_list report
        |> List.find (fun c -> c.Col_segment.cr_name = n)
      in
      let check_col n enc =
        let c = by_name n in
        Alcotest.(check string) (n ^ " encoding") enc c.Col_segment.cr_encoding;
        Alcotest.(check bool)
          (n ^ " compresses") true
          (c.Col_segment.cr_enc_bytes < c.Col_segment.cr_raw_bytes)
      in
      check_col "id" "delta";
      check_col "grp" "dict";
      check_col "v" "const";
      check_col "note" "dict";
      Col_segment.close seg)

(* ------------------------------------------------------------------ *)
(* adversarial segment corruption: flips and truncation must surface
   as [Binio.Corrupt], never as a crash or silently wrong data *)

let test_segment_bitflip_detected () =
  with_seg_dir (fun dir ->
      let pool = Buffer_pool.create () in
      let path = Filename.concat dir "seg" in
      let seg =
        Col_segment.create_v2 ~pool ~schema:seg_schema ~compress:true ~path
      in
      let rows =
        rows_of_seeds (List.init 600 (fun i -> (i * 7, i * 3, i * 11)))
      in
      List.iter (fun rv -> ignore (Col_segment.append seg rv)) rows;
      let buf = Buffer.create 256 in
      Col_segment.save_meta buf seg;
      let meta = Buffer.contents buf in
      Col_segment.close seg;
      let pristine = Binio.read_file path in
      let rng = Prng.create 0x5eedL in
      for _trial = 1 to 40 do
        let b = Bytes.of_string pristine in
        let i = Prng.int rng (Bytes.length b) in
        let bit = Prng.int rng 8 in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        Binio.write_file path (Bytes.to_string b);
        (* a fresh pool per trial: nothing cached from the last one *)
        let pool = Buffer_pool.create () in
        match
          let seg =
            Col_segment.open_v2 ~pool ~schema:seg_schema ~compress:true ~path
              meta (ref 0)
          in
          Fun.protect
            ~finally:(fun () -> Col_segment.close seg)
            (fun () ->
              ( verdict (fun () -> collect seg),
                verdict (fun () -> walk_keys seg) ))
        with
        | Ok got, keys ->
            (* the flip landed in heap slack: data must be untouched *)
            if got <> rows then
              Alcotest.failf "bit flip at byte %d silently changed data" i;
            if keys <> Ok (keys_of_rows rows) then
              Alcotest.failf "bit flip at byte %d: key decode disagrees" i
        | Error _, Ok _ ->
            Alcotest.failf
              "bit flip at byte %d: key decode accepted what the full decode \
               rejects"
              i
        | Error _, Error _ -> ()
        | exception Binio.Corrupt _ -> ()
      done;
      Binio.write_file path pristine)

let test_segment_truncation_detected () =
  with_seg_dir (fun dir ->
      let pool = Buffer_pool.create () in
      let path = Filename.concat dir "seg" in
      let seg =
        Col_segment.create_v2 ~pool ~schema:seg_schema ~compress:true ~path
      in
      let rows =
        rows_of_seeds (List.init 600 (fun i -> (i * 5, i, i * 13)))
      in
      List.iter (fun rv -> ignore (Col_segment.append seg rv)) rows;
      let buf = Buffer.create 256 in
      Col_segment.save_meta buf seg;
      let meta = Buffer.contents buf in
      Col_segment.close seg;
      let pristine = Binio.read_file path in
      let rng = Prng.create 0x7ac3L in
      for _trial = 1 to 20 do
        let cut = Prng.int rng (String.length pristine) in
        Binio.write_file path (String.sub pristine 0 cut);
        let pool = Buffer_pool.create () in
        match
          let seg =
            Col_segment.open_v2 ~pool ~schema:seg_schema ~compress:true ~path
              meta (ref 0)
          in
          Fun.protect
            ~finally:(fun () -> Col_segment.close seg)
            (fun () ->
              ( verdict (fun () -> collect seg),
                verdict (fun () -> walk_keys seg) ))
        with
        | Ok _, _ -> Alcotest.failf "truncation to %d bytes went undetected" cut
        | Error _, Ok _ ->
            Alcotest.failf "truncation to %d bytes: key decode accepted it" cut
        | Error _, Error _ -> ()
        | exception Binio.Corrupt _ -> ()
      done;
      Binio.write_file path pristine)

(* Hostile block bodies past the checksum: a segment file holding one
   record whose payload is a damaged copy of a sealed block, with a
   valid CRC, so the bytes reach the decoder itself.  Both decodes may
   only raise [Binio.Corrupt] (an out-of-bounds index would surface as
   [Invalid_argument]); a truncated body is rejected by both; where
   the full decode accepts, the key decode returns its keys.  Blocks
   are written uncompressed: LZ77 bodies are only ever reached through
   the checksum. *)
let test_key_decode_hostile_payload () =
  with_seg_dir (fun dir ->
      let path = Filename.concat dir "seg" in
      let rows =
        rows_of_seeds (List.init 700 (fun i -> (i * 7, i * 3, i * 11)))
      in
      let seg =
        Col_segment.create_v2 ~pool:(Buffer_pool.create ()) ~schema:seg_schema
          ~compress:false ~path
      in
      List.iter (fun rv -> ignore (Col_segment.append seg rv)) rows;
      Col_segment.close seg;
      let payload =
        let h =
          Heap_file.open_existing ~pool:(Buffer_pool.create ())
            ~size:(Unix.stat path).st_size path
        in
        let p = Heap_file.get h 0 in
        Heap_file.close h;
        p
      in
      let outcome body =
        Sys.remove path;
        let pool = Buffer_pool.create () in
        let h = Heap_file.create ~pool path in
        let off = Heap_file.append h body in
        Heap_file.flush h;
        let size = Heap_file.size h in
        Heap_file.close h;
        let meta = Buffer.create 64 in
        List.iter (Binio.write_varint meta) [ size; 1; off; List.length rows ];
        for _ = 1 to 6 * Schema.arity seg_schema do
          Binio.write_varint meta 0
        done;
        let seg =
          Col_segment.open_v2 ~pool ~schema:seg_schema ~compress:false ~path
            (Buffer.contents meta) (ref 0)
        in
        Fun.protect
          ~finally:(fun () -> Col_segment.close seg)
          (fun () ->
            ( verdict (fun () -> collect seg),
              verdict (fun () -> walk_keys seg) ))
      in
      (match outcome payload with
      | Ok got, Ok keys ->
          Alcotest.(check bool) "pristine body decodes" true
            (got = rows && keys = keys_of_rows rows)
      | _ -> Alcotest.fail "pristine body rejected");
      let agree label = function
        | Ok got, Ok keys ->
            if keys <> keys_of_rows got then
              Alcotest.failf "%s: key decode disagrees with the full decode"
                label
        | Ok _, Error m ->
            Alcotest.failf "%s: key decode rejected a valid body: %s" label m
        | Error _, _ -> ()
      in
      let rng = Prng.create 0xb10cL in
      for _trial = 1 to 300 do
        let b = Bytes.of_string payload in
        let i = Prng.int rng (Bytes.length b) in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)));
        agree (Printf.sprintf "flip at byte %d" i) (outcome (Bytes.to_string b))
      done;
      for _trial = 1 to 100 do
        let cut = 1 + Prng.int rng (String.length payload - 1) in
        match outcome (String.sub payload 0 cut) with
        | Error _, Error _ -> ()
        | _ -> Alcotest.failf "body truncated to %d bytes accepted" cut
      done)

(* the lineage decode sees what [iter] sees, in either mode and over
   any row range, newest row first *)
let prop_blocks_rev_matches_iter =
  QCheck2.Test.make ~name:"blocks_rev = iter, newest first" ~count:30
    QCheck2.Gen.(triple seeds_gen (int_bound 400) (int_bound 400))
    (fun (seeds, a, b) ->
      let rows = rows_of_seeds (seeds @ seeds @ seeds) in
      with_seg_dir (fun dir ->
          let pool = Buffer_pool.create () in
          let seg =
            Col_segment.create_v2 ~pool ~schema:seg_schema ~compress:true
              ~path:(Filename.concat dir "seg")
          in
          (* some sealed blocks, some open rows *)
          List.iteri
            (fun i rv ->
              ignore (Col_segment.append seg rv);
              if i = 500 then Col_segment.flush seg)
            rows;
          let from = min a b and upto = max a b + List.length seeds in
          let full =
            List.concat_map
              (fun blk ->
                let lo, hi = Col_segment.extent blk in
                List.init (hi - lo) (fun i ->
                    let row = hi - 1 - i in
                    if Col_segment.is_tombstone blk row then
                      Col_segment.Tombstone (Col_segment.key blk row)
                    else Col_segment.Live (Col_segment.tuple blk row)))
              (Col_segment.blocks_rev ~from ~upto seg)
          in
          let want =
            List.rev
              (List.filteri (fun i _ -> i >= from && i < upto) rows)
          in
          let ok =
            full = want
            && walk_keys ~from ~upto seg = keys_of_rows ~from ~upto rows
          in
          Col_segment.close seg;
          ok))

(* Decode-count guard on a depth-20 version-first chain: a lineage
   read fetches each block of its plan at most once, and a
   multi-branch scan at most twice (key pass, then the selected
   scan), however many branches share the blocks. *)
let test_lineage_decode_count () =
  let dir = Fsutil.fresh_dir "decibel-colseg-chain" in
  Fun.protect ~finally:(fun () -> Fsutil.rm_rf dir) @@ fun () ->
  let db =
    Database.open_ ~scheme:Database.Version_first ~dir
      ~schema:(Schema.ints ~name:"r" ~width:4) ()
  in
  Fun.protect ~finally:(fun () -> Database.close db) @@ fun () ->
  let row k a b c = [| Value.int k; Value.int a; Value.int b; Value.int c |] in
  let sealed0 = Obs.value_of "colseg.blocks_sealed" in
  for k = 0 to 2499 do
    Database.insert db Vg.master (row k k 0 0)
  done;
  let v = ref (Database.commit db Vg.master ~message:"base") in
  let tip = ref Vg.master in
  for d = 1 to 20 do
    let b = Database.create_branch db ~name:(Printf.sprintf "b%d" d) ~from:!v in
    for k = 0 to 149 do
      let key = (d * 97 + k * 13) mod 2500 in
      Database.update db b (row key key d 1)
    done;
    Database.insert db b (row (10_000 + d) d d 2);
    v := Database.commit db b ~message:(Printf.sprintf "d%d" d);
    tip := b
  done;
  (* every segment of the chain lies in the tip's lineage *)
  let blocks = Obs.value_of "colseg.blocks_sealed" - sealed0 in
  let decoded f =
    let before = Obs.value_of "colseg.blocks_decoded" in
    f ();
    Obs.value_of "colseg.blocks_decoded" - before
  in
  let n = decoded (fun () -> Database.scan db !tip (fun _ -> ())) in
  if n > blocks then
    Alcotest.failf "scan decoded %d blocks, its plan has %d" n blocks;
  List.iter
    (fun heads ->
      let n =
        decoded (fun () -> Database.multi_scan db heads (fun _ -> ()))
      in
      if n > 2 * blocks then
        Alcotest.failf "multi_scan over %d heads decoded %d blocks (union %d)"
          (List.length heads) n blocks)
    [ [ !tip ]; Database.heads db ]

(* ------------------------------------------------------------------ *)
(* v1 upgrade: committed fixtures, fsck --migrate, identical results

   [fixtures/v1/<s>] and [fixtures/v2/<s>] were written by
   [build_branchy] (then closed, minus workload.jsonl) by the last
   build that could still create v1 repositories: the v1 ones can no
   longer be produced, and the v2 ones pin today's v2 bytes.  The
   [<s>-z] variants were written with [~compress:true] (LZ77 v1
   records, LZ77-wrapped v2 blocks). *)

module Failpoint = Decibel_fault.Failpoint

let db_schema = Schema.ints ~name:"r" ~width:4

let row k a b c = [| Value.int k; Value.int a; Value.int b; Value.int c |]

let build_branchy db =
  let m = Vg.master in
  for k = 0 to 399 do
    Database.insert db m (row k k (k * 2) 0)
  done;
  let v1 = Database.commit db m ~message:"base" in
  let child = Database.create_branch db ~name:"child" ~from:v1 in
  for k = 0 to 399 do
    if k mod 3 = 0 then Database.update db child (row k k (k * 2) 1);
    if k mod 7 = 0 then Database.delete db child (Value.int k)
  done;
  for k = 400 to 449 do
    Database.insert db child (row k k 0 2)
  done;
  ignore (Database.commit db child ~message:"child")

(* FNV-1a over every query surface the upgrade must preserve: each
   head's scan (in emission order), the head-pair diff, and a pushed
   predicate scan *)
let fingerprint db =
  let h = ref 0xcbf29ce484222325L in
  let mix s =
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001b3L)
      s
  in
  let mix_tuple t = mix (Tuple.to_string t) in
  let heads = Database.heads db in
  List.iter
    (fun b ->
      mix (Database.branch_name db b);
      Database.scan db b mix_tuple)
    heads;
  (match heads with
  | b1 :: b2 :: _ ->
      Database.diff db b1 b2 ~pos:mix_tuple ~neg:mix_tuple
  | _ -> ());
  let preds = [ Col_pred.make db_schema ~column:"c3" Col_pred.Eq (Value.int 1) ] in
  List.iter
    (fun b -> Database.scan_filtered db b ~preds mix_tuple)
    heads;
  !h

let fixture_tag = function
  | Database.Tuple_first -> "tf"
  | Database.Tuple_first_tuple_oriented -> "tf-to"
  | Database.Version_first -> "vf"
  | _ -> "hy"

let fixture_dir ?(compress = false) ?(wal = false) version scheme =
  Filename.concat "fixtures"
    (Printf.sprintf "v%d/%s%s%s" version (fixture_tag scheme)
       (if compress then "-z" else "")
       (if wal then "-wal" else ""))

(* file name -> bytes, sorted by name *)
let dir_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, Binio.read_file (Filename.concat dir f)))

let copy_fixture ?compress ?wal version scheme =
  let dir = Fsutil.fresh_dir "decibel-colseg-fixture" in
  List.iter
    (fun (f, bytes) -> Binio.write_file (Filename.concat dir f) bytes)
    (dir_files (fixture_dir ?compress ?wal version scheme));
  dir

let with_dir dir f =
  Fun.protect ~finally:(fun () -> Fsutil.rm_rf dir) (fun () -> f dir)

(* the fingerprint of [build_branchy], measured when the fixtures were
   written *)
let pinned_fingerprint = function
  | Database.Version_first -> 0x9e9305fcd784edb3L
  | _ -> 0x6073cf96cbe73135L

(* fingerprint of a fresh v2 build of the same history, checked
   against the pinned one *)
let fresh_fingerprint ?(compress = false) scheme =
  with_dir (Fsutil.fresh_dir "decibel-colseg-fresh") (fun dir ->
      let db = Database.open_ ~compress ~scheme ~dir ~schema:db_schema () in
      build_branchy db;
      let fp = fingerprint db in
      Database.close db;
      Alcotest.(check int64) "fresh v2 fingerprint" (pinned_fingerprint scheme)
        fp;
      fp)

let reopen_fingerprint dir =
  let db = Database.reopen ~dir () in
  Fun.protect ~finally:(fun () -> Database.close db) (fun () -> fingerprint db)

let expect_v1_refused dir =
  match Database.reopen ~dir () with
  | db ->
      Database.close db;
      Alcotest.fail "v1 repository opened"
  | exception Types.Engine_error msg ->
      let needle = "fsck --migrate" in
      let n = String.length needle in
      let rec has i =
        i + n <= String.length msg
        && (String.sub msg i n = needle || has (i + 1))
      in
      if not (has 0) then
        Alcotest.failf "v1 refusal does not name fsck --migrate: %s" msg

let test_v1_migrate_roundtrip scheme () =
  List.iter
    (fun compress ->
      let expected = fresh_fingerprint ~compress scheme in
      with_dir (copy_fixture ~compress 1 scheme) (fun dir ->
          let pristine = dir_files dir in
          (* a v1 repository no longer opens, and refusing it changes
             nothing on disk *)
          expect_v1_refused dir;
          Alcotest.(check bool) "refused open left v1 files alone" true
            (dir_files dir = pristine);
          (* without --migrate, fsck reports the upgrade as needed *)
          Alcotest.(check bool) "plain fsck flags v1" false
            (Fsck.clean (Fsck.run ~dir ()));
          (* fsck --migrate upgrades it: the only finding is the repaired
             upgrade *)
          let report = Fsck.run ~migrate:true ~dir () in
          (match report.Fsck.findings with
          | [ f ] when f.Fsck.repaired -> ()
          | fs ->
              Alcotest.failf "unexpected migrate findings: %s"
                (String.concat "; "
                   (List.map
                      (fun f -> f.Fsck.artifact ^ ": " ^ f.Fsck.problem)
                      fs)));
          Alcotest.(check bool) "no staged files left" true
            (List.for_all
               (fun (f, _) -> not (Filename.check_suffix f ".mig"))
               (dir_files dir));
          (* upgraded repository: writable, same results as a fresh v2
             build of the same history *)
          Alcotest.(check int64) "migrated = fresh v2" expected
            (reopen_fingerprint dir);
          let db = Database.reopen ~dir () in
          Database.insert db Vg.master (row 9000 1 2 3);
          Database.delete db Vg.master (Value.int 9000);
          Database.close db;
          (* a second --migrate run is a clean no-op *)
          let again = Fsck.run ~migrate:true ~dir () in
          Alcotest.(check bool) "second migrate clean" true (Fsck.clean again)))
    [ false; true ]

let test_v2_migrate_noop () =
  let dir = Fsutil.fresh_dir "decibel-colseg-noop" in
  Fun.protect
    ~finally:(fun () -> Fsutil.rm_rf dir)
    (fun () ->
      let db =
        Database.open_ ~scheme:Database.Hybrid ~dir ~schema:db_schema ()
      in
      build_branchy db;
      Database.close db;
      let report = Fsck.run ~migrate:true ~dir () in
      Alcotest.(check bool) "v2 repo untouched and clean" true
        (Fsck.clean report))

(* Today's v2 writer reproduces the committed v2 fixture byte for byte,
   and today's reader reads the fixture to the same results.  The
   [~wal] pin is a durable build left with one uncommitted insert, so
   its manifest carries a non-zero WAL marker and a dirty branch. *)
let test_v2_bytes_unchanged ?(wal = false) ~compress scheme () =
  List.iter
    (fun compress ->
      let expected =
        with_dir (Fsutil.fresh_dir "decibel-colseg-v2") (fun dir ->
            let db =
              Database.open_ ~compress ~durable:wal ~scheme ~dir
                ~schema:db_schema ()
            in
            build_branchy db;
            if wal then Database.insert db Vg.master (row 9000 1 2 3);
            let fp = fingerprint db in
            if not wal then
              Alcotest.(check int64) "fresh v2 fingerprint"
                (pinned_fingerprint scheme) fp;
            Database.close db;
            let wl = Filename.concat dir "workload.jsonl" in
            if Sys.file_exists wl then Sys.remove wl;
            let fixture = dir_files (fixture_dir ~compress ~wal 2 scheme) in
            Alcotest.(check (list string)) "same files" (List.map fst fixture)
              (List.map fst (dir_files dir));
            List.iter2
              (fun (f, want) (_, got) ->
                if want <> got then
                  Alcotest.failf "%s differs from the v2 fixture" f)
              fixture (dir_files dir);
            fp)
      in
      with_dir (copy_fixture ~compress ~wal 2 scheme) (fun dir ->
          Alcotest.(check int64) "v2 fixture reads" expected
            (reopen_fingerprint dir)))
    compress

(* Crash the upgrade at every failpoint it crosses (first, middle and
   last crossing; torn as well as raised at the write sites), then
   rerun fsck --migrate: the result must match a fresh v2 build.  A
   crash before the commit point (the staged manifest) must leave
   every v1 file byte-identical. *)
let test_upgrade_crash_matrix scheme () =
  let expected = fresh_fingerprint scheme in
  let manifest =
    match scheme with
    | Database.Tuple_first -> "manifest.tf"
    | Database.Version_first -> "manifest.vf"
    | _ -> "manifest.hy"
  in
  let sites =
    with_dir (copy_fixture 1 scheme) (fun dir ->
        Failpoint.disarm_all ();
        Failpoint.reset_census ();
        Alcotest.(check bool) "dry run upgrades" true
          (Database.upgrade_v1 ~dir ());
        Failpoint.sites ())
  in
  Alcotest.(check bool) "upgrade crosses migrate.rename" true
    (List.mem_assoc "migrate.rename" sites);
  let tearable = [ "heap.flush"; "manifest.write_tmp" ] in
  let cases = ref 0 in
  List.iter
    (fun (site, count) ->
      let actions =
        if List.mem site tearable then [ Failpoint.Raise; Failpoint.Torn 0.5 ]
        else [ Failpoint.Raise ]
      in
      List.iter
        (fun occurrence ->
          List.iter
            (fun action ->
              incr cases;
              with_dir (copy_fixture 1 scheme) (fun dir ->
                  let pristine = dir_files dir in
                  Failpoint.disarm_all ();
                  Failpoint.arm ~action site (Failpoint.After_hits occurrence);
                  (match Database.upgrade_v1 ~dir () with
                  | _ -> ()
                  | exception Failpoint.Fault_injected _ -> ());
                  Failpoint.disarm_all ();
                  let committed =
                    Sys.file_exists (Filename.concat dir (manifest ^ ".mig"))
                    || List.assoc manifest (dir_files dir)
                       <> List.assoc manifest pristine
                  in
                  if not committed then
                    List.iter
                      (fun (f, bytes) ->
                        if Binio.read_file (Filename.concat dir f) <> bytes then
                          Alcotest.failf
                            "%s@%d: v1 file %s modified before commit"
                            site occurrence f)
                      pristine;
                  ignore (Fsck.run ~migrate:true ~dir ());
                  let fp = reopen_fingerprint dir in
                  if fp <> expected then
                    Alcotest.failf "%s@%d: recovered fingerprint %Lx, want %Lx"
                      site occurrence fp expected;
                  let after = Fsck.run ~dir () in
                  if not (Fsck.clean after) then
                    Alcotest.failf "%s@%d: fsck after recovery: %s" site
                      occurrence (Fsck.to_text after)))
            actions)
        (List.sort_uniq compare [ 1; (count + 1) / 2; count ]))
    sites;
  Alcotest.(check bool) "cases ran" true (!cases > 0)

(* Hostile v1 input: the upgrade raises [Binio.Corrupt] (never
   [Invalid_argument]), fsck --migrate reports "cannot migrate" and
   exits normally, and every file is left exactly as it was. *)
let check_refuses_hostile ~label dir =
  let before = dir_files dir in
  (match Database.upgrade_v1 ~dir () with
  | _ -> Alcotest.failf "%s: corrupt v1 input was migrated" label
  | exception Binio.Corrupt _ -> ());
  Alcotest.(check bool) (label ^ ": untouched after upgrade") true
    (dir_files dir = before);
  let report = Fsck.run ~migrate:true ~dir () in
  Alcotest.(check bool) (label ^ ": cannot-migrate finding") true
    (List.exists
       (fun f ->
         String.length f.Fsck.problem >= 15
         && String.sub f.Fsck.problem 0 15 = "cannot migrate:")
       report.Fsck.findings);
  Alcotest.(check bool) (label ^ ": untouched after fsck") true
    (dir_files dir = before)

(* Replace the payload of a v1 segment's first record, keeping the
   checksum valid, so only strict decoding can reject it. *)
let rewrite_first_record path f =
  let s = Binio.read_file path in
  let pos = ref 0 in
  let len = Binio.read_varint s pos in
  let hdr = !pos + 4 in
  let payload = f (String.sub s hdr len) in
  let buf = Buffer.create (String.length s) in
  Binio.write_varint buf (String.length payload);
  Binio.write_u32 buf (Decibel_util.Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.add_string buf
    (String.sub s (hdr + len) (String.length s - hdr - len));
  Binio.write_file path (Buffer.contents buf)

let test_hostile_v1 () =
  (* truncated heap: the manifest's size runs past end of file *)
  with_dir (copy_fixture 1 Database.Tuple_first) (fun dir ->
      let heap = Filename.concat dir "heap.dat" in
      let s = Binio.read_file heap in
      Binio.write_file heap (String.sub s 0 (String.length s / 2));
      check_refuses_hostile ~label:"truncated heap" dir);
  (* one flipped byte inside a version-first segment *)
  with_dir (copy_fixture 1 Database.Version_first) (fun dir ->
      let seg = Filename.concat dir "seg_1.dat" in
      let s = Bytes.of_string (Binio.read_file seg) in
      let i = Bytes.length s / 2 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x10));
      Binio.write_file seg (Bytes.to_string s);
      check_refuses_hostile ~label:"flipped byte" dir);
  (* a checksum-valid record with an unknown tag *)
  with_dir (copy_fixture 1 Database.Hybrid) (fun dir ->
      rewrite_first_record (Filename.concat dir "seg_0.dat") (fun p ->
          "\007" ^ String.sub p 1 (String.length p - 1));
      check_refuses_hostile ~label:"bad record tag" dir);
  (* a checksum-valid LZ77 record whose body ends early *)
  with_dir (copy_fixture 1 Database.Hybrid) (fun dir ->
      rewrite_first_record (Filename.concat dir "seg_0.dat") (fun _ ->
          let b = Buffer.create 16 in
          Binio.write_u8 b 1;
          Binio.write_varint b (1 lsl 40);
          Binio.write_u8 b 0;
          Binio.write_varint b 1;
          Buffer.add_char b 'x';
          Buffer.contents b);
      check_refuses_hostile ~label:"malformed lz77 body" dir);
  (* an offset-table count whose varint decodes negative *)
  with_dir (copy_fixture 1 Database.Tuple_first) (fun dir ->
      let path = Filename.concat dir "manifest.tf" in
      let m = Atomic_file.read path in
      let pos = ref 0 in
      ignore (Binio.read_string m pos) (* layout *);
      ignore (Binio.read_u8 m pos) (* compress *);
      ignore (Schema.deserialize m pos);
      ignore (Binio.read_string m pos) (* graph *);
      ignore (Binio.read_varint m pos) (* heap size *);
      let count_at = !pos in
      ignore (Binio.read_varint m pos);
      Atomic_file.write path
        (String.sub m 0 count_at ^ "\x80\x80\x80\x80\x80\x80\x80\x80\x40"
        ^ String.sub m !pos (String.length m - !pos));
      check_refuses_hostile ~label:"negative offset count" dir);
  (* a version-first commit locator one byte past a record start *)
  with_dir (copy_fixture 1 Database.Version_first) (fun dir ->
      let path = Filename.concat dir "manifest.vf" in
      let m = Atomic_file.read path in
      let pos = ref 0 in
      ignore (Binio.read_u8 m pos) (* compress *);
      ignore (Binio.read_string m pos) (* graph *);
      ignore (Schema.deserialize m pos);
      let read_pair s p =
        ignore (Binio.read_varint s p);
        ignore (Binio.read_varint s p)
      in
      for _ = 1 to Binio.read_varint m pos do
        ignore (Binio.read_varint m pos) (* segment size *);
        ignore (Binio.read_list read_pair m pos) (* parents *)
      done;
      ignore (Binio.read_list Binio.read_varint m pos) (* heads *);
      ignore (Binio.read_varint m pos) (* commit count *);
      read_pair m pos (* version, segment *);
      let upto_at = !pos in
      let upto = Binio.read_varint m pos in
      let b = Buffer.create 8 in
      Binio.write_varint b (upto + 1);
      Atomic_file.write path
        (String.sub m 0 upto_at ^ Buffer.contents b
        ^ String.sub m !pos (String.length m - !pos));
      check_refuses_hostile ~label:"locator off a record boundary" dir)

(* Hostile v2 manifests: a seeded run of 1-3 random byte changes past
   the format header, re-framed so the checksum holds and only the
   decoders can object.  Fsck must always return its report, reopen
   may refuse only with [Binio.Corrupt] or [Engine_error], and a
   refused reopen leaves no segment file open. *)
let manifest_fuzz_seed = 0x6d616e6966L

let open_fds () =
  if Sys.file_exists "/proc/self/fd" then
    Array.length (Sys.readdir "/proc/self/fd")
  else 0

let test_hostile_v2_manifest scheme () =
  let rng = Prng.create manifest_fuzz_seed in
  let fds = open_fds () in
  let name, framed =
    List.find
      (fun (f, _) -> String.starts_with ~prefix:"manifest." f)
      (dir_files (fixture_dir 2 scheme))
  in
  let payload = Atomic_file.check framed in
  let failures = ref [] in
  for i = 1 to 200 do
    let m = Bytes.of_string payload in
    let edits =
      List.init
        (1 + Prng.int rng 3)
        (fun _ ->
          let off = 2 + Prng.int rng (Bytes.length m - 2) in
          let b = Char.chr (Prng.int rng 256) in
          Bytes.set m off b;
          (off, b))
    in
    let fail what e =
      failures :=
        Printf.sprintf "mutation %d [%s]: %s raised %s" i
          (String.concat "; "
             (List.map
                (fun (off, b) -> Printf.sprintf "@%d=0x%02x" off (Char.code b))
                edits))
          what (Printexc.to_string e)
        :: !failures
    in
    with_dir (copy_fixture 2 scheme) (fun dir ->
        Binio.write_file (Filename.concat dir name)
          (Atomic_file.frame (Bytes.to_string m));
        (match Fsck.run ~dir () with
        | _ -> ()
        | exception e -> fail "fsck" e);
        match Database.reopen ~dir () with
        | db -> Database.crash db
        | exception (Binio.Corrupt _ | Types.Engine_error _) -> ()
        | exception e -> fail "reopen" e)
  done;
  if !failures <> [] then
    Alcotest.failf "%s, seed %Ld: %d failure(s):\n%s" name manifest_fuzz_seed
      (List.length !failures)
      (String.concat "\n" (List.rev !failures));
  Alcotest.(check int) "no file descriptor leaked" fds (open_fds ())

(* A checksum-valid manifest refused in its last section (the WAL
   marker, or trailing bytes past it) must leave every segment file as
   it was, even files with bytes past their manifest size: reopen
   reclaims those tails only once the whole manifest has loaded, and
   fsck never writes. *)
let test_refused_manifest_keeps_tails scheme () =
  let segs dir =
    List.filter
      (fun (f, _) -> String.starts_with ~prefix:"seg_" f)
      (dir_files dir)
  in
  let name, framed =
    List.find
      (fun (f, _) -> String.starts_with ~prefix:"manifest." f)
      (dir_files (fixture_dir 2 scheme))
  in
  let payload = Atomic_file.check framed in
  let last = String.length payload - 1 in
  List.iter
    (fun (label, mutated) ->
      with_dir (copy_fixture 2 scheme) (fun dir ->
          List.iter
            (fun (f, bytes) ->
              Binio.write_file (Filename.concat dir f) (bytes ^ "stale tail"))
            (segs dir);
          Binio.write_file (Filename.concat dir name) (Atomic_file.frame mutated);
          let before = segs dir in
          (match Database.reopen ~dir () with
          | db ->
              Database.crash db;
              Alcotest.failf "%s: reopen accepted the manifest" label
          | exception (Binio.Corrupt _ | Types.Engine_error _) -> ());
          Alcotest.(check bool) (label ^ ": segments intact after reopen") true
            (segs dir = before);
          let report = Fsck.run ~dir () in
          Alcotest.(check bool) (label ^ ": fsck reports it") false
            (Fsck.clean report);
          Alcotest.(check bool) (label ^ ": segments intact after fsck") true
            (segs dir = before)))
    [
      ("unterminated WAL marker", String.sub payload 0 last ^ "\x80");
      ("trailing byte", payload ^ "\x00");
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "colseg"
    [
      ( "varint",
        [
          qtest prop_zigzag_involution;
          qtest prop_varint_roundtrip;
          Alcotest.test_case "rejects truncation" `Quick
            test_varint_rejects_truncated;
          Alcotest.test_case "rejects over-long" `Quick
            test_varint_rejects_overlong;
        ] );
      ( "rle-adversarial",
        [
          qtest prop_rle_rejects_truncation;
          qtest prop_rle_bitflip_never_crashes;
        ] );
      ( "segment-v2",
        [
          qtest prop_segment_roundtrip;
          qtest prop_scan_pushdown_matches_rowwise;
          Alcotest.test_case "column report encodings" `Quick
            test_column_report_compresses;
        ] );
      ( "segment-adversarial",
        [
          Alcotest.test_case "bit flips detected" `Quick
            test_segment_bitflip_detected;
          Alcotest.test_case "truncation detected" `Quick
            test_segment_truncation_detected;
          Alcotest.test_case "hostile block bodies" `Quick
            test_key_decode_hostile_payload;
          qtest prop_blocks_rev_matches_iter;
          Alcotest.test_case "lineage decode count" `Quick
            test_lineage_decode_count;
        ] );
      ( "v1-compat",
        [
          Alcotest.test_case "tuple-first" `Quick
            (test_v1_migrate_roundtrip Database.Tuple_first);
          Alcotest.test_case "version-first" `Quick
            (test_v1_migrate_roundtrip Database.Version_first);
          Alcotest.test_case "hybrid" `Quick
            (test_v1_migrate_roundtrip Database.Hybrid);
          Alcotest.test_case "v2 migrate is a no-op" `Quick
            test_v2_migrate_noop;
          Alcotest.test_case "v2 bytes unchanged: tuple-first" `Quick
            (test_v2_bytes_unchanged ~compress:[ false; true ]
               Database.Tuple_first);
          Alcotest.test_case "v2 bytes unchanged: version-first" `Quick
            (test_v2_bytes_unchanged ~compress:[ false; true ]
               Database.Version_first);
          Alcotest.test_case "v2 bytes unchanged: hybrid" `Quick
            (test_v2_bytes_unchanged ~compress:[ false; true ] Database.Hybrid);
          Alcotest.test_case "v2 bytes unchanged: tuple-oriented" `Quick
            (test_v2_bytes_unchanged ~compress:[ false ]
               Database.Tuple_first_tuple_oriented);
          Alcotest.test_case "v2 bytes unchanged: hybrid, wal" `Quick
            (test_v2_bytes_unchanged ~wal:true ~compress:[ false ]
               Database.Hybrid);
          Alcotest.test_case "hostile v1 input refused" `Quick test_hostile_v1;
          Alcotest.test_case "hostile v2 manifest: tuple-first" `Quick
            (test_hostile_v2_manifest Database.Tuple_first);
          Alcotest.test_case "hostile v2 manifest: tuple-oriented" `Quick
            (test_hostile_v2_manifest Database.Tuple_first_tuple_oriented);
          Alcotest.test_case "hostile v2 manifest: version-first" `Quick
            (test_hostile_v2_manifest Database.Version_first);
          Alcotest.test_case "hostile v2 manifest: hybrid" `Quick
            (test_hostile_v2_manifest Database.Hybrid);
          Alcotest.test_case "refused manifest keeps tails: version-first"
            `Quick
            (test_refused_manifest_keeps_tails Database.Version_first);
          Alcotest.test_case "refused manifest keeps tails: hybrid" `Quick
            (test_refused_manifest_keeps_tails Database.Hybrid);
        ] );
      ( "v1-upgrade-crash",
        [
          Alcotest.test_case "tuple-first" `Quick
            (test_upgrade_crash_matrix Database.Tuple_first);
          Alcotest.test_case "version-first" `Quick
            (test_upgrade_crash_matrix Database.Version_first);
          Alcotest.test_case "hybrid" `Quick
            (test_upgrade_crash_matrix Database.Hybrid);
        ] );
    ]
