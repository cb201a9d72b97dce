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
            (fun () -> collect seg)
        with
        | got ->
            (* the flip landed in heap slack: data must be untouched *)
            if got <> rows then
              Alcotest.failf "bit flip at byte %d silently changed data" i
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
            (fun () -> collect seg)
        with
        | _ -> Alcotest.failf "truncation to %d bytes went undetected" cut
        | exception Binio.Corrupt _ -> ()
      done;
      Binio.write_file path pristine)

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
  | Database.Version_first -> "vf"
  | _ -> "hy"

let fixture_dir ?(compress = false) version scheme =
  Filename.concat "fixtures"
    (Printf.sprintf "v%d/%s%s" version (fixture_tag scheme)
       (if compress then "-z" else ""))

(* file name -> bytes, sorted by name *)
let dir_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, Binio.read_file (Filename.concat dir f)))

let copy_fixture ?compress version scheme =
  let dir = Fsutil.fresh_dir "decibel-colseg-fixture" in
  List.iter
    (fun (f, bytes) -> Binio.write_file (Filename.concat dir f) bytes)
    (dir_files (fixture_dir ?compress version scheme));
  dir

let with_dir dir f =
  Fun.protect ~finally:(fun () -> Fsutil.rm_rf dir) (fun () -> f dir)

(* fingerprint of a fresh v2 build of the same history, checked
   against the one measured when the fixtures were written *)
let fresh_fingerprint ?(compress = false) scheme =
  with_dir (Fsutil.fresh_dir "decibel-colseg-fresh") (fun dir ->
      let db = Database.open_ ~compress ~scheme ~dir ~schema:db_schema () in
      build_branchy db;
      let fp = fingerprint db in
      Database.close db;
      let expected =
        match scheme with
        | Database.Version_first -> 0x9e9305fcd784edb3L
        | _ -> 0x6073cf96cbe73135L
      in
      Alcotest.(check int64) "fresh v2 fingerprint" expected fp;
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
   and today's reader reads the fixture to the same results. *)
let test_v2_bytes_unchanged scheme () =
  List.iter
    (fun compress ->
      let expected = fresh_fingerprint ~compress scheme in
      with_dir (Fsutil.fresh_dir "decibel-colseg-v2") (fun dir ->
          let db = Database.open_ ~compress ~scheme ~dir ~schema:db_schema () in
          build_branchy db;
          Database.close db;
          let wl = Filename.concat dir "workload.jsonl" in
          if Sys.file_exists wl then Sys.remove wl;
          let fixture = dir_files (fixture_dir ~compress 2 scheme) in
          Alcotest.(check (list string)) "same files" (List.map fst fixture)
            (List.map fst (dir_files dir));
          List.iter2
            (fun (f, want) (_, got) ->
              if want <> got then
                Alcotest.failf "%s differs from the v2 fixture" f)
            fixture (dir_files dir));
      with_dir (copy_fixture ~compress 2 scheme) (fun dir ->
          Alcotest.(check int64) "v2 fixture reads" expected
            (reopen_fingerprint dir)))
    [ false; true ]

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
            (test_v2_bytes_unchanged Database.Tuple_first);
          Alcotest.test_case "v2 bytes unchanged: version-first" `Quick
            (test_v2_bytes_unchanged Database.Version_first);
          Alcotest.test_case "v2 bytes unchanged: hybrid" `Quick
            (test_v2_bytes_unchanged Database.Hybrid);
          Alcotest.test_case "hostile v1 input refused" `Quick test_hostile_v1;
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
