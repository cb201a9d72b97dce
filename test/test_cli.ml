(* End-to-end check of the command-line interface: drive the built
   decibel_cli.exe through a repository's lifecycle, one process per
   command as a shell user would, and check each command's exit code
   and that every --json output parses as JSON. *)

let cli = "../bin/decibel_cli.exe"

(* ------------------------------------------------------------------ *)
(* a strict JSON reader, enough to prove the outputs parse and to look
   up top-level keys *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Bad_json (Printf.sprintf "%s at %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "%c" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail word
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (match peek () with
          | '"' | '\\' | '/' -> Buffer.add_char b (peek ())
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' | 'f' -> ()
          | 'u' ->
              if !pos + 4 >= n then fail "\\u escape";
              pos := !pos + 4
          | _ -> fail "escape");
          incr pos;
          go ()
      | '\000' -> fail "unterminated string"
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = string_ () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "object"
          in
          fields []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> fail "array"
          in
          items []
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing data";
  v

(* ------------------------------------------------------------------ *)

(* run the CLI; returns (exit code, stdout) *)
let run args =
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED c -> (c, out)
  | _ -> Alcotest.fail ("CLI killed: " ^ String.concat " " args)

let ok args =
  let code, out = run args in
  Alcotest.(check int) (String.concat " " args ^ " exits 0") 0 code;
  out

let json args =
  let out = ok args in
  match parse_json out with
  | v -> v
  | exception Bad_json why ->
      Alcotest.failf "%s: output does not parse (%s): %s"
        (String.concat " " args) why out

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_lifecycle () =
  let root = Decibel_util.Fsutil.fresh_dir "decibel-cli" in
  let dir = Filename.concat root "repo" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf root)
    (fun () ->
      let schema = "id:int,name:str,score:int" in
      ignore (ok [ "init"; dir; "--schema"; schema; "--pk"; "id" ]);
      ignore (ok [ "insert"; dir; "-b"; "master"; "--values"; "1,ada,90" ]);
      ignore (ok [ "insert"; dir; "-b"; "master"; "--values"; "2,bob,70" ]);
      ignore (ok [ "commit"; dir; "--branch"; "master"; "-m"; "first rows" ]);
      ignore (ok [ "branch"; dir; "dev"; "--from"; "master" ]);
      ignore (ok [ "insert"; dir; "--branch"; "dev"; "--values"; "3,cy,80" ]);
      ignore (ok [ "commit"; dir; "--branch"; "dev"; "-m"; "dev row" ]);
      let d = ok [ "diff"; dir; "master"; "dev" ] in
      Alcotest.(check bool) "diff shows the dev-only row" true
        (contains d "> (3, \"cy\", 80)");
      let m = ok [ "merge"; dir; "--into"; "master"; "--from"; "dev" ] in
      Alcotest.(check bool) "merge reports no conflicts" true
        (contains m "0 conflicts");
      let s = ok [ "scan"; dir; "--branch"; "master" ] in
      Alcotest.(check int) "master holds three rows after the merge" 3
        (List.length
           (List.filter (( <> ) "") (String.split_on_char '\n' s)));
      (match json [ "stats"; dir; "--json" ] with
      | Obj fields ->
          Alcotest.(check bool) "stats carries the metrics registry" true
            (match List.assoc_opt "metrics" fields with
            | Some (Obj _) -> true
            | _ -> false);
          Alcotest.(check bool) "stats has no governor key" false
            (List.mem_assoc "governor" fields)
      | _ -> Alcotest.fail "stats --json is not an object");
      ignore (ok [ "stats"; dir ]);
      (match json [ "inspect"; dir; "--json" ] with
      | Obj _ -> ()
      | _ -> Alcotest.fail "inspect --json is not an object");
      (match json [ "advise"; dir; "--json" ] with
      | Arr _ -> ()
      | _ -> Alcotest.fail "advise --json is not an array");
      (match json [ "health"; dir; "--json" ] with
      | Obj _ -> ()
      | _ -> Alcotest.fail "health --json is not an object");
      ignore (ok [ "fsck"; dir ]);
      (* an unknown branch is a user error: exit 1 *)
      let code, _ = run [ "scan"; dir; "--branch"; "nope" ] in
      Alcotest.(check int) "unknown branch exits 1" 1 code)

(* A checksum-valid tuple-first manifest naming a heap generation whose
   file does not exist: fsck reports it as a manifest finding (exit 1,
   JSON on stdout) instead of dying on the missing file. *)
let test_fsck_inconsistent_manifest () =
  let root = Decibel_util.Fsutil.fresh_dir "decibel-cli" in
  let dir = Filename.concat root "repo" in
  Fun.protect
    ~finally:(fun () -> Decibel_util.Fsutil.rm_rf root)
    (fun () ->
      ignore
        (ok
           [ "init"; dir; "--schema"; "id:int,v:int"; "--pk"; "id";
             "--scheme"; "tuple-first" ]);
      ignore (ok [ "insert"; dir; "-b"; "master"; "--values"; "1,2" ]);
      let path = Filename.concat dir "manifest.tf" in
      let payload =
        Bytes.of_string
          (Decibel_storage.Atomic_file.check
             (Decibel_util.Binio.read_file path))
      in
      (* format header (2 bytes), then the layout string; the heap
         generation varint follows *)
      let gen_at = 2 + 1 + String.length "branch-oriented" in
      Alcotest.(check int) "generation 0 on disk" 0
        (Char.code (Bytes.get payload gen_at));
      Bytes.set payload gen_at '\001';
      Decibel_util.Binio.write_file path
        (Decibel_storage.Atomic_file.frame (Bytes.to_string payload));
      let code, out = run [ "fsck"; dir; "--json" ] in
      Alcotest.(check int) "fsck exits 1" 1 code;
      match parse_json out with
      | Obj fields -> (
          match List.assoc_opt "findings" fields with
          | Some (Arr (Obj f :: _)) ->
              Alcotest.(check bool) "the finding names the manifest" true
                (match List.assoc_opt "artifact" f with
                | Some (Str a) -> contains a "manifest"
                | _ -> false)
          | _ -> Alcotest.failf "fsck --json reports no finding: %s" out)
      | _ -> Alcotest.failf "fsck --json is not an object: %s" out
      | exception Bad_json why ->
          Alcotest.failf "fsck --json does not parse (%s): %s" why out)

let () =
  Alcotest.run "cli"
    [
      ( "cli",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "fsck refuses an inconsistent manifest" `Quick
            test_fsck_inconsistent_manifest;
        ] );
    ]
