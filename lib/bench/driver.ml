(** Benchmark driver: replays workloads into a database and measures
    the paper's queries (§4.2–4.3).

    Record values are derived deterministically from the key and the
    workload seed, so every scheme stores byte-identical datasets.
    Before each measured query the buffer pool is dropped, standing in
    for the paper's disk-cache flushes (§5). *)

open Decibel
open Decibel_util
open Decibel_storage
module Vg = Decibel_graph.Version_graph

type loaded = {
  db : Database.t;
  cfg : Config.t;
  workload : Workload.t;
  dir : string;
  commits : (string, Vg.version_id list) Hashtbl.t;
      (* per branch name, newest first *)
  load_seconds : float;
  merge_stats : (Types.merge_policy * float * int) list;
      (* policy, seconds, bytes of inter-branch diff handled *)
}

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Deterministic record content: column j of record [key] is a hash of
   (seed, key, j); the primary key column is the key itself. *)
let tuple_of_key cfg key =
  let g =
    Prng.create (Int64.add cfg.Config.seed (Int64.of_int ((key * 2) + 1)))
  in
  Array.init cfg.Config.columns (fun j ->
      if j = 0 then Value.int key
      else Value.Int (Prng.next_int64 g))

(* Low-cardinality record content for the compression ablation (§5.5):
   real datasets have skewed, repetitive fields, unlike the incompressible
   uniform-random benchmark columns. *)
let compressible_tuple_of_key cfg key =
  Array.init cfg.Config.columns (fun j ->
      if j = 0 then Value.int key
      else Value.int (((key / 16) + j) mod 8))

(* Updates write a fresh value derived from a per-load counter so each
   update changes the record. *)
let updated_tuple cfg key salt =
  let g =
    Prng.create
      (Int64.add cfg.Config.seed (Int64.of_int ((key * 65537) + salt)))
  in
  Array.init cfg.Config.columns (fun j ->
      if j = 0 then Value.int key else Value.Int (Prng.next_int64 g))

let branch_id db name = Database.branch_named db name

let diff_bytes db a b =
  let schema = Database.schema db in
  let bytes = ref 0 in
  Database.diff db a b
    ~pos:(fun t -> bytes := !bytes + Tuple.encoded_size schema t)
    ~neg:(fun t -> bytes := !bytes + Tuple.encoded_size schema t);
  !bytes

let load ?(clustered = false) ~scheme ~dir cfg workload =
  let workload = if clustered then Workload.cluster workload else workload in
  Fsutil.mkdir_p dir;
  let db = Database.open_ ~scheme ~dir ~schema:(Config.schema cfg) () in
  let commits : (string, Vg.version_id list) Hashtbl.t = Hashtbl.create 64 in
  let record_commit name vid =
    let prev = Option.value ~default:[] (Hashtbl.find_opt commits name) in
    Hashtbl.replace commits name (vid :: prev)
  in
  let merge_stats = ref [] in
  let salt = ref 0 in
  let t0 = now () in
  List.iter
    (fun (op : Workload.op) ->
      match op with
      | Workload.Insert { branch; key } ->
          Database.insert db (branch_id db branch) (tuple_of_key cfg key)
      | Workload.Update { branch; key } ->
          incr salt;
          Database.update db (branch_id db branch)
            (updated_tuple cfg key !salt)
      | Workload.Commit branch ->
          let vid =
            Database.commit db (branch_id db branch) ~message:"bench"
          in
          record_commit branch vid
      | Workload.Create_branch { name; from_branch; commits_back } ->
          let versions =
            Option.value ~default:[] (Hashtbl.find_opt commits from_branch)
          in
          let from =
            match List.nth_opt versions commits_back with
            | Some v -> v
            | None ->
                invalid_arg
                  (Printf.sprintf "workload: %s has no commit %d back"
                     from_branch commits_back)
          in
          let _ = Database.create_branch db ~name ~from in
          ()
      | Workload.Merge { into; from; policy } ->
          let bi = branch_id db into and bf = branch_id db from in
          let bytes = diff_bytes db bi bf in
          let secs, r =
            time (fun () ->
                Database.merge db ~into:bi ~from:bf ~policy ~message:"merge")
          in
          merge_stats := (policy, secs, bytes) :: !merge_stats;
          record_commit into r.Types.merge_version
      | Workload.Retire branch ->
          Vg.retire (Database.graph db) (branch_id db branch))
    workload.Workload.ops;
  Database.flush db;
  let load_seconds = now () -. t0 in
  { db; cfg; workload; dir; commits; load_seconds; merge_stats = !merge_stats }

let close l =
  Database.close l.db;
  Fsutil.rm_rf l.dir

(* ------------------------------------------------------------------ *)
(* measured queries *)

let measure ?(repeat = 3) l f =
  (* collect load garbage and run once unmeasured, so GC pauses from
     setup work do not pollute the samples *)
  Gc.full_major ();
  Database.drop_caches l.db;
  ignore (f ());
  List.init repeat (fun _ ->
      Database.drop_caches l.db;
      fst (time f))

(* a very non-selective predicate, as the paper uses for Q4 (§5.2):
   true for all but ~1/16 of records *)
let nonselective_pred l =
  let schema = Database.schema l.db in
  let idx = Schema.column_index schema "c1" in
  fun (t : Tuple.t) ->
    match t.(idx) with Value.Int x -> Int64.rem x 16L <> 0L | Value.Str _ -> true

let q1 ?repeat l ~branch =
  measure ?repeat l (fun () ->
      ignore (Query.q1_scan l.db (branch_id l.db branch)))

let q2 ?repeat l ~b1 ~b2 =
  measure ?repeat l (fun () ->
      ignore (Query.q2_pos_diff l.db (branch_id l.db b1) (branch_id l.db b2)))

let q3 ?repeat l ~b1 ~b2 =
  let pred = nonselective_pred l in
  measure ?repeat l (fun () ->
      ignore (Query.q3_join ~pred l.db (branch_id l.db b1) (branch_id l.db b2)))

let q4 ?repeat l =
  let pred = nonselective_pred l in
  measure ?repeat l (fun () -> ignore (Query.q4_heads ~pred l.db))

let dataset_bytes l = Database.dataset_bytes l.db
let commit_meta_bytes l = Database.commit_meta_bytes l.db

(* table-wise update (fig. 11 / table 4): rewrite every record of a
   branch, bumping one non-key column *)
let table_wise_update l ~branch =
  let schema = Database.schema l.db in
  let idx = Schema.column_index schema "c1" in
  ignore
    (Database.update_all l.db (branch_id l.db branch) (fun t ->
         let t' = Array.copy t in
         (t'.(idx) <-
            (match t.(idx) with
            | Value.Int x -> Value.Int (Int64.add x 1L)
            | Value.Str s -> Value.Str (s ^ "!")));
         t'))

(* random commit checkouts (table 2): average time to reconstruct and
   scan-count a historical commit *)
let checkout_samples l ~count rng =
  let all_versions =
    Hashtbl.fold (fun _ vs acc -> vs @ acc) l.commits []
  in
  let arr = Array.of_list all_versions in
  if Array.length arr = 0 then []
  else
    List.init count (fun _ ->
        let v = arr.(Prng.int rng (Array.length arr)) in
        Database.drop_caches l.db;
        fst (time (fun () -> ignore (Query.q1_scan_version l.db v))))

(* average commit creation time: measured on fresh data ops applied to
   the given branch *)
let commit_samples l ~branch ~count rng =
  let b = branch_id l.db branch in
  let cfg = l.cfg in
  List.init count (fun i ->
      (* a couple of fresh inserts so the commit has a delta *)
      let base = 10_000_000 + (i * 4) + (Prng.int rng 2) in
      for k = 0 to 1 do
        Database.insert l.db b (tuple_of_key cfg (base + k))
      done;
      fst (time (fun () -> ignore (Database.commit l.db b ~message:"tick"))))

(* ------------------------------------------------------------------ *)
(* result fingerprints: order-sensitive FNV-1a-64 over the encoded
   result stream, so "the data a reader sees is unchanged" collapses to
   one integer comparison *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_add h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let scan_fingerprint l ~branch =
  let schema = Database.schema l.db in
  let h = ref fnv_offset and n = ref 0 in
  Database.scan l.db (branch_id l.db branch) (fun t ->
      incr n;
      h := fnv_add !h (Tuple.encode schema t));
  (!h, !n)

let multi_scan_fingerprint l =
  let schema = Database.schema l.db in
  let h = ref fnv_offset and n = ref 0 in
  Database.multi_scan l.db (Database.heads l.db)
    (fun (a : Types.annotated) ->
      incr n;
      h := fnv_add !h (Tuple.encode schema a.tuple);
      List.iter (fun b -> h := fnv_add !h (string_of_int b)) a.in_branches);
  (!h, !n)
