(* Decibel benchmark: one process, one closed-loop client.

   A workload is a set-up — one of the paper's branching strategies
   (§4.1) loaded into one engine — plus a measured op stream.  Both are
   generated up front from --seed; the engine only ever sees the
   generated ops, through the public Database/Query API.  The client
   issues an op, waits for it, and issues the next (closed loop); ops of
   every class are interleaved in one seeded order.

   Correctness is checked after the measured phase, outside every timed
   region: every op that ran is replayed in order into the in-memory
   Model oracle, each read's row count must equal the oracle's at the
   version it read (one answer per version, so the warm-up's read of a
   version and later reads of it must agree), merges must report the
   oracle's conflicts, and the engine's content fingerprint must equal
   the oracle's at the end.

   --trace 0 reports end-to-end metrics with Obs recording off.
   --trace 1 alternates untraced and traced ops: traced ops run with
   Obs on under Database.profile, with registry, buffer-pool and GC
   deltas taken around them and the engine calls each query makes
   timed directly afterwards, and reports the per-layer metrics.  The
   last line of standard output is one JSON object. *)

open Decibel
open Decibel_storage
module Obs = Decibel_obs.Obs
module Prof = Obs.Prof
module Vg = Decibel_graph.Version_graph
module Par = Decibel_par.Par
module Prng = Decibel_util.Prng
module Fsutil = Decibel_util.Fsutil
module Strategy = Decibel_bench.Strategy
module Config = Decibel_bench.Config
module Wl = Decibel_bench.Workload
module Driver = Decibel_bench.Driver

let now = Unix.gettimeofday
let sprintf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Ops *)

type op =
  | Q1 of string
  | Q2 of string * string
  | Q3 of string * string
  | Q4
  | Checkout of int  (** index into the set-up's commits, oldest first *)
  | Write of string * (int * int) array
      (** batch on one branch then commit; (key, salt), salt 0 inserts *)
  | Branch of string * string  (** new branch, parent *)
  | Merge of string * string  (** into, from; [from] retires afterwards *)
  | Flush

let class_of = function
  | Q1 _ -> "q1"
  | Q2 _ -> "q2"
  | Q3 _ -> "q3"
  | Q4 -> "q4"
  | Checkout _ -> "checkout"
  | Write _ -> "write"
  | Branch _ -> "branch"
  | Merge _ -> "merge"
  | Flush -> "flush"

let describe = function
  | Q1 b -> "q1 " ^ b
  | Q2 (a, b) -> sprintf "q2 %s %s" a b
  | Q3 (a, b) -> sprintf "q3 %s %s" a b
  | Q4 -> "q4"
  | Checkout i -> sprintf "checkout %d" i
  | Write (b, d) -> sprintf "write %s %d" b (Array.length d)
  | Branch (b, p) -> sprintf "branch %s %s" b p
  | Merge (into, from) -> sprintf "merge %s %s" into from
  | Flush -> "flush"

(* ------------------------------------------------------------------ *)
(* Workloads *)

type kind = K_q1 | K_q2 | K_q3 | K_q4 | K_checkout | K_write | K_feature | K_flush

type targets = {
  scan_on : string list;  (** Q1 branches *)
  pair : string * string;  (** the two heads Q2 and Q3 compare *)
  write_on : string list;  (** write-batch branches *)
  feature_from : string list;  (** parents of feature branches *)
}

type spec = {
  name : string;
  scheme : Database.scheme;
  strategy : Strategy.kind;
  cfg : Config.t;
  durable : bool;
  pool_pages : int option;  (** [None]: the default 64 MiB pool *)
  batch : int;  (** data ops per write batch *)
  setups : int;  (** set-up repetitions; setup_s is their median *)
  rounds : int;  (** measured rounds generated (round 0 is the warm-up) *)
  round : int -> kind list;  (** op kinds of round [r] *)
  targets : Wl.t -> targets;
}

let cfg_of ~branches ~records =
  {
    Config.default with
    branches;
    records_per_branch = records;
    commit_every = max 1 (records / 3);
    curation_dev_lifetime = records;
    curation_feature_lifetime = max 1 (records / 3);
  }

let role w name = Wl.role_exn w name

(* The paper's recommended scheme on the only strategy with merges: the
   whole branch/commit/diff/merge lifecycle, in cache, without WAL. *)
let curation_hy ~tiny =
  {
    name = "curation-hy";
    scheme = Database.Hybrid;
    strategy = Strategy.Curation;
    cfg = cfg_of ~branches:20 ~records:(if tiny then 60 else 1200);
    durable = false;
    pool_pages = None;
    batch = (if tiny then 5 else 50);
    setups = (if tiny then 1 else 3);
    rounds = (if tiny then 4 else 400);
    round =
      (fun _ ->
        [ K_q1; K_q2; K_q3; K_q4; K_checkout; K_checkout; K_write; K_write;
          K_feature ]);
    targets =
      (fun w ->
        let active = Wl.roles w "active" in
        (* the Q2/Q3 partner of the mainline: the active branch that
           took the most set-up writes, so the diff has substance *)
        let writes b =
          List.length
            (List.filter
               (function
                 | Wl.Insert { branch; _ } | Wl.Update { branch; _ } -> branch = b
                 | _ -> false)
               w.Wl.ops)
        in
        let dev =
          match List.filter (fun b -> b <> "master") active with
          | [] -> invalid_arg "perfbench: curation set-up left no active branch"
          | b :: bs ->
              List.fold_left
                (fun best b -> if writes b > writes best then b else best)
                b bs
        in
        let others = List.filter (fun b -> b <> dev && b <> "master") active in
        {
          scan_on = [ "master" ];
          pair = (dev, "master");
          write_on = others;
          feature_from = others;
        });
  }

(* Lineage scans and column decode; the bypass workload for bitmaps,
   commit histories, merges and the WAL. *)
let deep_vf ~tiny =
  {
    name = "deep-vf";
    scheme = Database.Version_first;
    strategy = Strategy.Deep;
    cfg = cfg_of ~branches:20 ~records:(if tiny then 40 else 500);
    durable = false;
    pool_pages = None;
    batch = (if tiny then 5 else 25);
    setups = (if tiny then 1 else 5);
    rounds = (if tiny then 4 else 400);
    round =
      (fun _ ->
        [ K_q1; K_q1; K_q2; K_q3; K_q4; K_checkout; K_checkout; K_checkout;
          K_write ]);
    targets =
      (fun w ->
        let tail = role w "tail" in
        {
          scan_on = [ tail ];
          pair = (tail, role w "tail-parent");
          write_on = [ tail ];
          feature_from = [];
        });
  }

(* The only out-of-cache, WAL and wide-fan-out workload, write-heavy, so
   a read gain that costs commits shows here. *)
let flat_tf_durable ~tiny =
  {
    name = "flat-tf-durable";
    scheme = Database.Tuple_first;
    strategy = Strategy.Flat;
    cfg = cfg_of ~branches:21 ~records:(if tiny then 40 else 600);
    durable = true;
    pool_pages = Some (if tiny then 1 else 8);
    batch = (if tiny then 5 else 50);
    setups = (if tiny then 1 else 5);
    rounds = (if tiny then 4 else 400);
    round =
      (fun r ->
        [ K_write; K_write; K_write; K_write; K_q1; K_q4; K_checkout;
          K_checkout ]
        @ (if r mod 2 = 0 then [ K_q3 ] else [])
        @ if r mod 4 = 3 then [ K_q2; K_flush ] else []);
    targets =
      (fun w ->
        let children = Wl.roles w "children" in
        let pair = role w "child" in
        {
          scan_on = children;
          pair = (pair, role w "parent");
          write_on = List.filter (fun b -> b <> pair) children;
          feature_from = [];
        });
  }

let workloads = [ curation_hy; deep_vf; flat_tf_durable ]

(* ------------------------------------------------------------------ *)
(* Op-stream generation.  Branch key sets are replayed from the set-up
   stream (keys are only ever added: no deletes, children inherit their
   parent's head, merges union), so updates always hit live keys. *)

type keyset = { mutable keys : int array; mutable n : int }

let ks_add ks k =
  if ks.n = Array.length ks.keys then begin
    let a = Array.make (max 16 (2 * ks.n)) 0 in
    Array.blit ks.keys 0 a 0 ks.n;
    ks.keys <- a
  end;
  ks.keys.(ks.n) <- k;
  ks.n <- ks.n + 1

let ks_copy ks = { keys = Array.sub ks.keys 0 ks.n; n = ks.n }

let ks_union into from =
  let have = Hashtbl.create (2 * into.n + 1) in
  for i = 0 to into.n - 1 do
    Hashtbl.replace have into.keys.(i) ()
  done;
  for i = 0 to from.n - 1 do
    let k = from.keys.(i) in
    if not (Hashtbl.mem have k) then ks_add into k
  done

type gen = {
  rng : Prng.t;
  keys : (string, keyset) Hashtbl.t;
  mutable next_key : int;
  mutable salt : int;
  ncommits : int;
  offset : int;  (** seeded start of every rotation *)
  mutable writes : int;  (** write batches generated so far *)
  mutable features : int;
  mutable reads : int;
  mutable checkouts : int;
}

(* Targets rotate through their candidates from a seeded offset, and
   checkouts cycle through equal strata of the commit history picking a
   seeded-random commit in each, so every run spreads its writes and
   checkouts alike and medians compare across seeds. *)
let rotate g counter l = List.nth l ((counter + g.offset) mod List.length l)

let checkout_strata = 32

let pick_checkout g =
  let s = g.checkouts mod checkout_strata in
  g.checkouts <- g.checkouts + 1;
  let lo = s * g.ncommits / checkout_strata in
  let hi = max (lo + 1) ((s + 1) * g.ncommits / checkout_strata) in
  lo + Prng.int g.rng (hi - lo)

let gen_of_setup seed (w : Wl.t) =
  let keys = Hashtbl.create 64 in
  Hashtbl.replace keys "master" { keys = [||]; n = 0 };
  let find b = Hashtbl.find keys b in
  let next_key = ref 0 and ncommits = ref 0 in
  List.iter
    (fun (op : Wl.op) ->
      match op with
      | Wl.Insert { branch; key } ->
          ks_add (find branch) key;
          next_key := max !next_key (key + 1)
      | Wl.Update _ | Wl.Retire _ -> ()
      | Wl.Commit _ -> incr ncommits
      | Wl.Create_branch { name; from_branch; commits_back } ->
          if commits_back <> 0 then
            invalid_arg "perfbench: set-up branches off historical commits";
          Hashtbl.replace keys name (ks_copy (find from_branch))
      | Wl.Merge { into; from; _ } ->
          ks_union (find into) (find from);
          incr ncommits)
    w.Wl.ops;
  let rng = Prng.create (Int64.add seed 0x5EED_0F_0B5L) in
  {
    rng;
    keys;
    next_key = !next_key;
    salt = 1_000_000_000;
    ncommits = !ncommits;
    offset = Prng.int rng 1024;
    writes = 0;
    features = 0;
    reads = 0;
    checkouts = 0;
  }

let gen_batch g spec branch =
  let ks = Hashtbl.find g.keys branch in
  Array.init spec.batch (fun _ ->
      if ks.n > 0 && Prng.chance g.rng spec.cfg.Config.update_fraction then begin
        g.salt <- g.salt + 1;
        (ks.keys.(Prng.int g.rng ks.n), g.salt)
      end
      else begin
        let k = g.next_key in
        g.next_key <- k + 1;
        ks_add ks k;
        (k, 0)
      end)

(* One round: the template's kinds in a seeded order.  A feature
   branch is created first in its round and merges back into its parent
   last.  At its shuffled slot it takes one batch, and so does its
   parent; both batches also update the same few inherited keys, so the
   three-way merge joins keys changed on both sides and meets field
   conflicts, as concurrent curation edits do. *)
let gen_round g spec tg r =
  let kinds = Array.of_list (spec.round r) in
  Prng.shuffle g.rng kinds;
  let feature =
    if Array.mem K_feature kinds then begin
      g.features <- g.features + 1;
      Some (sprintf "feat-r%d" r, rotate g g.features tg.feature_from)
    end
    else None
  in
  let ops = ref [] in
  let emit o = ops := o :: !ops in
  Option.iter
    (fun (name, parent) ->
      Hashtbl.replace g.keys name (ks_copy (Hashtbl.find g.keys parent));
      emit (Branch (name, parent)))
    feature;
  Array.iter
    (function
      | K_q1 ->
          g.reads <- g.reads + 1;
          emit (Q1 (rotate g g.reads tg.scan_on))
      | K_q2 -> emit (Q2 (fst tg.pair, snd tg.pair))
      | K_q3 -> emit (Q3 (fst tg.pair, snd tg.pair))
      | K_q4 -> emit Q4
      | K_checkout -> emit (Checkout (pick_checkout g))
      | K_write ->
          g.writes <- g.writes + 1;
          let b = rotate g g.writes tg.write_on in
          emit (Write (b, gen_batch g spec b))
      | K_feature ->
          Option.iter
            (fun (name, parent) ->
              let inherited = Hashtbl.find g.keys name in
              let shared =
                Array.init (max 1 (spec.batch / 10)) (fun _ ->
                    inherited.keys.(Prng.int g.rng inherited.n))
              in
              let batch b =
                let own = gen_batch g spec b in
                Array.append own
                  (Array.map
                     (fun k ->
                       g.salt <- g.salt + 1;
                       (k, g.salt))
                     shared)
              in
              emit (Write (name, batch name));
              emit (Write (parent, batch parent)))
            feature
      | K_flush -> emit Flush)
    kinds;
  Option.iter
    (fun (name, parent) ->
      ks_union (Hashtbl.find g.keys parent) (Hashtbl.find g.keys name);
      Hashtbl.remove g.keys name;
      emit (Merge (parent, name)))
    feature;
  List.rev !ops

(* ------------------------------------------------------------------ *)
(* Execution against a database (the engine, or the Model oracle) *)

type target = {
  db : Database.t;
  commits : Vg.version_id array;  (** set-up commits, oldest first *)
}

(* a very non-selective predicate (true for ~15/16 of records), as the
   paper uses for Q3/Q4 (§5.2) *)
let nonselective schema =
  let idx = Schema.column_index schema "c1" in
  fun (t : Tuple.t) ->
    match t.(idx) with Value.Int x -> Int64.rem x 16L <> 0L | Value.Str _ -> true

(* Replay a set-up stream; returns the commits made (oldest first) and
   the bytes of records inserted or updated. *)
let load db cfg (w : Wl.t) =
  let schema = Database.schema db in
  let bid = Database.branch_named db in
  let by_branch = Hashtbl.create 64 and commits = ref [] in
  let record b v =
    let prev = Option.value ~default:[] (Hashtbl.find_opt by_branch b) in
    Hashtbl.replace by_branch b (v :: prev);
    commits := v :: !commits
  in
  let salt = ref 0 and user = ref 0 in
  List.iter
    (fun (op : Wl.op) ->
      match op with
      | Wl.Insert { branch; key } ->
          let t = Driver.tuple_of_key cfg key in
          user := !user + Tuple.encoded_size schema t;
          Database.insert db (bid branch) t
      | Wl.Update { branch; key } ->
          incr salt;
          let t = Driver.updated_tuple cfg key !salt in
          user := !user + Tuple.encoded_size schema t;
          Database.update db (bid branch) t
      | Wl.Commit b -> record b (Database.commit db (bid b) ~message:"load")
      | Wl.Create_branch { name; from_branch; commits_back } ->
          let from = List.nth (Hashtbl.find by_branch from_branch) commits_back in
          ignore (Database.create_branch db ~name ~from)
      | Wl.Merge { into; from; policy } ->
          let r =
            Database.merge db ~into:(bid into) ~from:(bid from) ~policy
              ~message:"merge"
          in
          record into r.Types.merge_version
      | Wl.Retire b -> Vg.retire (Database.graph db) (bid b))
    w.Wl.ops;
  (Array.of_list (List.rev !commits), !user)

let prepare cfg = function
  | Write (_, data) ->
      Array.map
        (fun (key, salt) ->
          if salt = 0 then (true, Driver.tuple_of_key cfg key)
          else (false, Driver.updated_tuple cfg key salt))
        data
  | _ -> [||]

(* Run one op; reads return their row count, merges their conflict
   count, everything else 0. *)
let exec ?(on_commit = fun f -> f ()) tgt op tuples =
  let db = tgt.db in
  let bid = Database.branch_named db in
  match op with
  | Q1 b -> Query.q1_scan db (bid b)
  | Q2 (a, b) -> Query.q2_pos_diff db (bid a) (bid b)
  | Q3 (a, b) ->
      Query.q3_join ~pred:(nonselective (Database.schema db)) db (bid a) (bid b)
  | Q4 -> Query.q4_heads ~pred:(nonselective (Database.schema db)) db
  | Checkout i -> Query.q1_scan_version db tgt.commits.(i)
  | Write (b, _) ->
      let b = bid b in
      Array.iter
        (fun (ins, t) ->
          if ins then Database.insert db b t else Database.update db b t)
        tuples;
      on_commit (fun () -> ignore (Database.commit db b ~message:"batch"));
      0
  | Branch (name, parent) ->
      ignore (Database.branch_from db ~name ~of_branch:(bid parent));
      0
  | Merge (into, from) ->
      let f = bid from in
      let r =
        Database.merge db ~into:(bid into) ~from:f ~policy:Types.Three_way
          ~message:"merge"
      in
      Vg.retire (Database.graph db) f;
      List.length r.Types.conflicts
  | Flush ->
      Database.flush db;
      0

(* Version identity of what a read sees: per-branch write epochs, so a
   read is compared only with results taken at the same version. *)
type epochs = { per : (string, int) Hashtbl.t; mutable all : int }

let new_epochs () = { per = Hashtbl.create 64; all = 0 }
let epoch ep b = Option.value ~default:0 (Hashtbl.find_opt ep.per b)

let bump ep b =
  Hashtbl.replace ep.per b (epoch ep b + 1);
  ep.all <- ep.all + 1

let after_op ep = function
  | Write (b, _) -> bump ep b
  | Branch (b, _) -> bump ep b
  | Merge (into, from) ->
      bump ep into;
      bump ep from
  | Q1 _ | Q2 _ | Q3 _ | Q4 | Checkout _ | Flush -> ()

let result_key ep = function
  | Q1 b -> sprintf "q1 %s@%d" b (epoch ep b)
  | Q2 (a, b) -> sprintf "q2 %s@%d %s@%d" a (epoch ep a) b (epoch ep b)
  | Q3 (a, b) -> sprintf "q3 %s@%d %s@%d" a (epoch ep a) b (epoch ep b)
  | Q4 -> sprintf "q4 @%d" ep.all
  | Checkout i -> sprintf "checkout %d" i
  | Merge (into, from) -> sprintf "merge %s<-%s" into from
  | Write _ | Branch _ | Flush -> ""

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it:
   (value, percentile, sample count). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0., 0., 0)
  else if n < 11 then (a.(n - 1), 100., n)
  else
    let i = n - 11 in
    (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n, n)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* ------------------------------------------------------------------ *)
(* Set-up *)

(* What one op returned on the engine, checked later against the oracle. *)
type outcome = Not_run | Rows of int | Raised of string

type setup = {
  engine : target;
  w : Wl.t;
  stream : op array;
  round_of : int array;
  outcomes : outcome array;  (** round 0 (the warm-up) filled in *)
  user_bytes : int;
  elapsed : float;  (** seconds this set-up took *)
}

(* The set-up's branch shape (which branches exist, when they fork and
   merge, which keys each op touches) comes from a fixed seed, so every
   run measures the same shape; --seed picks the record contents, and
   the measured stream's targets, update keys and op order. *)
let shape_seed = 0xDEC1BE1L

(* generate + load + flush + GC settle + one warm-up round + full GC *)
let setup spec cfg ~dir =
  Fsutil.rm_rf dir;
  Fsutil.mkdir_p dir;
  let t0 = now () in
  let w = Strategy.generate spec.strategy { cfg with Config.seed = shape_seed } in
  let tg = spec.targets w in
  let g = gen_of_setup cfg.Config.seed w in
  let rounds = List.init spec.rounds (fun r -> (r, gen_round g spec tg r)) in
  let stream = Array.of_list (List.concat_map snd rounds) in
  let round_of =
    Array.of_list (List.concat_map (fun (r, ops) -> List.map (fun _ -> r) ops) rounds)
  in
  let pool =
    Option.map (fun n -> Buffer_pool.create ~capacity_pages:n ()) spec.pool_pages
  in
  let db =
    Database.open_ ?pool ~durable:spec.durable ~scheme:spec.scheme ~dir
      ~schema:(Config.schema cfg) ()
  in
  let commits, user_bytes = load db cfg w in
  Database.flush db;
  Gc.full_major ();
  let engine = { db; commits } in
  let outcomes = Array.make (Array.length stream) Not_run in
  Array.iteri
    (fun i op ->
      if round_of.(i) = 0 then outcomes.(i) <- Rows (exec engine op (prepare cfg op)))
    stream;
  Gc.full_major ();
  { engine; w; stream; round_of; outcomes; user_bytes; elapsed = now () -. t0 }

(* Replay the set-up and every op that ran into the Model oracle, in
   the engine's order.  Reads are evaluated once per version (memoized
   by result key), so each read is compared with the oracle's answer at
   the version it saw — and so with every other read of that version,
   the warm-up's included.  Returns the failures and the oracle. *)
let check_against_model su cfg ~dir =
  let db = Database.open_ ~scheme:Database.Model ~dir ~schema:(Config.schema cfg) () in
  let commits, _ = load db cfg su.w in
  let model = { db; commits } in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  if commits <> su.engine.commits then fail "set-up commit ids differ";
  let memo : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let ep = new_epochs () in
  Array.iteri
    (fun i op ->
      match su.outcomes.(i) with
      | Not_run -> ()
      | outcome -> (
          let key = result_key ep op in
          let rows =
            match Hashtbl.find_opt memo key with
            | Some r -> r
            | None ->
                let r = exec model op (prepare cfg op) in
                if key <> "" then Hashtbl.replace memo key r;
                r
          in
          after_op ep op;
          match outcome with
          | Raised e -> fail (sprintf "%s raised %s" (class_of op) e)
          | Rows r when r <> rows ->
              fail (sprintf "%s: engine %d rows, oracle %d" key r rows)
          | Rows _ | Not_run -> ()))
    su.stream;
  (List.rev !failures, model)

(* ------------------------------------------------------------------ *)
(* Per-layer accounting (--trace 1) *)

type layer = {
  counters : (string, int) Hashtbl.t;  (** registry deltas over traced ops *)
  prof : int array;  (** Prof totals, indexed like [Prof.all_kinds] *)
  timings : (string, float list ref) Hashtbl.t;  (** per-layer samples, s *)
  classes : (string, int) Hashtbl.t;  (** traced op count per class *)
  mutable minor_words : float;
  mutable major_collections : int;
  mutable bp_hits : int;
  mutable bp_misses : int;
  mutable bp_evictions : int;
  mutable traced_ops : int;
  traced_time : (string, float list ref) Hashtbl.t;  (** per class, s *)
  plain_time : (string, float list ref) Hashtbl.t;  (** untraced, per class *)
  mutable user_bytes : int;  (** bytes written by traced batches *)
  mutable log : string list;  (** per-op trace records, newest first *)
}

let new_layer () =
  {
    counters = Hashtbl.create 64;
    prof = Array.make (List.length Prof.all_kinds) 0;
    timings = Hashtbl.create 16;
    classes = Hashtbl.create 16;
    minor_words = 0.;
    major_collections = 0;
    bp_hits = 0;
    bp_misses = 0;
    bp_evictions = 0;
    traced_ops = 0;
    traced_time = Hashtbl.create 16;
    plain_time = Hashtbl.create 16;
    user_bytes = 0;
    log = [];
  }

let push tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace tbl k (ref [ v ])

let samples tbl k = match Hashtbl.find_opt tbl k with Some l -> !l | None -> []
let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
let bump_count tbl k n = Hashtbl.replace tbl k (count tbl k + n)

let timed f =
  let t0 = now () in
  f ();
  now () -. t0

(* The engine calls a query makes, timed directly after it ran (so
   they see the same version): the basis of the query layer's self
   time. *)
let direct_calls tgt op =
  let db = tgt.db in
  let bid = Database.branch_named db in
  let scan b = ("engine.scan", timed (fun () -> Database.scan db (bid b) ignore)) in
  match op with
  | Q1 b -> [ scan b ]
  | Q2 (a, b) ->
      [ ( "engine.diff",
          timed (fun () ->
              Database.diff db (bid a) (bid b) ~pos:ignore ~neg:ignore) ) ]
  | Q3 (a, b) -> [ scan a; scan b ]
  | Q4 ->
      [ ( "engine.multi_scan",
          timed (fun () -> Database.multi_scan db (Database.heads db) ignore) ) ]
  | Checkout i ->
      [ ( "engine.scan_version",
          timed (fun () -> Database.scan_version db tgt.commits.(i) ignore) ) ]
  | Write _ | Branch _ | Merge _ | Flush -> []

let traced_exec ly tgt op tuples ~user =
  let pool = Database.pool tgt.db in
  let s0 = Obs.snapshot () and g0 = Gc.quick_stat () in
  let b0 = Buffer_pool.stats pool in
  let commit_s = ref 0. in
  let on_commit f = commit_s := timed f in
  let t0 = now () in
  let rows, prof =
    Database.profile ~label:(class_of op) tgt.db (fun () ->
        exec ~on_commit tgt op tuples)
  in
  let dt = now () -. t0 in
  let s1 = Obs.snapshot () and g1 = Gc.quick_stat () in
  let b1 = Buffer_pool.stats pool in
  List.iter (fun (k, d) -> bump_count ly.counters k d) (Obs.counters_diff s0 s1);
  List.iteri
    (fun i k -> ly.prof.(i) <- ly.prof.(i) + Prof.total prof k)
    Prof.all_kinds;
  ly.minor_words <- ly.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  ly.major_collections <-
    ly.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  ly.bp_hits <- ly.bp_hits + (b1.Buffer_pool.hits - b0.Buffer_pool.hits);
  ly.bp_misses <- ly.bp_misses + (b1.Buffer_pool.misses - b0.Buffer_pool.misses);
  ly.bp_evictions <-
    ly.bp_evictions + (b1.Buffer_pool.evictions - b0.Buffer_pool.evictions);
  ly.traced_ops <- ly.traced_ops + 1;
  push ly.traced_time (class_of op) dt;
  ly.user_bytes <- ly.user_bytes + user;
  bump_count ly.classes (class_of op) 1;
  (match op with
  | Write _ -> push ly.timings "engine.commit" !commit_s
  | Merge _ -> push ly.timings "merge" dt
  | Flush -> push ly.timings "db.flush" dt
  | _ -> ());
  let calls = direct_calls tgt op in
  List.iter (fun (k, s) -> push ly.timings k s) calls;
  let engine_s = List.fold_left (fun acc (_, s) -> acc +. s) 0. calls in
  (match op with
  | Q3 _ -> push ly.timings "query.q3.self" (dt -. engine_s)
  | Q4 -> push ly.timings "query.q4.self" (dt -. engine_s)
  | _ -> ());
  ly.log <-
    sprintf "{\"op\":%S,\"ms\":%.4f,\"engine_ms\":%.4f,\"rows\":%d,\"trace\":%S}"
      (describe op) (dt *. 1e3) (engine_s *. 1e3) rows prof.Prof.p_trace_id
    :: ly.log;
  (rows, dt)

let ratio a b = if b = 0. then 0. else a /. b
let per ly k d = ratio (float_of_int (count ly.counters k)) d

(* name, unit, value *)
let layer_metrics ly =
  let ops = float_of_int ly.traced_ops in
  let cls k = float_of_int (count ly.classes k) in
  let ms k = 1e3 *. median (samples ly.timings k) in
  let prof k =
    let rec find i = function
      | [] -> 0
      | k' :: rest -> if k' = k then ly.prof.(i) else find (i + 1) rest
    in
    float_of_int (find 0 Prof.all_kinds)
  in
  let reads = cls "q1" +. cls "q2" +. cls "q3" +. cls "q4" +. cls "checkout" in
  let scans = cls "q1" +. (2. *. cls "q3") +. cls "checkout" in
  let commits = cls "write" +. cls "merge" in
  let decoded = float_of_int (count ly.counters "colseg.blocks_decoded") in
  let skipped = float_of_int (count ly.counters "colseg.blocks_skipped") in
  let bp_total = float_of_int (ly.bp_hits + ly.bp_misses) in
  (* tracing overhead on the untraced ops' mix: each untraced op is
     charged its class's mean traced time, so the estimate does not
     depend on which classes happened to land on traced ops *)
  let sum = List.fold_left ( +. ) 0. in
  let plain_s, traced_s =
    Hashtbl.fold
      (fun c plain (p, t) ->
        let mean xs = sum xs /. float_of_int (List.length xs) in
        match samples ly.traced_time c with
        | [] -> (p, t)
        | traced ->
            (p +. sum !plain, t +. (float_of_int (List.length !plain) *. mean traced)))
      ly.plain_time (0., 0.)
  in
  [
    ("query.q3.self_ms", "ms", ms "query.q3.self");
    ("query.q4.self_ms", "ms", ms "query.q4.self");
    ("engine.scan_ms", "ms", ms "engine.scan");
    ("engine.diff_ms", "ms", ms "engine.diff");
    ("engine.multi_scan_ms", "ms", ms "engine.multi_scan");
    ("engine.scan_version_ms", "ms", ms "engine.scan_version");
    ("engine.commit_ms", "ms", ms "engine.commit");
    ( "engine.scanned_per_emitted", "ratio",
      ratio (prof Prof.Tuples_scanned) (prof Prof.Tuples_emitted) );
    ("engine.segments_per_scan", "count/scan", per ly "engine.scan.segments" scans);
    ("engine.delta_fragments", "count/read", ratio (prof Prof.Delta_fragments) reads);
    ("merge.ms", "ms", ms "merge");
    ("merge.keys_joined", "count/merge", per ly "merge.keys_joined" (cls "merge"));
    ( "merge.conflicts_detected", "count/merge",
      per ly "merge.conflicts_detected" (cls "merge") );
    ("wal.records", "count/batch", per ly "wal.records" (cls "write"));
    ( "wal.bytes_per_user_byte", "ratio",
      per ly "wal.bytes" (float_of_int ly.user_bytes) );
    ("db.flush_ms", "ms", ms "db.flush");
    ("buffer_pool.hit_ratio", "ratio", ratio (float_of_int ly.bp_hits) bp_total);
    ("buffer_pool.misses", "count/op", ratio (float_of_int ly.bp_misses) ops);
    ("buffer_pool.evictions", "count/op", ratio (float_of_int ly.bp_evictions) ops);
    ("heap.pages_read", "count/op", per ly "heap.pages_read" ops);
    ("heap.bytes_written", "B/op", per ly "heap.bytes_written" ops);
    ("heap.flushes", "count/op", per ly "heap.flushes" ops);
    ("colseg.rows_decoded", "count/op", per ly "colseg.rows_decoded" ops);
    ("colseg.blocks_decoded", "count/op", ratio decoded ops);
    ("colseg.blocks_skipped", "count/op", ratio skipped ops);
    ("colseg.skip_ratio", "ratio", ratio skipped (decoded +. skipped));
    ("colseg.bytes_decoded", "B/op", ratio (prof Prof.Bytes_decoded) ops);
    ( "bitmap.words_per_emitted", "ratio",
      ratio (prof Prof.Bitmap_words) (prof Prof.Tuples_emitted) );
    ( "commit_history.deltas_replayed_per_checkout", "count/checkout",
      per ly "commit_history.deltas_replayed" (cls "checkout") );
    ( "commit_history.delta_bytes_per_commit", "B/commit",
      per ly "commit_history.delta_bytes" commits );
    ("gc.minor_words_per_op", "words/op", ratio ly.minor_words ops);
    ("gc.major_collections", "count/op", ratio (float_of_int ly.major_collections) ops);
    ("trace.overhead_frac", "ratio", if traced_s = 0. then 0. else 1. -. (plain_s /. traced_s));
  ]

(* ------------------------------------------------------------------ *)
(* Driver *)

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable tiny : bool;
  mutable corrupt : bool;
  mutable setup_only : string;  (** set up in this directory, print the time *)
}

let parse_args () =
  let a =
    { workload = ""; seed = 1; seconds = 10.; trace = false; tiny = false;
      corrupt = false; setup_only = "" }
  in
  let names = String.concat ", " (List.map (fun f -> (f ~tiny:false).name) workloads) in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> a.workload <- s), " one of: " ^ names);
      ("--seed", Arg.Int (fun n -> a.seed <- n), " input seed");
      ("--seconds", Arg.Float (fun s -> a.seconds <- s), " measured seconds");
      ("--trace", Arg.Int (fun n -> a.trace <- n <> 0), " 1: traced per-layer run");
      ("--size", Arg.String (fun s -> a.tiny <- s = "tiny"), " full (default) or tiny");
      ( "--corrupt-expected", Arg.Unit (fun () -> a.corrupt <- true),
        " corrupt the expected fingerprint (self-test of the check)" );
      ( "--setup-only", Arg.String (fun d -> a.setup_only <- d),
        "DIR time one set-up in DIR, then remove it (used for repetitions)" );
    ]
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  a

let json_num v =
  match classify_float v with FP_nan | FP_infinite -> "0" | _ -> sprintf "%.17g" v

let () =
  let args = parse_args () in
  let spec =
    match
      List.find_opt (fun f -> (f ~tiny:false).name = args.workload) workloads
    with
    | Some f -> f ~tiny:args.tiny
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ args.workload);
        exit 2
  in
  Par.set_domain_count 1;
  Obs.set_enabled false;
  Obs.set_max_spans 50_000;
  let cfg = { spec.cfg with Config.seed = Int64.of_int args.seed } in
  let run_dir =
    Filename.concat ".perfbench-run"
      (sprintf "%s-seed%d-%d" spec.name args.seed (Unix.getpid ()))
  in
  if args.setup_only <> "" then begin
    let s = setup spec cfg ~dir:args.setup_only in
    Database.close s.engine.db;
    Fsutil.rm_rf args.setup_only;
    Printf.printf "%.17g\n" s.elapsed;
    exit 0
  end;
  (* --- set-up, repeated: each repetition but the last runs in a fresh
     child process, so none inherits another's heap or caches; the last
     one, in this process, is measured --- *)
  let setup_in_child i =
    let dir = Filename.concat run_dir (sprintf "setup%d" i) in
    let argv =
      [| Sys.executable_name; "--workload"; spec.name; "--seed";
         string_of_int args.seed; "--size"; (if args.tiny then "tiny" else "full");
         "--setup-only"; dir |]
    in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process Sys.executable_name argv Unix.stdin out_w Unix.stderr in
    Unix.close out_w;
    let ic = Unix.in_channel_of_descr out_r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match (snd (Unix.waitpid [] pid), float_of_string_opt (String.trim line)) with
    | Unix.WEXITED 0, Some t -> t
    | _ -> failwith "perfbench: a set-up repetition failed"
  in
  let child_times = List.init (spec.setups - 1) setup_in_child in
  let su = setup spec cfg ~dir:(Filename.concat run_dir "db") in
  let setup_times = child_times @ [ su.elapsed ] in
  let setup_s = median setup_times in
  let engine = su.engine in
  (* --- measured phase --- *)
  let lat : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  let ly = new_layer () in
  let busy = ref 0. and attempted = ref 0 and measured_user = ref 0 in
  let schema = Database.schema engine.db in
  let phase_start = now () in
  let wall_limit = (3. *. args.seconds) +. 10. in
  let i = ref 0 in
  while !i < Array.length su.stream && su.round_of.(!i) = 0 do
    incr i
  done;
  while
    !i < Array.length su.stream
    && !busy < args.seconds
    && now () -. phase_start < wall_limit
  do
    let op = su.stream.(!i) in
    let tuples = prepare cfg op in
    let user =
      Array.fold_left (fun acc (_, t) -> acc + Tuple.encoded_size schema t) 0 tuples
    in
    let traced = args.trace && !i mod 2 = 1 in
    incr attempted;
    measured_user := !measured_user + user;
    (try
       let rows, dt =
         if traced then begin
           Obs.set_enabled true;
           Fun.protect
             ~finally:(fun () -> Obs.set_enabled false)
             (fun () -> traced_exec ly engine op tuples ~user)
         end
         else begin
           let t0 = now () in
           let rows = exec engine op tuples in
           let dt = now () -. t0 in
           if args.trace then push ly.plain_time (class_of op) dt;
           (rows, dt)
         end
       in
       busy := !busy +. dt;
       push lat (class_of op) dt;
       su.outcomes.(!i) <- Rows rows
     with e -> su.outcomes.(!i) <- Raised (Printexc.to_string e));
    incr i
  done;
  let wall = now () -. phase_start in
  let exhausted = !i >= Array.length su.stream in
  let dataset_bytes = Database.dataset_bytes engine.db in
  let meta_bytes = Database.commit_meta_bytes engine.db in
  let pool = Database.pool engine.db in
  let pool_bytes = Buffer_pool.capacity_pages pool * Buffer_pool.page_size pool in
  let peak_rss = peak_rss_mb () in
  (* --- correctness, outside every timed region --- *)
  let failures, model =
    check_against_model su cfg ~dir:(Filename.concat run_dir "model-in-memory")
  in
  let fp_model = Database.fingerprint model.db in
  let fp_expected = if args.corrupt then "corrupted:" ^ fp_model else fp_model in
  let failures =
    if Database.fingerprint engine.db = fp_expected then failures
    else failures @ [ "final fingerprint differs from the oracle's" ]
  in
  let checked =
    Array.fold_left (fun n o -> if o = Not_run then n else n + 1) 0 su.outcomes
  in
  let ops = !attempted in
  let ms k = 1e3 *. median (samples lat k) in
  let q4_tail, q4_pct, q4_n = tail (samples lat "q4") in
  let w_tail, w_pct, w_n = tail (samples lat "write") in
  Printf.printf "# workload %s seed %d: %d ops in %.3f s busy (%.3f s wall)%s\n"
    spec.name args.seed ops !busy wall
    (if exhausted then ", op stream exhausted" else "");
  Printf.printf "# dataset_bytes %d, commit_meta_bytes %d, pool_bytes %d\n"
    dataset_bytes meta_bytes pool_bytes;
  Printf.printf "# setup seconds: %s\n"
    (String.concat " " (List.map (sprintf "%.3f") setup_times));
  Printf.printf "# q4_tail_ms is p%.1f of %d samples; write_tail_ms is p%.1f of %d samples\n"
    q4_pct q4_n w_pct w_n;
  List.iter
    (fun c ->
      let xs = samples lat c in
      if xs <> [] then
        let a = sorted xs in
        let q p = 1e3 *. a.(min (Array.length a - 1) (p * Array.length a / 100)) in
        Printf.printf "# %-8s n=%4d ms: p10 %.3f  p50 %.3f  p75 %.3f  p90 %.3f  max %.3f\n"
          c (Array.length a) (q 10) (q 50) (q 75) (q 90) (q 100))
    [ "q1"; "q2"; "q3"; "q4"; "checkout"; "write"; "branch"; "merge"; "flush" ];
  Printf.printf "# %d ops checked against the oracle, %d failed\n" checked
    (List.length failures);
  List.iteri
    (fun k m -> if k < 5 then Printf.printf "# check failed: %s\n" m)
    failures;
  let metrics =
    if args.trace then layer_metrics ly
    else
      [
        ("setup_s", "s", setup_s);
        ("ops_per_s", "1/s", ratio (float_of_int ops) !busy);
        ("q1_p50_ms", "ms", ms "q1");
        ("q2_p50_ms", "ms", ms "q2");
        ("q3_p50_ms", "ms", ms "q3");
        ("q4_p50_ms", "ms", ms "q4");
        ("q4_tail_ms", "ms", 1e3 *. q4_tail);
        ("checkout_p50_ms", "ms", ms "checkout");
        ("write_p50_ms", "ms", ms "write");
        ("write_tail_ms", "ms", 1e3 *. w_tail);
        ( "bytes_per_user_byte", "ratio",
          ratio
            (float_of_int (dataset_bytes + meta_bytes))
            (float_of_int (su.user_bytes + !measured_user)) );
        ("peak_rss_mb", "MB", peak_rss);
      ]
  in
  (* --- traces are written once the run is over --- *)
  if args.trace then begin
    let dir = Filename.concat ".perfbench-run" "traces" in
    Fsutil.mkdir_p dir;
    let base = Filename.concat dir (sprintf "%s-seed%d" spec.name args.seed) in
    Obs.write_trace ~path:(base ^ ".spans.json");
    let oc = open_out (base ^ ".ops.jsonl") in
    List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev ly.log);
    close_out oc;
    Printf.printf "# trace written to %s.{spans.json,ops.jsonl}\n" base
  end;
  Database.close engine.db;
  Fsutil.rm_rf run_dir;
  let fields =
    List.map
      (fun (n, u, v) -> sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failures = []) (max 1 checked) (List.length failures)
    (String.concat ", " fields)
