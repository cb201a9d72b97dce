(** Reference model engine.

    Executable semantics for the versioning API: branch states are
    plain key→tuple maps, commits are whole-map snapshots, and merges
    run the shared {!Merge_driver} over brute-force change sets.  It is
    deliberately naive — no files, no bitmaps, no segments — so the
    property-based tests can check the three physical engines against
    it on arbitrary operation sequences.  Not part of the paper; it
    exists to make the reproduction trustworthy. *)

open Decibel_storage
open Types
module Vg = Decibel_graph.Version_graph

module Vmap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

type state = Tuple.t Vmap.t

type t = {
  schema : Schema.t;
  graph : Vg.t;
  mutable heads : state array; (* per branch working state *)
  mutable nheads : int;
  snapshots : (version_id, state) Hashtbl.t;
  mutable wal_marker : int;
}

let scheme = "model"

let create ~compress:_ ~dir:_ ~pool:_ ~schema =
  let snapshots = Hashtbl.create 64 in
  Hashtbl.replace snapshots Vg.root_version Vmap.empty;
  {
    schema;
    graph = Vg.create ();
    heads = Array.make 4 Vmap.empty;
    nheads = 1;
    snapshots;
    wal_marker = 0;
  }

let open_existing ~cut_tails:_ ~dir:_ ~pool:_ =
  errorf "model: the in-memory oracle does not persist"

let schema t = t.schema
let graph t = t.graph

let head_state t b =
  if b < 0 || b >= t.nheads then errorf "model: unknown branch %d" b;
  t.heads.(b)

let set_head t b st = t.heads.(b) <- st

let push_head t st =
  if t.nheads = Array.length t.heads then begin
    let a = Array.make (2 * t.nheads) Vmap.empty in
    Array.blit t.heads 0 a 0 t.nheads;
    t.heads <- a
  end;
  t.heads.(t.nheads) <- st;
  t.nheads <- t.nheads + 1;
  t.nheads - 1

let commit t b ~message =
  let vid = Vg.commit t.graph b ~message in
  Hashtbl.replace t.snapshots vid (head_state t b);
  vid

let snapshot t vid =
  match Hashtbl.find_opt t.snapshots vid with
  | Some st -> st
  | None -> errorf "model: version %d has no snapshot" vid

let create_branch t ~name ~from =
  let st = snapshot t from in
  let nb =
    try Vg.create_branch t.graph ~name ~from
    with Invalid_argument msg -> errorf "model: %s" msg
  in
  let slot = push_head t st in
  assert (slot = nb);
  nb

let validate t tuple =
  match Schema.validate t.schema tuple with
  | Ok () -> ()
  | Error msg -> errorf "model: %s" msg

module Obs = Decibel_obs.Obs

let insert t b tuple =
  validate t tuple;
  let key = Tuple.pk t.schema tuple in
  if Vmap.mem key (head_state t b) then
    errorf "model: duplicate key %s in branch %d" (Value.to_string key) b;
  set_head t b (Vmap.add key tuple (head_state t b))

let update t b tuple =
  validate t tuple;
  let key = Tuple.pk t.schema tuple in
  if not (Vmap.mem key (head_state t b)) then
    errorf "model: update of absent key %s" (Value.to_string key);
  set_head t b (Vmap.add key tuple (head_state t b))

let delete t b key =
  if not (Vmap.mem key (head_state t b)) then
    errorf "model: delete of absent key %s" (Value.to_string key);
  set_head t b (Vmap.remove key (head_state t b))

let lookup t b key = Vmap.find_opt key (head_state t b)

(* The oracle's datasets are tiny; contexts are honored with one poll
   per emitted record so deadline/cancel tests can still exercise it. *)
let ctx_poll ctx =
  let poll = Decibel_governor.Governor.Ctx.poller ~stride:1 ctx in
  fun f x -> poll (); f x

(* Every state a read resolves is scanned whole. *)
let charge_state st = Obs.charge Obs.Prof.Tuples_scanned (Vmap.cardinal st)

let scan ?ctx t b f =
  let st = head_state t b in
  charge_state st;
  let f = ctx_poll ctx f in
  Vmap.iter (fun _ tuple -> f tuple) st

(* No physical layout, so predicate pushdown degenerates to a row-wise
   filter — the executable semantics the columnar engines must match. *)
let scan_filtered ?ctx t b ~preds f =
  scan ?ctx t b (fun tuple ->
      if Col_pred.eval_tuple preds tuple then f tuple)

let scan_version ?ctx t vid f =
  let st = snapshot t vid in
  charge_state st;
  let f = ctx_poll ctx f in
  Vmap.iter (fun _ tuple -> f tuple) st

let multi_scan ?ctx t branches f =
  let f = ctx_poll ctx f in
  (* group by record content: each distinct live tuple once, annotated
     with the branches holding exactly that state for its key *)
  let tbl : (Value.t * Tuple.t, branch_id list) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.iter
    (fun b ->
      let st = head_state t b in
      charge_state st;
      Vmap.iter
        (fun key tuple ->
          let k = (key, tuple) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
          Hashtbl.replace tbl k (b :: prev))
        st)
    branches;
  Hashtbl.iter
    (fun (_, tuple) bs -> f { tuple; in_branches = List.sort compare bs })
    tbl

let diff ?ctx t a b ~pos ~neg =
  let pos = ctx_poll ctx pos and neg = ctx_poll ctx neg in
  let sa = head_state t a and sb = head_state t b in
  charge_state sa;
  charge_state sb;
  Vmap.iter
    (fun key tuple ->
      match Vmap.find_opt key sb with
      | Some other when Tuple.equal other tuple -> ()
      | _ -> pos tuple)
    sa;
  Vmap.iter
    (fun key tuple ->
      match Vmap.find_opt key sa with
      | Some other when Tuple.equal other tuple -> ()
      | _ -> neg tuple)
    sb

let changes_since t b base =
  let cur = head_state t b in
  let tbl : (Value.t, Merge_driver.side_change) Hashtbl.t =
    Hashtbl.create 64
  in
  Vmap.iter
    (fun key tuple ->
      match Vmap.find_opt key base with
      | Some old when Tuple.equal old tuple -> ()
      | old -> Hashtbl.replace tbl key { Merge_driver.state = Some tuple; base = old })
    cur;
  Vmap.iter
    (fun key tuple ->
      if not (Vmap.mem key cur) then
        Hashtbl.replace tbl key
          { Merge_driver.state = None; base = Some tuple })
    base;
  tbl

let merge ?ctx t ~into ~from ~policy ~message =
  let check () =
    match ctx with
    | Some c -> Decibel_governor.Governor.Ctx.check c
    | None -> ()
  in
  let v_ours = Vg.head t.graph into and v_theirs = Vg.head t.graph from in
  let lca = Vg.lca t.graph v_ours v_theirs in
  let base = snapshot t lca in
  check ();
  let ours = changes_since t into base in
  let theirs = changes_since t from base in
  check ();
  let decisions, stats = Merge_driver.decide ~policy ~ours ~theirs in
  let st = ref (head_state t into) in
  List.iter
    (fun (d : Merge_driver.decision) ->
      match d.Merge_driver.changed_in with
      | `Ours -> ()
      | `Theirs | `Both -> (
          match d.Merge_driver.final with
          | None -> st := Vmap.remove d.Merge_driver.d_key !st
          | Some tuple -> st := Vmap.add d.Merge_driver.d_key tuple !st))
    decisions;
  set_head t into !st;
  let vid = Vg.merge_commit t.graph ~into ~theirs:v_theirs ~message in
  Hashtbl.replace t.snapshots vid !st;
  {
    merge_version = vid;
    conflicts = Merge_driver.conflicts_of decisions;
    keys_ours = stats.Merge_driver.n_ours;
    keys_theirs = stats.Merge_driver.n_theirs;
    keys_both = stats.Merge_driver.n_both;
  }

let dataset_bytes _ = 0
let commit_meta_bytes _ = 0

(* The oracle stores full states, so nothing is ever dead and there are
   no segments or delta chains to report. *)
let storage_report t =
  let module R = Decibel_obs.Report in
  let branches =
    List.map
      (fun (br : Vg.branch) ->
        {
          R.br_name = br.Vg.name;
          br_id = br.Vg.bid;
          br_head = br.Vg.head;
          br_active = br.Vg.active;
          br_live_tuples = Vmap.cardinal (head_state t br.Vg.bid);
          br_dead_tuples = 0;
          br_bitmap_bits = 0;
          br_density = 0.0;
          br_segments = 0;
          br_delta_chain = 0;
          br_delta_bytes = 0;
        })
      (Vg.branches t.graph)
  in
  {
    R.e_branches = branches;
    e_segments = [];
    e_columns = [];
    e_history =
      { R.empty_history with h_commits = Hashtbl.length t.snapshots };
  }
let wal_marker t = t.wal_marker
let set_wal_marker t lsn = t.wal_marker <- lsn

(* purely in-memory: nothing to compact, no files to reference *)
let plan_maintenance _ ~kind:_ ~target:_ = None
let referenced_files _ = []

(* nothing on disk: always clean, and a crash loses everything *)
let verify _ = []
let crash _ = ()
let flush _ = ()
let close _ = ()
