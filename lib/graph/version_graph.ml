open Decibel_util

type version_id = int
type branch_id = int

let root_version = 0
let master = 0

type version = {
  id : version_id;
  parents : version_id list;
  on_branch : branch_id;
  message : string;
}

type branch = {
  bid : branch_id;
  name : string;
  base : version_id;
  mutable head : version_id;
  mutable active : bool;
}

type t = {
  mutable vers : version array; (* index = id; grown by doubling *)
  mutable nvers : int;
  mutable brs : branch array;
  mutable nbrs : int;
  by_name : (string, branch_id) Hashtbl.t;
}

let dummy_version = { id = -1; parents = []; on_branch = -1; message = "" }

let dummy_branch =
  { bid = -1; name = ""; base = -1; head = -1; active = false }

let create () =
  let root = { id = 0; parents = []; on_branch = 0; message = "init" } in
  let m = { bid = 0; name = "master"; base = 0; head = 0; active = true } in
  let by_name = Hashtbl.create 16 in
  Hashtbl.replace by_name "master" 0;
  let vers = Array.make 16 dummy_version in
  vers.(0) <- root;
  let brs = Array.make 8 dummy_branch in
  brs.(0) <- m;
  { vers; nvers = 1; brs; nbrs = 1; by_name }

let version t id =
  if id < 0 || id >= t.nvers then
    invalid_arg (Printf.sprintf "Version_graph.version: unknown id %d" id);
  t.vers.(id)

let mem_version t id = id >= 0 && id < t.nvers

let branch t bid =
  if bid < 0 || bid >= t.nbrs then
    invalid_arg (Printf.sprintf "Version_graph.branch: unknown branch %d" bid);
  t.brs.(bid)

let push_version t v =
  if t.nvers = Array.length t.vers then begin
    let a = Array.make (2 * t.nvers) dummy_version in
    Array.blit t.vers 0 a 0 t.nvers;
    t.vers <- a
  end;
  t.vers.(t.nvers) <- v;
  t.nvers <- t.nvers + 1

let push_branch t b =
  if t.nbrs = Array.length t.brs then begin
    let a = Array.make (2 * t.nbrs) dummy_branch in
    Array.blit t.brs 0 a 0 t.nbrs;
    t.brs <- a
  end;
  t.brs.(t.nbrs) <- b;
  t.nbrs <- t.nbrs + 1

let commit t bid ~message =
  let b = branch t bid in
  let v =
    { id = t.nvers; parents = [ b.head ]; on_branch = bid; message }
  in
  push_version t v;
  b.head <- v.id;
  v.id

let merge_commit t ~into ~theirs ~message =
  let b = branch t into in
  let _ = version t theirs in
  let v =
    { id = t.nvers; parents = [ b.head; theirs ]; on_branch = into; message }
  in
  push_version t v;
  b.head <- v.id;
  v.id

let create_branch t ~name ~from =
  if Hashtbl.mem t.by_name name then
    invalid_arg ("Version_graph.create_branch: name taken: " ^ name);
  let _ = version t from in
  let b =
    { bid = t.nbrs; name; base = from; head = from; active = true }
  in
  push_branch t b;
  Hashtbl.replace t.by_name name b.bid;
  b.bid

let retire t bid = (branch t bid).active <- false

let branch_by_name t name =
  Option.map (fun bid -> branch t bid) (Hashtbl.find_opt t.by_name name)

let branches t = List.init t.nbrs (fun i -> t.brs.(i))
let versions t = List.init t.nvers (fun i -> t.vers.(i))

let head t bid = (branch t bid).head

let heads t = List.init t.nbrs (fun i -> (i, t.brs.(i).head))

let is_head t vid = List.exists (fun (_, h) -> h = vid) (heads t)

let version_count t = t.nvers
let branch_count t = t.nbrs

(* Ids are topologically ordered (parents precede children), so one
   forward pass computes longest path and fan-out. *)
let depth t =
  let d = Array.make t.nvers 0 in
  let deepest = ref 0 in
  for i = 1 to t.nvers - 1 do
    List.iter (fun p -> if d.(p) + 1 > d.(i) then d.(i) <- d.(p) + 1)
      t.vers.(i).parents;
    if d.(i) > !deepest then deepest := d.(i)
  done;
  !deepest

let max_fanout t =
  let kids = Array.make t.nvers 0 in
  let widest = ref 0 in
  for i = 1 to t.nvers - 1 do
    List.iter
      (fun p ->
        kids.(p) <- kids.(p) + 1;
        if kids.(p) > !widest then widest := kids.(p))
      t.vers.(i).parents
  done;
  !widest

(* Ancestor traversal exploits id monotonicity: walk a max-priority
   worklist of pending ids; parents are always smaller, so visiting in
   descending id order touches each ancestor once. *)
let fold_ancestors t vid f init =
  let _ = version t vid in
  let seen = Bitvec.create ~capacity:t.nvers () in
  Bitvec.set seen vid;
  let acc = ref init in
  (* descending scan: a simple loop over a bitvec of pending nodes *)
  let i = ref vid in
  while !i >= 0 do
    if Bitvec.get seen !i then begin
      acc := f !acc !i;
      List.iter (fun p -> Bitvec.set seen p) t.vers.(!i).parents
    end;
    decr i
  done;
  !acc

let ancestors t vid = List.rev (fold_ancestors t vid (fun acc i -> i :: acc) [])

let is_ancestor t ~ancestor vid =
  ancestor <= vid
  && fold_ancestors t vid (fun acc i -> acc || i = ancestor) false

let lca t a b =
  let mark vid =
    let s = Bitvec.create ~capacity:t.nvers () in
    let _ = fold_ancestors t vid (fun () i -> Bitvec.set s i) () in
    s
  in
  let common = Bitvec.inter (mark a) (mark b) in
  (* greatest common ancestor id; the root is always common *)
  Bitvec.fold_set (fun acc i -> max acc i) 0 common

let lineage t vid =
  let _ = version t vid in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  (* Depth-first following parents in precedence order, emitting each
     version the first time it is reached.  First parents are the
     precedence winners, so a merge's dominant lineage is scanned before
     the subordinate one. *)
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      out := id :: !out;
      List.iter visit t.vers.(id).parents
    end
  in
  visit vid;
  List.rev !out

let serialize t =
  let buf = Buffer.create 1024 in
  Binio.write_varint buf t.nvers;
  for i = 0 to t.nvers - 1 do
    let v = t.vers.(i) in
    Binio.write_list (fun b p -> Binio.write_varint b p) buf v.parents;
    Binio.write_varint buf v.on_branch;
    Binio.write_string buf v.message
  done;
  Binio.write_varint buf t.nbrs;
  for i = 0 to t.nbrs - 1 do
    let b = t.brs.(i) in
    Binio.write_string buf b.name;
    Binio.write_varint buf b.base;
    Binio.write_varint buf b.head;
    Binio.write_u8 buf (if b.active then 1 else 0)
  done;
  Buffer.contents buf

(* Strict: every id must name an entry of the graph and parents an
   earlier version, so a decoded graph is acyclic and total. *)
let deserialize s =
  let pos = ref 0 in
  let corrupt what = raise (Binio.Corrupt ("Version_graph: " ^ what)) in
  let count () =
    let n = Binio.read_varint s pos in
    (* every entry takes at least three bytes *)
    if n < 0 || n > String.length s - !pos then corrupt "count overruns input";
    n
  in
  let nvers = count () in
  let vers =
    Array.init nvers (fun id ->
        let parents = Binio.read_list (fun s p -> Binio.read_varint s p) s pos in
        if List.exists (fun p -> p < 0 || p >= id) parents then
          corrupt "parent is not an earlier version";
        let on_branch = Binio.read_varint s pos in
        let message = Binio.read_string s pos in
        { id; parents; on_branch; message })
  in
  let nbrs = count () in
  let by_name = Hashtbl.create 16 in
  let brs =
    Array.init nbrs (fun bid ->
        let name = Binio.read_string s pos in
        let base = Binio.read_varint s pos in
        let head = Binio.read_varint s pos in
        if base < 0 || base >= nvers || head < 0 || head >= nvers then
          corrupt "branch names an unknown version";
        let active = Binio.read_u8 s pos = 1 in
        Hashtbl.replace by_name name bid;
        { bid; name; base; head; active })
  in
  if Array.exists (fun v -> v.on_branch < 0 || v.on_branch >= nbrs) vers then
    corrupt "version on an unknown branch";
  let t =
    {
      vers = (if nvers = 0 then Array.make 1 dummy_version else vers);
      nvers;
      brs = (if nbrs = 0 then Array.make 1 dummy_branch else brs);
      nbrs;
      by_name;
    }
  in
  t

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun v ->
      Format.fprintf fmt "v%d <- [%s] on b%d %s@,"
        v.id
        (String.concat "; " (List.map string_of_int v.parents))
        v.on_branch v.message)
    (versions t);
  List.iter
    (fun b ->
      Format.fprintf fmt "branch %d %S base=v%d head=v%d%s@," b.bid b.name
        b.base b.head
        (if b.active then "" else " (retired)"))
    (branches t);
  Format.fprintf fmt "@]"
