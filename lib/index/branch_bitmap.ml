(** Branch-oriented bitmap layout: one independently growable bit
    vector per branch, rows contiguous within a branch (paper §3.1).
    Expanding one branch never touches the others, and a single-branch
    scan walks one dense vector. *)

open Decibel_util

type t = {
  mutable columns : Bitvec.t array;
  mutable nbranches : int;
  mutable rows : int;
}

let layout = "branch-oriented"

let create () =
  { columns = Array.make 4 (Bitvec.create ()); nbranches = 0; rows = 0 }

let branch_count t = t.nbranches
let row_count t = t.rows

let check_branch t b =
  if b < 0 || b >= t.nbranches then
    invalid_arg (Printf.sprintf "Branch_bitmap: unknown branch %d" b)

let add_branch t ~from =
  let col =
    match from with
    | None -> Bitvec.create ~capacity:(max 64 t.rows) ()
    | Some parent ->
        check_branch t parent;
        Bitvec.copy t.columns.(parent)
  in
  if t.nbranches = Array.length t.columns then begin
    let a = Array.make (2 * t.nbranches) (Bitvec.create ()) in
    Array.blit t.columns 0 a 0 t.nbranches;
    t.columns <- a
  end;
  t.columns.(t.nbranches) <- col;
  t.nbranches <- t.nbranches + 1;
  t.nbranches - 1

let append_row t =
  let r = t.rows in
  t.rows <- r + 1;
  r

let set t ~branch ~row =
  check_branch t branch;
  if row >= t.rows then t.rows <- row + 1;
  Bitvec.set t.columns.(branch) row

let clear t ~branch ~row =
  check_branch t branch;
  if row >= t.rows then t.rows <- row + 1;
  Bitvec.clear t.columns.(branch) row

let get t ~branch ~row =
  check_branch t branch;
  Bitvec.get t.columns.(branch) row

let snapshot t ~branch =
  check_branch t branch;
  Bitvec.copy t.columns.(branch)

let column_view t ~branch =
  check_branch t branch;
  t.columns.(branch)

let overwrite_column t ~branch col =
  check_branch t branch;
  t.columns.(branch) <- Bitvec.copy col

let row_membership t ~row =
  let acc = ref [] in
  for b = t.nbranches - 1 downto 0 do
    if Bitvec.get t.columns.(b) row then acc := b :: !acc
  done;
  !acc

let live_count t ~branch =
  check_branch t branch;
  Bitvec.pop_count t.columns.(branch)

let density t ~branch =
  if t.rows = 0 then 0.0
  else float_of_int (live_count t ~branch) /. float_of_int t.rows

let memory_bytes t =
  let acc = ref 0 in
  for b = 0 to t.nbranches - 1 do
    acc := !acc + ((Bitvec.length t.columns.(b) + 7) / 8)
  done;
  !acc

let serialize buf t =
  Decibel_util.Binio.write_varint buf t.nbranches;
  Decibel_util.Binio.write_varint buf t.rows;
  for b = 0 to t.nbranches - 1 do
    Bitvec.serialize buf t.columns.(b)
  done

let deserialize s pos =
  let nbranches = Decibel_util.Binio.read_varint s pos in
  let rows = Decibel_util.Binio.read_varint s pos in
  if rows < 0 then
    raise (Decibel_util.Binio.Corrupt "Branch_bitmap: negative row count");
  let t = create () in
  for _ = 1 to nbranches do
    let col = Bitvec.deserialize s pos in
    let b = add_branch t ~from:None in
    t.columns.(b) <- col
  done;
  t.rows <- rows;
  t
