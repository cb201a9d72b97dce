(** Tuple-oriented bitmap layout: all rows in one block of memory, each
    row holding [branch_capacity] contiguous bits (paper §3.1).  Reading
    one tuple's membership across branches is a single contiguous load,
    but growing past the branch capacity rewrites the entire bitmap —
    the expansion-and-copy cost the paper describes, amortized by
    capacity doubling. *)

open Decibel_util

type t = {
  mutable bits : Bitvec.t;
  mutable branch_capacity : int;
  mutable nbranches : int;
  mutable rows : int;
}

let layout = "tuple-oriented"

let initial_capacity = 8

let create () =
  {
    bits = Bitvec.create ();
    branch_capacity = initial_capacity;
    nbranches = 0;
    rows = 0;
  }

let branch_count t = t.nbranches
let row_count t = t.rows

let check_branch t b =
  if b < 0 || b >= t.nbranches then
    invalid_arg (Printf.sprintf "Tuple_bitmap: unknown branch %d" b)

let bit_index t ~branch ~row = (row * t.branch_capacity) + branch

(* Double the per-row branch capacity, copying every row's bits into
   the wider layout. *)
let grow_capacity t =
  let old_cap = t.branch_capacity in
  let new_cap = old_cap * 2 in
  let nb = Bitvec.create ~capacity:(max 64 (t.rows * new_cap)) () in
  for row = 0 to t.rows - 1 do
    for b = 0 to t.nbranches - 1 do
      if Bitvec.get t.bits ((row * old_cap) + b) then
        Bitvec.set nb ((row * new_cap) + b)
    done
  done;
  t.bits <- nb;
  t.branch_capacity <- new_cap

let add_branch t ~from =
  if t.nbranches = t.branch_capacity then grow_capacity t;
  let b = t.nbranches in
  t.nbranches <- b + 1;
  (match from with
  | None -> ()
  | Some parent ->
      check_branch t parent;
      for row = 0 to t.rows - 1 do
        if Bitvec.get t.bits (bit_index t ~branch:parent ~row) then
          Bitvec.set t.bits (bit_index t ~branch:b ~row)
      done);
  b

let ensure_row t row = if row >= t.rows then t.rows <- row + 1

let append_row t =
  let r = t.rows in
  t.rows <- r + 1;
  r

let set t ~branch ~row =
  check_branch t branch;
  ensure_row t row;
  Bitvec.set t.bits (bit_index t ~branch ~row)

let clear t ~branch ~row =
  check_branch t branch;
  ensure_row t row;
  Bitvec.clear t.bits (bit_index t ~branch ~row)

let get t ~branch ~row =
  check_branch t branch;
  Bitvec.get t.bits (bit_index t ~branch ~row)

(* Materializing a branch column walks the entire bitmap — the layout's
   penalty for single-branch operations (§3.2 “Single-branch Scan”). *)
let snapshot t ~branch =
  check_branch t branch;
  let col = Bitvec.create ~capacity:(max 64 t.rows) () in
  for row = 0 to t.rows - 1 do
    if Bitvec.get t.bits (bit_index t ~branch ~row) then Bitvec.set col row
  done;
  if t.rows > 0 then Bitvec.assign col (t.rows - 1) (get t ~branch ~row:(t.rows - 1));
  col

let column_view = snapshot

let overwrite_column t ~branch col =
  check_branch t branch;
  for row = 0 to max t.rows (Bitvec.length col) - 1 do
    ensure_row t row;
    Bitvec.assign t.bits (bit_index t ~branch ~row) (Bitvec.get col row)
  done

let row_membership t ~row =
  let acc = ref [] in
  for b = t.nbranches - 1 downto 0 do
    if Bitvec.get t.bits (bit_index t ~branch:b ~row) then acc := b :: !acc
  done;
  !acc

(* counts bits in place — no column materialization *)
let live_count t ~branch =
  check_branch t branch;
  let acc = ref 0 in
  for row = 0 to t.rows - 1 do
    if Bitvec.get t.bits (bit_index t ~branch ~row) then Stdlib.incr acc
  done;
  !acc

let density t ~branch =
  if t.rows = 0 then 0.0
  else float_of_int (live_count t ~branch) /. float_of_int t.rows

let memory_bytes t = (Bitvec.length t.bits + 7) / 8

let serialize buf t =
  Decibel_util.Binio.write_varint buf t.branch_capacity;
  Decibel_util.Binio.write_varint buf t.nbranches;
  Decibel_util.Binio.write_varint buf t.rows;
  Bitvec.serialize buf t.bits

let deserialize s pos =
  let branch_capacity = Decibel_util.Binio.read_varint s pos in
  let nbranches = Decibel_util.Binio.read_varint s pos in
  let rows = Decibel_util.Binio.read_varint s pos in
  if branch_capacity < 1 || nbranches < 0 || nbranches > branch_capacity
     || rows < 0
  then raise (Decibel_util.Binio.Corrupt "Tuple_bitmap: bad dimensions");
  let bits = Bitvec.deserialize s pos in
  { bits; branch_capacity; nbranches; rows }
