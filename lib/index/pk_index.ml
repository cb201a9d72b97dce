open Decibel_storage

module M = Map.Make (Value)

(* One persistent map per branch: a child starts as its parent's map
   and shares every node until its own writes path-copy the ones they
   touch. *)
type 'a t = { mutable maps : 'a M.t array; mutable n : int }

let create () = { maps = Array.make 4 M.empty; n = 0 }

let branch_count t = t.n

let check t b =
  if b < 0 || b >= t.n then
    invalid_arg (Printf.sprintf "Pk_index: unknown branch %d" b)

let add_branch t ~from =
  let m =
    match from with
    | None -> M.empty
    | Some parent ->
        check t parent;
        t.maps.(parent)
  in
  if t.n = Array.length t.maps then begin
    let a = Array.make (2 * t.n) M.empty in
    Array.blit t.maps 0 a 0 t.n;
    t.maps <- a
  end;
  t.maps.(t.n) <- m;
  t.n <- t.n + 1;
  t.n - 1

let find t ~branch k =
  check t branch;
  M.find_opt k t.maps.(branch)

let set t ~branch k v =
  check t branch;
  t.maps.(branch) <- M.add k v t.maps.(branch)

let remove t ~branch k =
  check t branch;
  t.maps.(branch) <- M.remove k t.maps.(branch)

let mem t ~branch k =
  check t branch;
  M.mem k t.maps.(branch)

let iter t ~branch f =
  check t branch;
  M.iter f t.maps.(branch)

let cardinal t ~branch =
  check t branch;
  M.cardinal t.maps.(branch)
