open Decibel_util

type col_type = T_int | T_str

type column = { col_name : string; col_type : col_type }

type t = { name : string; columns : column array; pk : int }

let make ~name ~columns ~pk =
  if columns = [] then invalid_arg "Schema.make: no columns";
  let arr = Array.of_list columns in
  let names = Array.map (fun c -> c.col_name) arr in
  let module S = Set.Make (String) in
  if S.cardinal (S.of_list (Array.to_list names)) <> Array.length names then
    invalid_arg "Schema.make: duplicate column names";
  let pk_idx =
    match Array.find_index (fun c -> c.col_name = pk) arr with
    | Some i -> i
    | None -> invalid_arg ("Schema.make: unknown pk column " ^ pk)
  in
  { name; columns = arr; pk = pk_idx }

let name t = t.name
let columns t = t.columns
let arity t = Array.length t.columns
let pk_index t = t.pk

let column_index t n =
  match Array.find_index (fun c -> c.col_name = n) t.columns with
  | Some i -> i
  | None -> raise Not_found

let validate t tuple =
  if Array.length tuple <> arity t then
    Error
      (Printf.sprintf "arity mismatch: expected %d fields, got %d" (arity t)
         (Array.length tuple))
  else
    let bad = ref None in
    Array.iteri
      (fun i (v : Value.t) ->
        if !bad = None then
          match v, t.columns.(i).col_type with
          | Value.Int _, T_int | Value.Str _, T_str -> ()
          | _ ->
              bad :=
                Some
                  (Printf.sprintf "column %s: expected %s, got %s"
                     t.columns.(i).col_name
                     (match t.columns.(i).col_type with
                     | T_int -> "int"
                     | T_str -> "str")
                     (Value.type_name v)))
      tuple;
    match !bad with None -> Ok () | Some msg -> Error msg

let ints ~name ~width =
  if width < 1 then invalid_arg "Schema.ints: width must be >= 1";
  let columns =
    List.init width (fun i ->
        { col_name = Printf.sprintf "c%d" i; col_type = T_int })
  in
  make ~name ~columns ~pk:"c0"

let serialize buf t =
  Binio.write_string buf t.name;
  Binio.write_varint buf t.pk;
  Binio.write_varint buf (Array.length t.columns);
  Array.iter
    (fun c ->
      Binio.write_string buf c.col_name;
      Binio.write_u8 buf (match c.col_type with T_int -> 0 | T_str -> 1))
    t.columns

let deserialize s pos =
  let name = Binio.read_string s pos in
  let pk = Binio.read_varint s pos in
  let n = Binio.read_varint s pos in
  (* every column takes at least two bytes *)
  if pk < 0 || pk >= n || n > String.length s - !pos then
    raise (Binio.Corrupt "Schema: bad column count or key index");
  let columns =
    Array.init n (fun _ ->
        let col_name = Binio.read_string s pos in
        let col_type =
          match Binio.read_u8 s pos with
          | 0 -> T_int
          | 1 -> T_str
          | t ->
              raise
                (Binio.Corrupt (Printf.sprintf "Schema: bad column type %d" t))
        in
        { col_name; col_type })
  in
  { name; columns; pk }

let equal a b =
  a.name = b.name && a.pk = b.pk && a.columns = b.columns

let pp fmt t =
  Format.fprintf fmt "%s(" t.name;
  Array.iteri
    (fun i c ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%s:%s%s" c.col_name
        (match c.col_type with T_int -> "int" | T_str -> "str")
        (if i = t.pk then "*" else ""))
    t.columns;
  Format.fprintf fmt ")"
