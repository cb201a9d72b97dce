(** Plain-text tables and timing statistics for benchmark output. *)

let mean samples =
  match samples with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)

let std samples =
  match samples with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean samples in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 samples
        /. float_of_int (List.length samples - 1)
      in
      sqrt var

(* Nearest-rank percentile: the smallest sample with at least
   [q * n] samples at or below it. *)
let percentile samples q =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let ms x = x *. 1000.0

let fmt_ms samples =
  let m = ms (mean samples) in
  if m < 0.1 then Printf.sprintf "%.0f us" (m *. 1000.)
  else Printf.sprintf "%.1f ms" m

let fmt_ms_pm samples =
  let m = ms (mean samples) and s = ms (std samples) in
  if m < 0.1 then
    Printf.sprintf "%.0f +- %.0f us" (m *. 1000.) (s *. 1000.)
  else Printf.sprintf "%.1f +- %.1f ms" m s

let fmt_bytes b =
  if b >= 1 lsl 30 then Printf.sprintf "%.2f GB" (float_of_int b /. 1073741824.)
  else if b >= 1 lsl 20 then
    Printf.sprintf "%.2f MB" (float_of_int b /. 1048576.)
  else if b >= 1 lsl 10 then Printf.sprintf "%.1f KB" (float_of_int b /. 1024.)
  else Printf.sprintf "%d B" b

let fmt_mbps ~bytes ~seconds =
  if seconds <= 0.0 then "-"
  else Printf.sprintf "%.1f MB/s" (float_of_int bytes /. 1048576. /. seconds)

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt

(* aligned table printer *)
let table ~headers ~rows =
  let all = headers :: rows in
  let ncols = List.length headers in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let print_row row =
    let cells =
      List.mapi
        (fun i cell ->
          let w = List.nth widths i in
          cell ^ String.make (w - String.length cell) ' ')
        row
    in
    Printf.printf "  %s\n" (String.concat "  " cells)
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  flush stdout
