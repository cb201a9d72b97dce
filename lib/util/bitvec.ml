(* Bits are stored little-endian within 64-bit words backed by Bytes, so
   bulk operations (union/xor/popcount) work a word at a time. The byte
   buffer length is always a multiple of 8. *)

type t = { mutable data : Bytes.t; mutable len : int }

let words_for_bits bits = (bits + 63) / 64

let create ?(capacity = 64) () =
  let w = max 1 (words_for_bits capacity) in
  { data = Bytes.make (w * 8) '\000'; len = 0 }

let length t = t.len

let word_count t = Bytes.length t.data / 8

let get_word t i = Bytes.get_int64_le t.data (i * 8)
let set_word t i v = Bytes.set_int64_le t.data (i * 8) v

(* Grow the backing store so that bit index [i] is addressable. Doubles
   to amortize, as the paper prescribes for bitmap expansion (§3.2). *)
let ensure t i =
  let needed = words_for_bits (i + 1) in
  if needed > word_count t then begin
    let new_words = max needed (2 * word_count t) in
    let data = Bytes.make (new_words * 8) '\000' in
    Bytes.blit t.data 0 data 0 (Bytes.length t.data);
    t.data <- data
  end;
  if i >= t.len then t.len <- i + 1

let check_index i =
  if i < 0 then invalid_arg "Bitvec: negative index"

let get t i =
  check_index i;
  if i >= t.len then false
  else
    let w = get_word t (i / 64) in
    Int64.logand (Int64.shift_right_logical w (i mod 64)) 1L = 1L

let set t i =
  check_index i;
  ensure t i;
  let wi = i / 64 in
  set_word t wi (Int64.logor (get_word t wi) (Int64.shift_left 1L (i mod 64)))

let clear t i =
  check_index i;
  ensure t i;
  let wi = i / 64 in
  set_word t wi
    (Int64.logand (get_word t wi)
       (Int64.lognot (Int64.shift_left 1L (i mod 64))))

let assign t i b = if b then set t i else clear t i

let copy t = { data = Bytes.copy t.data; len = t.len }

let used_words t = words_for_bits t.len

let pop_count_word w =
  (* 64-bit popcount via two 32-bit popcounts on the tagged-int-safe
     halves. *)
  let low = Int64.to_int (Int64.logand w 0xFFFFFFFFL) in
  let high = Int64.to_int (Int64.shift_right_logical w 32) in
  let pop32 x =
    let x = x - ((x lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    let x = (x + (x lsr 4)) land 0x0F0F0F0F in
    (* the byte-summing multiply must truncate to 32 bits as it would
       in C's uint32 arithmetic *)
    (x * 0x01010101 land 0xFFFFFFFF) lsr 24
  in
  pop32 low + pop32 high

let pop_count t =
  let n = used_words t in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + pop_count_word (get_word t i)
  done;
  !acc

let is_empty t =
  let n = used_words t in
  let rec loop i = i >= n || (get_word t i = 0L && loop (i + 1)) in
  loop 0

let equal a b =
  let na = used_words a and nb = used_words b in
  let n = max na nb in
  let word v i = if i < used_words v then get_word v i else 0L in
  let rec loop i = i >= n || (word a i = word b i && loop (i + 1)) in
  loop 0

let binop f a b =
  let len = max a.len b.len in
  let r = create ~capacity:(max 64 len) () in
  r.len <- len;
  let n = words_for_bits len in
  let word v i = if i < used_words v then get_word v i else 0L in
  for i = 0 to n - 1 do
    set_word r i (f (word a i) (word b i))
  done;
  r

let union a b = binop Int64.logor a b
let inter a b = binop Int64.logand a b
let xor a b = binop Int64.logxor a b
let diff a b = binop (fun x y -> Int64.logand x (Int64.lognot y)) a b

let union_in_place dst src =
  if src.len > dst.len then ensure dst (src.len - 1);
  let n = used_words src in
  for i = 0 to n - 1 do
    set_word dst i (Int64.logor (get_word dst i) (get_word src i))
  done

let inter_in_place dst src =
  (* dst.len is unchanged: bits of dst beyond src's words are ANDed
     with implicit zeros, so any dst words past src's used words must
     be cleared explicitly. *)
  let nd = used_words dst and ns = used_words src in
  for i = 0 to min nd ns - 1 do
    set_word dst i (Int64.logand (get_word dst i) (get_word src i))
  done;
  for i = ns to nd - 1 do
    set_word dst i 0L
  done

let diff_in_place dst src =
  (* bits of dst beyond src's words subtract implicit zeros: unchanged *)
  let n = min (used_words dst) (used_words src) in
  for i = 0 to n - 1 do
    set_word dst i (Int64.logand (get_word dst i) (Int64.lognot (get_word src i)))
  done

let xor_in_place dst src =
  if src.len > dst.len then ensure dst (src.len - 1);
  let n = used_words src in
  for i = 0 to n - 1 do
    set_word dst i (Int64.logxor (get_word dst i) (get_word src i))
  done

let copy_into ~src ~dst =
  let bytes = used_words src * 8 in
  if bytes > Bytes.length dst.data then
    dst.data <- Bytes.make (max bytes (2 * Bytes.length dst.data)) '\000'
  else
    (* clear the tail so stale dst words past src's extent vanish *)
    Bytes.fill dst.data bytes (Bytes.length dst.data - bytes) '\000';
  Bytes.blit src.data 0 dst.data 0 bytes;
  dst.len <- src.len

(* Branchless count-trailing-zeros of a 64-bit word with exactly one
   set bit, via de Bruijn multiplication: an isolated bit [1 lsl k]
   shifts the de Bruijn sequence so its top 6 bits index a lookup
   table mapping back to [k]. *)
let debruijn_mul = 0x03f79d71b4cb0a89L

let debruijn_tbl =
  [| 0; 1; 48; 2; 57; 49; 28; 3; 61; 58; 50; 42; 38; 29; 17; 4;
     62; 55; 59; 36; 53; 51; 43; 22; 45; 39; 33; 30; 24; 18; 12; 5;
     63; 47; 56; 27; 60; 41; 37; 16; 54; 35; 52; 21; 44; 32; 23; 11;
     46; 26; 40; 15; 34; 20; 31; 10; 25; 14; 19; 9; 13; 8; 7; 6 |]

let ctz_isolated low =
  debruijn_tbl.(Int64.to_int
                  (Int64.shift_right_logical (Int64.mul low debruijn_mul) 58)
                land 63)

(* Iterate the set bits of word [w] (word index [wi]), bounded by
   [limit] (the bitvector length). *)
let iter_word f wi limit w =
  let w = ref w in
  while !w <> 0L do
    let low = Int64.logand !w (Int64.neg !w) in
    let idx = (wi * 64) + ctz_isolated low in
    if idx < limit then f idx;
    (* strip lowest set bit *)
    w := Int64.logand !w (Int64.sub !w 1L)
  done

let iter_set f t =
  let n = used_words t in
  for wi = 0 to n - 1 do
    iter_word f wi t.len (get_word t wi)
  done

let iter_set_range f t ~lo ~hi =
  let lo = max 0 lo and hi = min hi t.len in
  if lo < hi then begin
    let wlo = lo / 64 and whi = (hi - 1) / 64 in
    for wi = wlo to min whi (used_words t - 1) do
      let w = ref (get_word t wi) in
      if wi = wlo && lo mod 64 > 0 then
        w := Int64.logand !w (Int64.shift_left Int64.minus_one (lo mod 64));
      if wi = whi && hi mod 64 > 0 then
        w :=
          Int64.logand !w
            (Int64.shift_right_logical Int64.minus_one (64 - (hi mod 64)));
      iter_word f wi t.len !w
    done
  end

let any_in_range t ~lo ~hi =
  let lo = max 0 lo and hi = min hi t.len in
  if lo >= hi then false
  else begin
    let wlo = lo / 64 and whi = (hi - 1) / 64 in
    let wmax = min whi (used_words t - 1) in
    let found = ref false in
    let wi = ref wlo in
    while (not !found) && !wi <= wmax do
      let w = ref (get_word t !wi) in
      if !wi = wlo && lo mod 64 > 0 then
        w := Int64.logand !w (Int64.shift_left Int64.minus_one (lo mod 64));
      if !wi = whi && hi mod 64 > 0 then
        w :=
          Int64.logand !w
            (Int64.shift_right_logical Int64.minus_one (64 - (hi mod 64)));
      if !w <> 0L then found := true;
      incr wi
    done;
    !found
  end

let fold_set f init t =
  let acc = ref init in
  iter_set (fun i -> acc := f !acc i) t;
  !acc

let to_list t = List.rev (fold_set (fun acc i -> i :: acc) [] t)

let of_list l =
  let t = create () in
  List.iter (fun i -> set t i) l;
  t

let next_set t i =
  check_index i;
  let n = used_words t in
  let rec scan wi mask =
    if wi >= n then None
    else
      let w = Int64.logand (get_word t wi) mask in
      if w = 0L then scan (wi + 1) Int64.minus_one
      else
        let bit = ctz_isolated (Int64.logand w (Int64.neg w)) in
        let idx = (wi * 64) + bit in
        if idx < t.len then Some idx else None
  in
  if i >= t.len then None
  else
    let wi = i / 64 in
    let mask =
      if i mod 64 = 0 then Int64.minus_one
      else Int64.shift_left Int64.minus_one (i mod 64)
    in
    scan wi mask

let serialize buf t =
  let n = used_words t in
  Buffer.add_int32_le buf (Int32.of_int t.len);
  for i = 0 to n - 1 do
    Buffer.add_int64_le buf (get_word t i)
  done

let deserialize s pos =
  if !pos < 0 || !pos > String.length s - 4 then
    raise (Binio.Corrupt "Bitvec: truncated length");
  let len = Int32.to_int (String.get_int32_le s !pos) in
  pos := !pos + 4;
  let n = words_for_bits len in
  if len < 0 || n > (String.length s - !pos) / 8 then
    raise (Binio.Corrupt (Printf.sprintf "Bitvec: %d bits overrun input" len));
  let t = create ~capacity:(max 64 len) () in
  t.len <- len;
  for i = 0 to n - 1 do
    set_word t i (String.get_int64_le s !pos);
    pos := !pos + 8
  done;
  t

let pp fmt t =
  Format.fprintf fmt "{";
  let first = ref true in
  iter_set
    (fun i ->
      if not !first then Format.fprintf fmt ", ";
      first := false;
      Format.fprintf fmt "%d" i)
    t;
  Format.fprintf fmt "}"
