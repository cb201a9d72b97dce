module Obs = Decibel_obs.Obs
module Gctx = Decibel_governor.Governor.Ctx

type key = int * int

type entry = { data : bytes; mutable referenced : bool }

type stats = { hits : int; misses : int; evictions : int; write_backs : int }

(* The pool is split into key-hashed shards, each with its own mutex,
   hashtable, clock ring and statistics, so page fetches from parallel
   scan workers neither race nor serialize on one lock.  A page lives
   in exactly one shard (its key hashes there), so per-shard clock
   eviction is still correct — the rings partition the pool. *)
type shard = {
  sm : Mutex.t;
  cap : int; (* this shard's slice of the page budget *)
  table : (key, entry) Hashtbl.t;
  ring : key array; (* clock ring; (-1,-1) marks a free slot *)
  mutable hand : int;
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = {
  page_size : int;
  capacity : int; (* total across shards *)
  shards : shard array;
  next_file : int Atomic.t;
  write_backs : int Atomic.t;
}

(* Process-wide registry mirrors of the per-pool statistics: every pool
   feeds the same named counters (metric naming: layer.operation.unit),
   so benchmark reports see I/O totals without holding pool handles.
   Hits and misses are the [Pages_hit]/[Pages_missed] cost kinds, whose
   counters [Obs.charge] bumps. *)
let c_evictions = Obs.counter "buffer_pool.evictions"
let c_reads = Obs.counter "buffer_pool.reads"
let c_writes = Obs.counter "buffer_pool.writes"
let c_write_backs = Obs.counter "buffer_pool.write_backs"

let no_key = (-1, -1)

let create ?(page_size = 65536) ?(capacity_pages = 1024) ?(shards = 8) () =
  if page_size <= 0 || capacity_pages <= 0 then
    invalid_arg "Buffer_pool.create: sizes must be positive";
  if shards <= 0 then invalid_arg "Buffer_pool.create: shards must be positive";
  let nshards = min shards capacity_pages in
  let base = capacity_pages / nshards and rem = capacity_pages mod nshards in
  {
    page_size;
    capacity = capacity_pages;
    shards =
      Array.init nshards (fun i ->
          let cap = base + if i < rem then 1 else 0 in
          {
            sm = Mutex.create ();
            cap;
            table = Hashtbl.create (cap * 2);
            ring = Array.make cap no_key;
            hand = 0;
            resident = 0;
            hits = 0;
            misses = 0;
            evictions = 0;
          });
    next_file = Atomic.make 0;
    write_backs = Atomic.make 0;
  }

let shard_of t ((file, page) : key) =
  (* Fibonacci-style mix so consecutive pages of one file spread
     across shards instead of hammering one. *)
  let h = (file * 0x9E3779B1) lxor (page * 0x85EBCA6B) in
  t.shards.((h land max_int) mod Array.length t.shards)

let with_shard s f =
  Mutex.lock s.sm;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.sm) f

let page_size t = t.page_size
let capacity_pages t = t.capacity

let resident_pages t =
  Array.fold_left
    (fun acc s -> acc + with_shard s (fun () -> s.resident))
    0 t.shards

let next_file_id t = Atomic.fetch_and_add t.next_file 1

let find t ~file ~page =
  Obs.incr c_reads;
  let s = shard_of t (file, page) in
  with_shard s (fun () ->
      match Hashtbl.find_opt s.table (file, page) with
      | Some e ->
          e.referenced <- true;
          s.hits <- s.hits + 1;
          Obs.charge Obs.Prof.Pages_hit 1;
          Some e.data
      | None ->
          s.misses <- s.misses + 1;
          Obs.charge Obs.Prof.Pages_missed 1;
          None)

(* Advance the clock hand until a victim with referenced=false is found,
   clearing reference bits along the way; bounded by 2 * shard capacity.
   Caller holds the shard mutex. *)
let evict_one s =
  let rec loop steps =
    if steps > 2 * s.cap then ()
    else begin
      let k = s.ring.(s.hand) in
      if k = no_key then begin
        s.hand <- (s.hand + 1) mod s.cap;
        loop (steps + 1)
      end
      else
        match Hashtbl.find_opt s.table k with
        | None ->
            s.ring.(s.hand) <- no_key;
            s.hand <- (s.hand + 1) mod s.cap
        | Some e ->
            if e.referenced then begin
              e.referenced <- false;
              s.hand <- (s.hand + 1) mod s.cap;
              loop (steps + 1)
            end
            else begin
              Hashtbl.remove s.table k;
              s.ring.(s.hand) <- no_key;
              s.resident <- s.resident - 1;
              s.evictions <- s.evictions + 1;
              Obs.incr c_evictions;
              s.hand <- (s.hand + 1) mod s.cap
            end
    end
  in
  loop 0

let add t ~file ~page data =
  let k = (file, page) in
  (* Page loads are the dominant transient allocation on read paths:
     charge them to the governed operation's byte budget (if any).
     [charge_current] never raises — a breach surfaces at the op's next
     poll point, so cache bookkeeping below cannot be torn. *)
  Gctx.charge_current (Bytes.length data);
  (* profile-attributed decode volume: every page materialized into
     the pool was read+decoded on behalf of the ambient request *)
  Obs.charge Obs.Prof.Bytes_decoded (Bytes.length data);
  Obs.incr c_writes;
  let s = shard_of t k in
  with_shard s (fun () ->
      (match Hashtbl.find_opt s.table k with
      | Some e ->
          (* refresh in place (a partial page grew) *)
          Hashtbl.replace s.table k { data; referenced = e.referenced }
      | None -> ());
      if not (Hashtbl.mem s.table k) then begin
        if s.resident >= s.cap then evict_one s;
        if s.resident < s.cap then begin
          Hashtbl.replace s.table k { data; referenced = true };
          (* place in a free ring slot starting from the hand *)
          let rec place i steps =
            if steps >= s.cap then ()
            else if s.ring.(i) = no_key then s.ring.(i) <- k
            else place ((i + 1) mod s.cap) (steps + 1)
          in
          place s.hand 0;
          s.resident <- s.resident + 1
        end
      end)

let note_write_back t =
  ignore (Atomic.fetch_and_add t.write_backs 1);
  Obs.incr c_write_backs

let invalidate_page t ~file ~page =
  let k = (file, page) in
  let s = shard_of t k in
  with_shard s (fun () ->
      if Hashtbl.mem s.table k then begin
        Hashtbl.remove s.table k;
        s.resident <- s.resident - 1;
        Array.iteri (fun i k' -> if k' = k then s.ring.(i) <- no_key) s.ring
      end)

let invalidate_matching t pred =
  Array.iter
    (fun s ->
      with_shard s (fun () ->
          let keys =
            Hashtbl.fold
              (fun k _ acc -> if pred k then k :: acc else acc)
              s.table []
          in
          List.iter (Hashtbl.remove s.table) keys;
          Array.iteri
            (fun i k -> if k <> no_key && pred k then s.ring.(i) <- no_key)
            s.ring;
          s.resident <- Hashtbl.length s.table))
    t.shards

let invalidate_from t ~file ~page =
  invalidate_matching t (fun (f, p) -> f = file && p >= page)

let invalidate_file t file = invalidate_matching t (fun (f, _) -> f = file)

let drop_all t =
  Array.iter
    (fun s ->
      with_shard s (fun () ->
          Hashtbl.reset s.table;
          Array.fill s.ring 0 (Array.length s.ring) no_key;
          s.resident <- 0;
          s.hand <- 0))
    t.shards

let stats t =
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  Array.iter
    (fun s ->
      with_shard s (fun () ->
          hits := !hits + s.hits;
          misses := !misses + s.misses;
          evictions := !evictions + s.evictions))
    t.shards;
  {
    hits = !hits;
    misses = !misses;
    evictions = !evictions;
    write_backs = Atomic.get t.write_backs;
  }

(* Resets this pool's instance statistics only: the registry counters
   are process-wide and monotonic (use Obs.reset to clear those). *)
let reset_stats t =
  Array.iter
    (fun s ->
      with_shard s (fun () ->
          s.hits <- 0;
          s.misses <- 0;
          s.evictions <- 0))
    t.shards;
  Atomic.set t.write_backs 0
