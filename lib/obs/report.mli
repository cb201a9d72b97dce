(** Storage introspection report — the [ANALYZE]-style structure behind
    [Database.storage_report] and [decibel inspect].

    The quantities here are the ones the paper's §5 evaluation turns
    on: live vs. dead tuples per branch, bitmap population density,
    commit-delta chain length and bytes (the recreation/storage
    tradeoff), version-graph shape, heap fragmentation and buffer-pool
    residency.  Engines fill in the storage-scheme-specific
    {!engine_part}; [Database] adds graph and pool facts.

    Reports are plain data: building one never mutates the store, and
    it works even while recording is disabled ([DECIBEL_OBS=0]). *)

type branch = {
  br_name : string;
  br_id : int;
  br_head : int;  (** head version id *)
  br_active : bool;
  br_live_tuples : int;  (** tuples visible at the branch head *)
  br_dead_tuples : int;  (** stored-but-invisible tuples in its extent *)
  br_bitmap_bits : int;  (** liveness bits kept for this branch (0 when
                             the scheme keeps none, e.g. version-first) *)
  br_density : float;  (** live / bits, [0.] when no bits *)
  br_segments : int;  (** storage units holding the branch's data *)
  br_delta_chain : int;  (** deltas (or segments) replayed to
                             materialize the head commit *)
  br_delta_bytes : int;  (** on-disk delta bytes attributed to the branch *)
}

type segment = {
  sg_id : int;
  sg_file : string;
  sg_bytes : int;
  sg_pages : int;
  sg_records : int;  (** physical records, live or not *)
  sg_live_records : int;  (** records live in at least one active branch *)
  sg_fragmentation : float;  (** 1 - live/records, [0.] when empty *)
}

type history = {
  h_files : int;
  h_bytes : int;
  h_commits : int;
  h_max_chain : int;
  h_mean_chain : float;
}

type graph = {
  g_versions : int;
  g_branches : int;
  g_active_branches : int;
  g_depth : int;  (** longest root-to-version parent chain, in edges *)
  g_max_fanout : int;  (** max children of any single version *)
}

type pool = {
  p_page_size : int;
  p_capacity_pages : int;
  p_resident_pages : int;
  p_hits : int;
  p_misses : int;
  p_evictions : int;
  p_write_backs : int;
}

type column = {
  co_name : string;
  co_encoding : string;  (** dominant block encoding, e.g. ["delta"],
                             ["dict"]; ["-"] when nothing is sealed *)
  co_raw_bytes : int;  (** pre-encoding byte volume across blocks *)
  co_enc_bytes : int;  (** encoded byte volume across blocks *)
}
(** Per-column encoding facts from columnar segments. *)

type engine_part = {
  e_branches : branch list;
  e_segments : segment list;
  e_columns : column list;
  e_history : history;
}
(** The storage-scheme-specific slice an engine contributes. *)

type t = {
  r_scheme : string;
  r_format : int;  (** segment format of the store: always 2 (columnar) *)
  r_dataset_bytes : int;
  r_commit_meta_bytes : int;
  r_branches : branch list;
  r_segments : segment list;
  r_columns : column list;
  r_history : history;
  r_graph : graph;
  r_pool : pool;
  r_health : string;  (** ["healthy"], or ["degraded: <reason>"] once
                          corruption flipped the store read-only *)
  r_quarantined : (string * string) list;
      (** [(branch name, corruption reason)] for quarantined branches *)
}

val empty_history : history

val compression_ratio : column -> float
(** [raw / enc], [0.] when nothing is encoded. *)

val density : live:int -> bits:int -> float
(** [live / bits], [0.] when [bits = 0]. *)

val fragmentation : live:int -> records:int -> float
(** [1 - live/records], [0.] when [records = 0]. *)

val chain_stats : int list -> int * float
(** [(max, mean)] of a chain-length list; [(0, 0.)] when empty. *)

val to_json : t -> string
(** The whole report as one JSON object. *)

val to_text : t -> string
(** Human-readable multi-line rendering for [decibel inspect]. *)
