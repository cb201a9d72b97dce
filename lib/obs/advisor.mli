(** Storage advisor: the measured recreation/storage tradeoff.

    Joins the per-branch workload table ({!Workload}) with the storage
    report ({!Report}) through a simple cost model and emits ranked,
    explained recommendations:

    - [Materialize]: a {e hot} branch (read rate above threshold) on a
      long delta chain pays [fragments/read x reads/s] in replay
      continuously — materializing trades that recurring cost for a
      one-time storage copy.  A cold branch stays on deltas: storage
      wins when the replay cost is never paid.
    - [Rechunk]: a cold branch whose chain has grown past the rechunk
      threshold — merge adjacent fragments to bound a future checkout's
      replay without paying full materialization.
    - [Gc]: a branch whose dead-tuple ratio crossed its threshold —
      reclaim the dead space.
    - [Compact]: a segment whose fragmentation (dead-record share)
      crossed its threshold — rewrite it, reclaiming
      [fragmentation x bytes].

    The module is pure (report + workload in, recommendations out), so
    policies are testable on synthetic inputs; [Database.advise] feeds
    it live data. *)

type kind = Materialize | Compact | Gc | Rechunk

val kind_name : kind -> string
(** ["materialize"], ["compact"], ["gc"], ["rechunk"]. *)

type recommendation = {
  rc_kind : kind;
  rc_target : string;  (** branch name, or segment file for [Compact] *)
  rc_score : float;  (** ranking key, higher = more urgent *)
  rc_benefit : float;  (** estimated benefit in [rc_unit] *)
  rc_unit : string;  (** ["fragments/s"], ["fragments"], ["tuples"], ["bytes"] *)
  rc_reason : string;  (** one-sentence explanation with the numbers *)
}

type thresholds = {
  th_chain_min : int;  (** delta chain depth before materialize triggers *)
  th_hot_read_rate : float;  (** reads/s above which a branch is hot *)
  th_rechunk_chain : int;  (** chain depth where even cold branches rechunk *)
  th_dead_ratio : float;  (** branch dead/(live+dead) ratio for GC *)
  th_min_dead_tuples : int;  (** don't GC trivia *)
  th_frag_min : float;  (** segment fragmentation ratio for compaction *)
  th_min_seg_bytes : int;  (** don't compact trivia *)
}

val default : thresholds

val advise :
  ?thresholds:thresholds ->
  report:Report.t ->
  workload:Workload.stats list ->
  unit ->
  recommendation list
(** Ranked recommendations, best first.  [workload] should already be
    filtered to the report's table — the join is by branch name. *)

val recommendation_json : recommendation -> string
val to_json : recommendation list -> string
val to_text : recommendation list -> string
