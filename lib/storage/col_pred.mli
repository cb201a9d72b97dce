(** Structured column predicates ([column op literal] conjuncts).

    The data form of {!Query.column_pred}-style closures, so engines
    and the columnar segment reader can evaluate them on decoded
    batches (or dictionary codes) before materializing tuples. *)

type op = Eq | Ne | Lt | Le | Gt | Ge

val matches : op -> int -> bool
(** [matches op c] is the truth of [op] given three-way comparison
    result [c] (negative / zero / positive). *)

type t = { cp_col : int; cp_op : op; cp_value : Value.t }

val make : Schema.t -> column:string -> op -> Value.t -> t
(** Resolve a column name against the schema. Raises [Not_found] on an
    unknown column. *)

val of_index : int -> op -> Value.t -> t

val eval_tuple : t list -> Tuple.t -> bool
(** Row-wise fallback evaluation (conjunction), for engines without a
    batch path. *)

val pp : Format.formatter -> t -> unit
