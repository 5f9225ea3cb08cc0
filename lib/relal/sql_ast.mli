(** Abstract syntax for the SQL subset the personalization framework
    manipulates.

    The fragment covers exactly what the paper needs (§6): SPJ queries
    whose qualification combines atomic selection and join conditions with
    AND/OR, [SELECT DISTINCT], derived tables built from [UNION ALL],
    [GROUP BY] / [HAVING] with aggregates (including the paper's
    [DEGREE_OF_CONJUNCTION]), [ORDER BY], and [LIMIT] (the semantic
    probe's LIMIT 1, a §8 extension).  Construction helpers keep client code — notably the
    SQ/MQ integration step — short and readable. *)

type attr = { tv : string; col : string }
(** A tuple-variable-qualified attribute, e.g. [MV.title]. *)

type table_ref = { rel : string; alias : string }
(** [FROM rel alias].  When no alias is written, [alias = rel]. *)

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type scalar = S_attr of attr | S_const of Value.t

type pred =
  | P_true
  | P_false
  | P_cmp of cmp_op * scalar * scalar
  | P_and of pred list
  | P_or of pred list
  | P_not of pred

type agg =
  | A_count_star  (** [count( * )] *)
  | A_count of attr
  | A_sum of attr
  | A_min of attr
  | A_max of attr
  | A_avg of attr
  | A_doi_conj of attr * attr
      (** [DEGREE_OF_CONJUNCTION(doi_col, pref_col)] — the paper's
          user-defined aggregate: over a group, deduplicate by the
          preference-identifier column and combine the degree column with
          the conjunctive function 1 − Π(1−dᵢ). *)

type select_item =
  | Sel_attr of attr * string option  (** column, optional AS alias *)
  | Sel_const of Value.t * string  (** literal with mandatory alias *)
  | Sel_agg of agg * string  (** aggregate with mandatory alias *)

type hscalar = H_agg of agg | H_const of Value.t

type having =
  | H_cmp of cmp_op * hscalar * hscalar
  | H_and of having list
  | H_or of having list

type order_key = O_attr of attr | O_alias of string | O_agg of agg

type dir = Asc | Desc

type query = {
  distinct : bool;
  select : select_item list;
  from : from_item list;
  where : pred;
  group_by : attr list;
  having : having option;
  order_by : (order_key * dir) list;
  limit : int option;
}

and from_item =
  | F_rel of table_ref
  | F_derived of compound * string  (** [(…) alias] *)

and compound = C_single of query | C_union_all of compound list

(** {1 Constructors} *)

val attr : string -> string -> attr
(** [attr "MV" "title"], lower-casing both parts. *)

val tref : ?alias:string -> string -> table_ref

val eq : scalar -> scalar -> pred
val col : string -> string -> scalar
val const : Value.t -> scalar
val str : string -> scalar
val int : int -> scalar

val conj : pred list -> pred
(** Flattening conjunction: drops [P_true], collapses to [P_false] when
    any member is, returns the single member unwrapped. *)

val disj : pred list -> pred
(** Dual of {!conj}. *)

val simple :
  ?distinct:bool ->
  select:select_item list ->
  from:from_item list ->
  where:pred ->
  unit ->
  query
(** SPJ query with no grouping/ordering. *)

val query :
  ?distinct:bool ->
  ?group_by:attr list ->
  ?having:having ->
  ?order_by:(order_key * dir) list ->
  ?limit:int ->
  select:select_item list ->
  from:from_item list ->
  where:pred ->
  unit ->
  query

(** {1 Observations} *)

val equal_attr : attr -> attr -> bool

val conjuncts : pred -> pred list
(** Top-level conjunctive factors ([P_and] flattened; anything else is a
    single factor). *)

val select_output_names : query -> string list
(** Output column names, in order (alias if given, else the column). *)
