(** Relation schemas and integrity metadata.

    Besides the usual column/type/primary-key information, schemas carry
    the two pieces of metadata the personalization framework leans on:

    - {b foreign keys}, which induce the "natural" join edges of the
      personalization graph (paper §3.1);
    - {b uniqueness}, from which the engine derives whether a join edge is
      {e to-one} or {e to-many} in a given direction — the property that
      decides both syntactic conflicts (§5) and tuple-variable sharing
      (§6(b)). *)

type column = { cname : string; cty : Value.ty }

type t = private {
  tname : string;
  cols : column array;
  names : string array;  (** [cols]' names, lower-cased once at [make] *)
  key : string list;  (** primary key columns, possibly composite *)
  unique : string list;  (** additional single-column unique constraints *)
}

val make :
  name:string ->
  cols:(string * Value.ty) list ->
  ?key:string list ->
  ?unique:string list ->
  unit ->
  t
(** Build a schema.  @raise Invalid_argument on duplicate column names or
    key/unique columns that do not exist. *)

val name : t -> string
val columns : t -> column array
val arity : t -> int

val col_names : t -> string array
(** Column names, lower-cased, in column order: the names queries
    resolve against.  Shared, not copied: do not mutate. *)

val col_index : t -> string -> int option
(** Position of a column (case-insensitive), if present. *)

val col_type : t -> string -> Value.ty option

val mem_col : t -> string -> bool

val is_unique_col : t -> string -> bool
(** [is_unique_col s c]: does every value of [c] appear in at most one row
    — i.e. [c] is the whole primary key or carries a unique constraint?
    This is what makes a join {e to-one} towards this relation. *)

type fk = {
  from_table : string;
  from_col : string;
  to_table : string;
  to_col : string;
}
(** A foreign key [from_table.from_col -> to_table.to_col].  FKs are
    registered on the database (catalog), not on individual schemas. *)

val pp : Format.formatter -> t -> unit
(** [TABLE(col ty, ...; key: ...)] one-line rendering. *)
