(** The catalog: a named collection of tables plus the foreign keys that
    connect them.

    The personalization graph (paper §3.1) is derived from this catalog:
    relation/attribute nodes come from the schemas, and the candidate join
    edges come from the registered foreign keys (plus any extra joins a
    designer declares).  The catalog also answers the {e to-one / to-many}
    question for a join direction, which drives conflict detection. *)

type t

val create : unit -> t

type extension = ..
(** State a layer above the catalog keeps per database (the profile
    store's revisions, hooks and durable backend), declared there by
    extending this type so the catalog stays agnostic of it. *)

val extension : t -> extension option Atomic.t
(** The database's one extension slot, [None] until an owner fills it
    (by compare-and-set, so racing owners agree on one value).  Its
    lifetime is the database's: nothing outside the database pins it. *)

val add_table : t -> Schema.t -> unit
(** Register an empty table.  @raise Invalid_argument if a table with the
    same (case-insensitive) name already exists. *)

val add_fk :
  t -> from_:string * string -> to_:string * string -> unit
(** [add_fk db ~from_:(t1,c1) ~to_:(t2,c2)] declares the foreign key
    [t1.c1 -> t2.c2].  @raise Invalid_argument on unknown tables/columns
    or incompatible column types. *)

val remove_table : t -> string -> unit
(** Drop the named table, and the foreign keys naming it, from the
    catalog; a no-op when there is none. *)

val table : t -> string -> Table.t
(** @raise Not_found if absent. *)

val find_table : t -> string -> Table.t option

val mem_table : t -> string -> bool

val tables : t -> Table.t list
(** All tables, in registration order. *)

val fks : t -> Schema.fk list
(** All foreign keys, in registration order. *)

val insert : t -> string -> Value.t list -> unit
(** [insert db tname row] appends into the named table. *)

val join_is_to_one : t -> from_:string * string -> to_:string * string -> bool
(** [join_is_to_one db ~from_:(t1,c1) ~to_:(t2,c2)]: does each [t1] row
    match at most one [t2] row through [t1.c1 = t2.c2]?  True exactly when
    [c2] is unique in [t2] (single-column primary key or unique
    constraint).  E.g. in the movie schema, PLAY.mid=MOVIE.mid is to-one
    while MOVIE.mid=GENRE.mid is to-many. *)

val index_fk_columns : t -> unit
(** Build hash indexes on both ends of every registered foreign key —
    the access paths personalized queries exercise. *)

val index_all_columns : t -> unit
(** Build hash indexes on every column of every table.  Preference
    selections land on arbitrary describable attributes (genre names,
    regions, years), so a fully indexed database gives the executor the
    output-proportional access paths a production system would have. *)

val pp_summary : Format.formatter -> t -> unit
(** Table names with cardinalities, one per line. *)
