(** A CREATE TABLE subset, so databases can be described in plain text
    files rather than OCaml code.

    Grammar (case-insensitive, [--] comments to end of line):
    {v
    create table movie (
      mid int primary key,
      title string,
      year int
    );
    create table genre (
      mid int references movie(mid),
      genre string,
      primary key (mid, genre)
    );
    create index on movie (year);
    create index on genre (genre);
    v}
    Column types: [int], [float], [string], [bool], [date].  Column
    constraints: [primary key], [unique], [references table(column)].
    A table-level [primary key (c1, c2, …)] declares a composite key.

    [create index on table (column)] declares a hash index on one
    column.  The table may be declared later in the script; an unknown
    table or column is a {!Ddl_error}, and declaring the same index twice
    declares it once.  Dumps ({!Csv.save_db}) write one such line per
    indexed column after the tables, so a reload gets the saved
    catalog's access paths back.  A script without index lines declares
    none; the dump loader still indexes foreign-key columns.

    [references] clauses both register a foreign key and (through the
    referenced column's uniqueness) determine the to-one/to-many
    direction information the personalization layer depends on. *)

exception Ddl_error of string

val parse : string -> Database.t
(** Parse a schema script into a fresh catalog (tables empty, declared
    indexes built on them).
    @raise Ddl_error on syntax errors, unknown types, references to
    undeclared tables/columns, index declarations on unknown tables or
    columns, or duplicate table or column declarations (a repeated
    index declaration is not an error). *)

val parse_deferred : string -> Database.t * (string * string) list
(** {!parse} without building the declared indexes: the catalog and its
    [(table, column)] index declarations, deduplicated, in declaration
    order — so a loader builds each index once, after the rows are in.
    @raise Ddl_error as {!parse}. *)

val to_string : Database.t -> string
(** Render a catalog back to DDL text: the [create table] statements,
    then one [create index] per indexed column ({!Table.indexed_columns}).
    [parse (to_string db)] declares the same tables, keys, foreign keys
    and indexes. *)
