(** Pretty-printer producing SQL text for {!Sql_ast} values.

    Personalized queries are regular SQL statements a user (or the paper's
    Oracle backend) could read and execute; this module renders them.  The
    output re-parses to an equal AST via {!Sql_parser} (property-tested),
    modulo predicate-tree flattening performed by the smart constructors. *)

val attr_to_string : Sql_ast.attr -> string
val pred_to_string : Sql_ast.pred -> string
val agg_to_string : Sql_ast.agg -> string
val having_to_string : Sql_ast.having -> string

val query_to_string : Sql_ast.query -> string
(** Single-line rendering. *)

val query_to_key : Sql_ast.query -> string
(** Canonical single-line rendering used as the personalization plan
    cache's query-template component.  Apply it to a {e bound} AST so
    surface variation (whitespace, keyword case, implicit aliases)
    normalizes away and equal templates map to equal keys.  Currently
    identical to {!query_to_string}, but kept as a distinct entry point.

    Contract: the key of a given AST is byte-for-byte stable across
    releases.  A change to these bytes splits cache populations, so it
    must be a deliberate edit of the digest pinned in
    [test/test_golden.ml]; [query_to_string] may evolve for readability. *)

val query_to_pretty : Sql_ast.query -> string
(** Multi-line, indented rendering for human consumption (examples, CLI,
    EXPERIMENTS.md excerpts). *)
