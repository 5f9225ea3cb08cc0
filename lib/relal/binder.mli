(** Name resolution and type checking.

    [bind db q] validates a parsed query against the catalog and returns a
    normalized query in which:
    - every bare attribute ([title]) is qualified with the unique tuple
      variable that provides it;
    - string literals compared against [date] columns are converted to
      [Value.Date] (accepting both ["YYYY-MM-DD"] and the paper's
      ["D/M/YYYY"]);
    - aggregate shorthand attributes (e.g. [DEGREE_OF_CONJUNCTION( * )])
      are resolved against the input columns.

    The executor ({!Exec}) requires its input to have passed this
    function.

    Binding is one walk over the query: each FROM item's environment is
    built once, and a derived table (MQ's UNION ALL of partial queries)
    is bound branch by branch, its columns read off the first bound
    branch and every other branch checked against them.  Column names
    come lower-cased from {!Schema.col_names}, not per use.  Binding a
    bound query returns it unchanged. *)

exception Bind_error of string

val bind : Database.t -> Sql_ast.query -> Sql_ast.query
(** @raise Bind_error with a human-readable message on any violation:
    unknown table/column/alias, duplicate alias, ambiguous bare column,
    incomparable types, non-grouped select column under GROUP BY, ORDER BY
    key that resolves to nothing, or mismatched UNION ALL branches. *)

val bind_pred_over : Database.t -> Sql_ast.table_ref list -> Sql_ast.pred -> Sql_ast.pred
(** [bind_pred_over db scope p] binds [p] over the tuple variables of
    [scope] as {!bind} binds a WHERE over its FROM: the same checks,
    the same date coercion, the same errors.  A query whose FROM and
    conditions are built from such predicates needs no second bind.
    @raise Bind_error as {!bind} does. *)
