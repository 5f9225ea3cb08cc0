(** Convenience facade over the engine: parse → bind → execute.

    This is the entry point examples, the CLI and the personalization
    pipeline use when they hold SQL text or a raw AST rather than a
    pre-bound query. *)

val run_sql : ?gov:Governor.t -> Database.t -> string -> Exec.result
(** Parse, bind and evaluate a SQL string.  [?gov] arms a resource
    budget for the evaluation (see {!Exec.run}).
    @raise Sql_parser.Parse_error, @raise Sql_lexer.Lex_error,
    @raise Binder.Bind_error, @raise Exec.Exec_error,
    @raise Governor.Exhausted. *)

val run_query : ?gov:Governor.t -> Database.t -> Sql_ast.query -> Exec.result
(** Bind and evaluate an AST. *)
