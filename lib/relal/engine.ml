let run_query ?gov db q = Exec.run ?gov db (Binder.bind db q)

let run_sql ?gov db sql = run_query ?gov db (Sql_parser.parse sql)
