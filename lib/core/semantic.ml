open Relal

let probe_query db qg path =
  match Integrate.instantiate db qg [ path ] with
  | [ inst ] ->
      (* Relatedness is satisfiability of the qualification alone: one
         row answers it, and Q's grouping takes no part. *)
      {
        (Integrate.partial
           ~select:[ Sql_ast.Sel_const (Value.Int 1, "probe") ]
           ~limit:1 qg ~mandatory:[] inst)
        with
        Sql_ast.distinct = false;
        group_by = [];
        having = None;
      }
  | _ -> assert false

let instance_related db qg path =
  let q = probe_query db qg path in
  match Engine.run_query db q with
  | { Exec.rows = []; _ } -> false
  | _ -> true
  | exception Exec.Exec_error _ -> false
