open Sql_ast

exception Bind_error of string

let err fmt = Format.kasprintf (fun s -> raise (Bind_error s)) fmt

(* Environment: one entry per FROM item, in order.  [names] are the
   item's column names as a query spells them (a table's lower-cased
   names, a derived table's output names), [cols] their columns. *)
type env_entry = { alias : string; names : string array; cols : Schema.column array }
type env = env_entry list

let entry_col_ty (e : env_entry) col =
  let n = Array.length e.names in
  let rec go i =
    if i >= n then None
    else if String.equal e.names.(i) col then Some e.cols.(i).Schema.cty
    else go (i + 1)
  in
  go 0

let lookup_qualified env (a : attr) =
  match List.find_opt (fun e -> e.alias = a.tv) env with
  | None -> err "unknown tuple variable %s" a.tv
  | Some e -> (
      match entry_col_ty e a.col with
      | None -> err "tuple variable %s has no column %s" a.tv a.col
      | Some ty -> ty)

let resolve_attr env (a : attr) : attr * Value.ty =
  if a.tv <> "" then (a, lookup_qualified env a)
  else begin
    let hits =
      List.filter_map
        (fun e ->
          match entry_col_ty e a.col with
          | Some ty -> Some (e.alias, ty)
          | None -> None)
        env
    in
    match hits with
    | [ (alias, ty) ] -> ({ tv = alias; col = a.col }, ty)
    | [] -> err "column %s does not appear in any FROM item" a.col
    | _ -> err "column %s is ambiguous; qualify it" a.col
  end

(* Coerce a string literal to a date when compared against a date column. *)
let coerce_const ty v =
  match (ty, v) with
  | Value.TDate, Value.Str s -> (
      match Value.parse_date s with
      | Some d -> d
      | None -> err "string %S is not a valid date literal" s)
  | _ -> v

let check_cmp what lty rty =
  if not (Value.compatible lty rty) then
    err "%s compares %s with %s" what (Value.ty_name lty) (Value.ty_name rty)

let bind_scalar env = function
  | S_attr a ->
      let a, ty = resolve_attr env a in
      (S_attr a, Some ty)
  | S_const v -> (S_const v, Value.ty_of v)

let rec bind_pred env = function
  | P_true -> P_true
  | P_false -> P_false
  | P_not p -> P_not (bind_pred env p)
  | P_and ps -> P_and (List.map (bind_pred env) ps)
  | P_or ps -> P_or (List.map (bind_pred env) ps)
  | P_cmp (op, l, r) -> (
      let l, lty = bind_scalar env l in
      let r, rty = bind_scalar env r in
      match (lty, rty) with
      | Some lt, Some rt when Value.compatible lt rt -> P_cmp (op, l, r)
      | Some lt, Some rt -> (
          (* Try date coercion in either direction before failing. *)
          match (l, r) with
          | S_attr _, S_const v when lt = Value.TDate ->
              P_cmp (op, l, S_const (coerce_const lt v))
          | S_const v, S_attr _ when rt = Value.TDate ->
              P_cmp (op, S_const (coerce_const rt v), r)
          | _ ->
              check_cmp "predicate" lt rt;
              P_cmp (op, l, r))
      | _ -> P_cmp (op, l, r) (* NULL literal comparisons are permitted *))

let agg_attrs = function
  | A_count_star -> []
  | A_count a | A_sum a | A_min a | A_max a | A_avg a -> [ a ]
  | A_doi_conj (a, b) -> [ a; b ]

let rebuild_agg agg resolved =
  match (agg, resolved) with
  | A_count_star, [] -> A_count_star
  | A_count _, [ a ] -> A_count a
  | A_sum _, [ a ] -> A_sum a
  | A_min _, [ a ] -> A_min a
  | A_max _, [ a ] -> A_max a
  | A_avg _, [ a ] -> A_avg a
  | A_doi_conj _, [ a; b ] -> A_doi_conj (a, b)
  | _ -> assert false

let bind_agg env agg =
  let resolved =
    List.map
      (fun a ->
        let a, ty = resolve_attr env a in
        (match agg with
        | A_sum _ | A_avg _ ->
            if ty <> Value.TInt && ty <> Value.TFloat then
              err "aggregate over non-numeric column %s.%s" a.tv a.col
        | A_doi_conj _ -> ()
        | _ -> ());
        a)
      (agg_attrs agg)
  in
  rebuild_agg agg resolved

let agg_ty env = function
  | A_count_star | A_count _ -> Value.TInt
  | A_sum a -> lookup_qualified env a
  | A_min a | A_max a -> lookup_qualified env a
  | A_avg _ -> Value.TFloat
  | A_doi_conj _ -> Value.TFloat

let rec bind_having env = function
  | H_and hs -> H_and (List.map (bind_having env) hs)
  | H_or hs -> H_or (List.map (bind_having env) hs)
  | H_cmp (op, l, r) ->
      let bind_h = function
        | H_agg a -> H_agg (bind_agg env a)
        | H_const v -> H_const v
      in
      let l = bind_h l and r = bind_h r in
      let hty = function
        | H_agg a -> Some (agg_ty env a)
        | H_const v -> Value.ty_of v
      in
      (match (hty l, hty r) with
      | Some lt, Some rt -> check_cmp "HAVING" lt rt
      | _ -> ());
      H_cmp (op, l, r)

let has_aggregates q =
  List.exists (function Sel_agg _ -> true | _ -> false) q.select
  || q.having <> None

let rel_entry db (r : table_ref) =
  match Database.find_table db r.rel with
  | None -> err "unknown table %s" r.rel
  | Some t ->
      let s = Table.schema t in
      { alias = r.alias; names = Schema.col_names s; cols = Schema.columns s }

(* One pass: each FROM item's environment entry is built once, and a
   derived table's is read off its bound branches, which are bound here
   and nowhere else. *)
let rec bind_from db (from : from_item list) : env * from_item list =
  let bound =
    List.map
      (fun item ->
        match item with
        | F_rel r -> (rel_entry db r, item)
        | F_derived (c, alias) ->
            let c, out = bind_compound db c in
            let out = Array.of_list out in
            ( {
                alias;
                names = Array.map (fun c -> c.Schema.cname) out;
                cols = out;
              },
              F_derived (c, alias) ))
      from
  in
  (* Alias uniqueness. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (e, _) ->
      if Hashtbl.mem seen e.alias then err "duplicate tuple variable %s" e.alias;
      Hashtbl.add seen e.alias ())
    bound;
  List.split bound

(* A compound bound, with its output columns: the first branch's, which
   every other branch must match in arity and type. *)
and bind_compound db = function
  | C_single q ->
      let q, out = bind_query db q in
      (C_single q, out)
  | C_union_all [] -> err "empty UNION ALL"
  | C_union_all (c :: cs) ->
      let c, first = bind_compound db c in
      let cs =
        List.map
          (fun c' ->
            let c', s = bind_compound db c' in
            if List.length s <> List.length first then
              err "UNION ALL branches have different arities";
            List.iter2
              (fun c1 c2 ->
                if not (Value.compatible c1.Schema.cty c2.Schema.cty) then
                  err "UNION ALL branches have incompatible column types")
              first s;
            c')
          cs
      in
      (C_union_all (c :: cs), first)

(* A query bound, with its output columns in SELECT order. *)
and bind_query db (q : query) : query * Schema.column list =
  let env, from = bind_from db q.from in
  let select, out =
    List.split
      (List.map
         (fun item ->
           match item with
           | Sel_attr (a, alias) ->
               let a, ty = resolve_attr env a in
               ( Sel_attr (a, alias),
                 {
                   Schema.cname = (match alias with Some al -> al | None -> a.col);
                   cty = ty;
                 } )
           | Sel_const (v, alias) ->
               let ty = match Value.ty_of v with Some t -> t | None -> Value.TStr in
               (item, { Schema.cname = alias; cty = ty })
           | Sel_agg (agg, alias) ->
               let agg = bind_agg env agg in
               (Sel_agg (agg, alias), { Schema.cname = alias; cty = agg_ty env agg }))
         q.select)
  in
  let where = bind_pred env q.where in
  let group_by = List.map (fun a -> fst (resolve_attr env a)) q.group_by in
  let having = Option.map (bind_having env) q.having in
  (* Grouping discipline: under GROUP BY (or any aggregate), every plain
     selected column must be a grouping column. *)
  let grouped = group_by <> [] || has_aggregates q in
  if grouped then
    List.iter
      (function
        | Sel_attr (a, _) ->
            if not (List.exists (equal_attr a) group_by) then
              err "column %s.%s must appear in GROUP BY" a.tv a.col
        | _ -> ())
      select;
  (* ORDER BY resolution: alias must name an output column, attr must be
     either an output column or (when not grouped) any bound attr, agg
     must match a selected aggregate or be computable (grouped only). *)
  let out_names = select_output_names { q with select } in
  let order_by =
    List.map
      (fun (k, d) ->
        let k =
          match k with
          | O_alias s ->
              if List.mem s out_names then O_alias s
              else begin
                (* Maybe it is a bare column reference. *)
                let a, _ = resolve_attr env (attr "" s) in
                O_attr a
              end
          | O_attr a ->
              let a, _ = resolve_attr env a in
              O_attr a
          | O_agg agg ->
              if not grouped then err "ORDER BY aggregate in ungrouped query";
              O_agg (bind_agg env agg)
        in
        (k, d))
      q.order_by
  in
  (match q.limit with
  | Some n when n < 0 -> err "negative LIMIT"
  | _ -> ());
  ({ q with from; select; where; group_by; having; order_by }, out)

let bind db q = fst (bind_query db q)

(* Whether [bind_pred env p] would return [p] as it is: every attribute
   qualified and found in [env], every comparison between compatible
   types or against NULL.  It builds nothing but an option per
   attribute, so a predicate built bound costs one walk. *)
let rec attr_ty env (a : attr) =
  match env with
  | [] -> raise_notrace Exit
  | e :: rest -> if String.equal e.alias a.tv then col_ty e a.col 0 else attr_ty rest a

and col_ty e col i =
  if i >= Array.length e.names then raise_notrace Exit
  else if String.equal e.names.(i) col then e.cols.(i).Schema.cty
  else col_ty e col (i + 1)

let scalar_ty env = function
  | S_const v -> Value.ty_of v
  | S_attr a -> if a.tv = "" then raise_notrace Exit else Some (attr_ty env a)

let rec binds_as_is env = function
  | P_true | P_false -> true
  | P_not p -> binds_as_is env p
  | P_and ps | P_or ps -> all_bind_as_is env ps
  | P_cmp (_, l, r) -> (
      match (scalar_ty env l, scalar_ty env r) with
      | Some lt, Some rt -> Value.compatible lt rt
      | _ -> true
      | exception Exit -> false)

and all_bind_as_is env = function
  | [] -> true
  | p :: ps -> binds_as_is env p && all_bind_as_is env ps

let bind_pred_over db scope p =
  let env = List.map (rel_entry db) scope in
  if binds_as_is env p then p else bind_pred env p
