open Sql_ast

exception Parse_error of string

type state = { mutable toks : Sql_lexer.token list }

let peek st = match st.toks with [] -> Sql_lexer.EOF | t :: _ -> t

let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> Sql_lexer.EOF

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let fail st msg =
  raise
    (Parse_error
       (Format.asprintf "%s (at %a)" msg Sql_lexer.pp_token (peek st)))

(* Punctuation is matched by constructor, never with the polymorphic
   [=] on tokens. *)
let accept_comma st =
  match peek st with
  | Sql_lexer.COMMA ->
      advance st;
      true
  | _ -> false

let expect_comma st = if not (accept_comma st) then fail st "expected ','"

let expect_lparen st =
  match peek st with
  | Sql_lexer.LPAREN -> advance st
  | _ -> fail st "expected '('"

let expect_rparen st =
  match peek st with
  | Sql_lexer.RPAREN -> advance st
  | _ -> fail st "expected ')'"

let accept_star st =
  match peek st with
  | Sql_lexer.STAR ->
      advance st;
      true
  | _ -> false

let expect_kw st kw =
  match peek st with
  | Sql_lexer.KW k when k = kw -> advance st
  | _ -> fail st ("expected keyword " ^ String.uppercase_ascii kw)

let accept_kw st kw =
  match peek st with
  | Sql_lexer.KW k when k = kw ->
      advance st;
      true
  | _ -> false

let ident st what =
  match peek st with
  | Sql_lexer.IDENT s ->
      advance st;
      s
  | _ -> fail st ("expected " ^ what)

let is_agg_name = function
  | "count" | "sum" | "min" | "max" | "avg" | "degree_of_conjunction" -> true
  | _ -> false

(* attr or bare column: IDENT [DOT IDENT] *)
let parse_attr st =
  let a = ident st "attribute" in
  match peek st with
  | Sql_lexer.DOT ->
      advance st;
      let b = ident st "column name after '.'" in
      attr a b
  | _ -> attr "" a

let parse_literal st =
  match peek st with
  | Sql_lexer.INT i ->
      advance st;
      Value.Int i
  | Sql_lexer.FLOAT f ->
      advance st;
      Value.Float f
  | Sql_lexer.STRING s ->
      advance st;
      Value.Str s
  | Sql_lexer.KW "true" ->
      advance st;
      Value.Bool true
  | Sql_lexer.KW "false" ->
      advance st;
      Value.Bool false
  | Sql_lexer.KW "null" ->
      advance st;
      Value.Null
  | _ -> fail st "expected literal"

let is_literal_start st =
  match peek st with
  | Sql_lexer.INT _ | Sql_lexer.FLOAT _ | Sql_lexer.STRING _
  | Sql_lexer.KW ("true" | "false" | "null") ->
      true
  | _ -> false

let is_agg_start st =
  match (peek st, peek2 st) with
  | Sql_lexer.IDENT f, Sql_lexer.LPAREN -> is_agg_name f
  | _ -> false

let parse_agg st =
  let f = ident st "aggregate function" in
  expect_lparen st;
  let result =
    match f with
    | "count" -> if accept_star st then A_count_star else A_count (parse_attr st)
    | "sum" -> A_sum (parse_attr st)
    | "min" -> A_min (parse_attr st)
    | "max" -> A_max (parse_attr st)
    | "avg" -> A_avg (parse_attr st)
    | "degree_of_conjunction" ->
        (* Accept the paper's shorthand DEGREE_OF_CONJUNCTION( star ) as well
           as the explicit two-column form. *)
        if accept_star st then A_doi_conj (attr "" "doi", attr "" "pref")
        else begin
          let a = parse_attr st in
          expect_comma st;
          let b = parse_attr st in
          A_doi_conj (a, b)
        end
    | _ -> fail st ("unknown aggregate " ^ f)
  in
  expect_rparen st;
  result

let parse_scalar st =
  if is_literal_start st then S_const (parse_literal st)
  else S_attr (parse_attr st)

let cmp_of_token = function
  | Sql_lexer.EQ -> Some Eq
  | Sql_lexer.NE -> Some Ne
  | Sql_lexer.LT -> Some Lt
  | Sql_lexer.LE -> Some Le
  | Sql_lexer.GT -> Some Gt
  | Sql_lexer.GE -> Some Ge
  | _ -> None

let parse_cmp_op st =
  match cmp_of_token (peek st) with
  | Some op ->
      advance st;
      op
  | None -> fail st "expected comparison operator"

let rec parse_pred_or st =
  let first = parse_pred_and st in
  let rec loop acc =
    if accept_kw st "or" then loop (parse_pred_and st :: acc) else List.rev acc
  in
  match loop [ first ] with [ p ] -> p | ps -> P_or ps

and parse_pred_and st =
  let first = parse_pred_not st in
  let rec loop acc =
    if accept_kw st "and" then loop (parse_pred_not st :: acc) else List.rev acc
  in
  match loop [ first ] with [ p ] -> p | ps -> P_and ps

and parse_pred_not st =
  if accept_kw st "not" then P_not (parse_pred_not st) else parse_pred_atom st

and parse_pred_atom st =
  match peek st with
  | Sql_lexer.LPAREN ->
      advance st;
      let p = parse_pred_or st in
      expect_rparen st;
      p
  | Sql_lexer.KW "true" ->
      advance st;
      P_true
  | Sql_lexer.KW "false" ->
      advance st;
      P_false
  | _ ->
      let lhs = parse_scalar st in
      let op = parse_cmp_op st in
      let rhs = parse_scalar st in
      P_cmp (op, lhs, rhs)

let parse_hscalar st =
  if is_agg_start st then H_agg (parse_agg st) else H_const (parse_literal st)

let rec parse_having_or st =
  let first = parse_having_and st in
  let rec loop acc =
    if accept_kw st "or" then loop (parse_having_and st :: acc) else List.rev acc
  in
  match loop [ first ] with [ h ] -> h | hs -> H_or hs

and parse_having_and st =
  let first = parse_having_atom st in
  let rec loop acc =
    if accept_kw st "and" then loop (parse_having_atom st :: acc)
    else List.rev acc
  in
  match loop [ first ] with [ h ] -> h | hs -> H_and hs

and parse_having_atom st =
  match peek st with
  | Sql_lexer.LPAREN when not (is_agg_start st) ->
      advance st;
      let h = parse_having_or st in
      expect_rparen st;
      h
  | _ ->
      let lhs = parse_hscalar st in
      let op = parse_cmp_op st in
      let rhs = parse_hscalar st in
      H_cmp (op, lhs, rhs)

let parse_opt_alias st =
  if accept_kw st "as" then Some (ident st "alias after AS")
  else
    match peek st with
    | Sql_lexer.IDENT a ->
        advance st;
        Some a
    | _ -> None

let parse_select_item st idx =
  if is_agg_start st then begin
    let a = parse_agg st in
    let alias =
      match parse_opt_alias st with
      | Some al -> al
      | None -> Printf.sprintf "agg%d" (idx + 1)
    in
    Sel_agg (a, alias)
  end
  else if is_literal_start st then begin
    let v = parse_literal st in
    let alias =
      match parse_opt_alias st with
      | Some al -> al
      | None -> Printf.sprintf "c%d" (idx + 1)
    in
    Sel_const (v, alias)
  end
  else begin
    let a = parse_attr st in
    Sel_attr (a, parse_opt_alias st)
  end

let rec parse_query st =
  expect_kw st "select";
  let distinct = accept_kw st "distinct" in
  let select =
    let rec items acc idx =
      let item = parse_select_item st idx in
      if accept_comma st then items (item :: acc) (idx + 1)
      else List.rev (item :: acc)
    in
    items [] 0
  in
  expect_kw st "from";
  let from =
    let rec items acc =
      let item = parse_from_item st in
      if accept_comma st then items (item :: acc) else List.rev (item :: acc)
    in
    items []
  in
  let where = if accept_kw st "where" then parse_pred_or st else P_true in
  let group_by =
    if accept_kw st "group" then begin
      expect_kw st "by";
      let rec keys acc =
        let a = parse_attr st in
        if accept_comma st then keys (a :: acc) else List.rev (a :: acc)
      in
      keys []
    end
    else []
  in
  let having = if accept_kw st "having" then Some (parse_having_or st) else None in
  let order_by =
    if accept_kw st "order" then begin
      expect_kw st "by";
      let key st =
        if is_agg_start st then O_agg (parse_agg st)
        else begin
          let a = parse_attr st in
          if a.tv = "" then O_alias a.col else O_attr a
        end
      in
      let dir st =
        if accept_kw st "desc" then Desc
        else begin
          ignore (accept_kw st "asc");
          Asc
        end
      in
      let rec keys acc =
        let k = key st in
        let d = dir st in
        if accept_comma st then keys ((k, d) :: acc)
        else List.rev ((k, d) :: acc)
      in
      keys []
    end
    else []
  in
  let limit =
    if accept_kw st "limit" then begin
      match peek st with
      | Sql_lexer.INT n ->
          advance st;
          Some n
      | _ -> fail st "expected integer after LIMIT"
    end
    else None
  in
  { distinct; select; from; where; group_by; having; order_by; limit }

and parse_from_item st =
  match peek st with
  | Sql_lexer.LPAREN ->
      advance st;
      let c = parse_compound st in
      expect_rparen st;
      let alias =
        match parse_opt_alias st with
        | Some a -> a
        | None -> fail st "derived table requires an alias"
      in
      F_derived (c, alias)
  | _ ->
      let rel = ident st "table name" in
      let alias = parse_opt_alias st in
      F_rel (tref ?alias rel)

and parse_compound st =
  let element st =
    match peek st with
    | Sql_lexer.LPAREN ->
        advance st;
        let c = parse_compound st in
        expect_rparen st;
        c
    | _ -> C_single (parse_query st)
  in
  let first = element st in
  let rec loop acc =
    if accept_kw st "union" then begin
      expect_kw st "all";
      loop (element st :: acc)
    end
    else List.rev acc
  in
  match loop [ first ] with [ c ] -> c | cs -> C_union_all cs

let run_parser p s =
  let st = { toks = Sql_lexer.tokenize s } in
  let result = p st in
  (* Tolerate a single trailing semicolon-free EOF; anything else is junk. *)
  (match peek st with
  | Sql_lexer.EOF -> ()
  | _ -> fail st "trailing input after statement");
  result

let parse s =
  (* Strip one optional trailing ';'. *)
  let s =
    let s = String.trim s in
    if String.length s > 0 && s.[String.length s - 1] = ';' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  run_parser parse_query s

let parse_pred s = run_parser parse_pred_or s
