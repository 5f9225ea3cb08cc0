open Sql_ast

(* Every printer writes into one buffer threaded through the whole
   statement; the [*_to_string] entry points wrap them. *)

let add = Buffer.add_string

let render size print x =
  let b = Buffer.create size in
  print b x;
  Buffer.contents b

let rec add_list b sep print = function
  | [] -> ()
  | [ x ] -> print b x
  | x :: rest ->
      print b x;
      add b sep;
      add_list b sep print rest

let parenthesized b on body =
  if on then begin
    Buffer.add_char b '(';
    body ();
    Buffer.add_char b ')'
  end
  else body ()

let add_attr b (a : attr) =
  if a.tv <> "" then begin
    add b a.tv;
    Buffer.add_char b '.'
  end;
  add b a.col

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let add_cmp b print op x y =
  print b x;
  Buffer.add_char b ' ';
  add b (cmp_to_string op);
  Buffer.add_char b ' ';
  print b y

let add_scalar b = function
  | S_attr a -> add_attr b a
  | S_const v -> Value.add_to_buffer b v

(* Precedence: OR(1) < AND(2) < NOT/atom(3).  Parenthesize a child that
   binds looser than its context; children of AND/OR are printed at one
   level above the operator's own so that a directly nested same-operator
   node keeps its parentheses and the parse→print→parse trip is exact
   (the parser would otherwise flatten it). *)
let rec add_pred b ctx p =
  match p with
  | P_true -> add b "TRUE"
  | P_false -> add b "FALSE"
  | P_cmp (op, x, y) -> add_cmp b add_scalar op x y
  | P_not p ->
      add b "NOT ";
      add_pred b 3 p
  | P_and ps ->
      parenthesized b (ctx > 2) (fun () ->
          add_list b " and " (fun b -> add_pred b 3) ps)
  | P_or ps ->
      parenthesized b (ctx > 1) (fun () ->
          add_list b " or " (fun b -> add_pred b 2) ps)

let add_call b f a =
  add b f;
  Buffer.add_char b '(';
  add_attr b a;
  Buffer.add_char b ')'

let add_agg b = function
  | A_count_star -> add b "count(*)"
  | A_count a -> add_call b "count" a
  | A_sum a -> add_call b "sum" a
  | A_min a -> add_call b "min" a
  | A_max a -> add_call b "max" a
  | A_avg a -> add_call b "avg" a
  | A_doi_conj (x, y) ->
      add b "degree_of_conjunction(";
      add_attr b x;
      add b ", ";
      add_attr b y;
      Buffer.add_char b ')'

let add_hscalar b = function
  | H_agg a -> add_agg b a
  | H_const v -> Value.add_to_buffer b v

let rec add_having b ctx h =
  match h with
  | H_cmp (op, x, y) -> add_cmp b add_hscalar op x y
  | H_and hs ->
      parenthesized b (ctx > 2) (fun () ->
          add_list b " and " (fun b -> add_having b 3) hs)
  | H_or hs ->
      parenthesized b (ctx > 1) (fun () ->
          add_list b " or " (fun b -> add_having b 2) hs)

let add_alias b al =
  add b " as ";
  add b al

let add_select_item b = function
  | Sel_attr (a, None) -> add_attr b a
  | Sel_attr (a, Some al) ->
      add_attr b a;
      add_alias b al
  | Sel_const (v, al) ->
      Value.add_to_buffer b v;
      add_alias b al
  | Sel_agg (a, al) ->
      add_agg b a;
      add_alias b al

let add_order_item b (k, d) =
  (match k with
  | O_attr a -> add_attr b a
  | O_alias s -> add b s
  | O_agg a -> add_agg b a);
  add b (match d with Asc -> " asc" | Desc -> " desc")

let add_rel b (r : table_ref) =
  add b r.rel;
  if r.alias <> r.rel then begin
    Buffer.add_char b ' ';
    add b r.alias
  end

let attr_to_string = render 32 add_attr
let pred_to_string = render 64 (fun b -> add_pred b 0)
let agg_to_string = render 32 add_agg
let having_to_string = render 64 (fun b -> add_having b 0)

(* [sep] opens every clause: " " on one line, newline and indent in the
   pretty form. *)
let add_tail b sep (q : query) ~pred =
  (match q.where with
  | P_true -> ()
  | w ->
      add b sep;
      add b "where ";
      pred b w);
  (match q.group_by with
  | [] -> ()
  | gs ->
      add b sep;
      add b "group by ";
      add_list b ", " add_attr gs);
  (match q.having with
  | None -> ()
  | Some h ->
      add b sep;
      add b "having ";
      add_having b 0 h);
  (match q.order_by with
  | [] -> ()
  | os ->
      add b sep;
      add b "order by ";
      add_list b ", " add_order_item os);
  match q.limit with
  | None -> ()
  | Some n ->
      add b sep;
      add b "limit ";
      add b (Int.to_string n)

let add_head b (q : query) =
  add b "select ";
  if q.distinct then add b "distinct ";
  add_list b ", " add_select_item q.select

let rec add_query b (q : query) =
  add_head b q;
  add b " from ";
  add_list b ", " add_from_item q.from;
  add_tail b " " q ~pred:(fun b w -> add_pred b 0 w)

and add_from_item b = function
  | F_rel r -> add_rel b r
  | F_derived (c, alias) ->
      Buffer.add_char b '(';
      add_compound b c;
      add b ") ";
      add b alias

and add_compound b = function
  | C_single q -> add_query b q
  | C_union_all cs ->
      add_list b " union all "
        (fun b c ->
          Buffer.add_char b '(';
          add_compound b c;
          Buffer.add_char b ')')
        cs

let query_to_string = render 256 add_query

(* The cache-key contract below is deliberately a separate entry point:
   [query_to_string] is free to evolve for readability, but a key
   renderer must stay canonical — any change here silently splits cache
   populations across releases, which is a behaviour change worth a
   deliberate edit. *)
let query_to_key q = query_to_string q

(* --- pretty (indented) rendering --- *)

let indent n = String.make (2 * n) ' '

let rec pretty_query b depth (q : query) =
  let pad = indent depth in
  add b pad;
  add_head b q;
  add b "\n";
  add b pad;
  add b "from ";
  add_list b (",\n" ^ pad ^ "     ") (fun b -> pretty_from_item b depth) q.from;
  add_tail b ("\n" ^ pad) q ~pred:(fun b w -> pretty_pred b depth w)

and pretty_from_item b depth = function
  | F_rel r -> add_rel b r
  | F_derived (c, alias) ->
      add b "(\n";
      pretty_compound b (depth + 1) c;
      add b "\n";
      add b (indent depth);
      add b ") ";
      add b alias

and pretty_compound b depth = function
  | C_single q -> pretty_query b depth q
  | C_union_all cs ->
      let pad = indent depth in
      add_list b ("\n" ^ pad ^ "union all\n")
        (fun b c ->
          add b pad;
          add b "(\n";
          pretty_compound b (depth + 1) c;
          add b "\n";
          add b pad;
          Buffer.add_char b ')')
        cs

and pretty_pred b depth p =
  (* Disjunctions of conjunctions (the SQ shape) read better one disjunct
     per line. *)
  match p with
  | P_and ps when List.exists (function P_or _ -> true | _ -> false) ps ->
      add_list b
        (" and\n" ^ indent depth ^ "      ")
        (fun b -> function
          | P_or _ as p -> pretty_pred b depth p | p -> add_pred b 3 p)
        ps
  | P_and ps -> add_list b " and " (fun b -> add_pred b 3) ps
  | P_or ps when List.length ps > 1 ->
      Buffer.add_char b '(';
      add_list b ("\n" ^ indent depth ^ "   or ") (fun b -> add_pred b 2) ps;
      Buffer.add_char b ')'
  | p -> add_pred b 0 p

let query_to_pretty = render 512 (fun b -> pretty_query b 0)
