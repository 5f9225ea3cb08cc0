type attr = { tv : string; col : string }
type table_ref = { rel : string; alias : string }
type cmp_op = Eq | Ne | Lt | Le | Gt | Ge
type scalar = S_attr of attr | S_const of Value.t

type pred =
  | P_true
  | P_false
  | P_cmp of cmp_op * scalar * scalar
  | P_and of pred list
  | P_or of pred list
  | P_not of pred

type agg =
  | A_count_star
  | A_count of attr
  | A_sum of attr
  | A_min of attr
  | A_max of attr
  | A_avg of attr
  | A_doi_conj of attr * attr

type select_item =
  | Sel_attr of attr * string option
  | Sel_const of Value.t * string
  | Sel_agg of agg * string

type hscalar = H_agg of agg | H_const of Value.t

type having =
  | H_cmp of cmp_op * hscalar * hscalar
  | H_and of having list
  | H_or of having list

type order_key = O_attr of attr | O_alias of string | O_agg of agg
type dir = Asc | Desc

type query = {
  distinct : bool;
  select : select_item list;
  from : from_item list;
  where : pred;
  group_by : attr list;
  having : having option;
  order_by : (order_key * dir) list;
  limit : int option;
}

and from_item = F_rel of table_ref | F_derived of compound * string
and compound = C_single of query | C_union_all of compound list

let lc = String.lowercase_ascii
let attr tv col = { tv = lc tv; col = lc col }

let tref ?alias rel =
  let rel = lc rel in
  { rel; alias = (match alias with Some a -> lc a | None -> rel) }

let eq a b = P_cmp (Eq, a, b)
let col tv c = S_attr (attr tv c)
let const v = S_const v
let str s = S_const (Value.Str s)
let int i = S_const (Value.Int i)

let conj ps =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | P_true :: rest -> flatten acc rest
    | P_false :: _ -> None
    | P_and qs :: rest -> flatten acc (qs @ rest)
    | p :: rest -> flatten (p :: acc) rest
  in
  match flatten [] ps with
  | None -> P_false
  | Some [] -> P_true
  | Some [ p ] -> p
  | Some ps -> P_and ps

let disj ps =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | P_false :: rest -> flatten acc rest
    | P_true :: _ -> None
    | P_or qs :: rest -> flatten acc (qs @ rest)
    | p :: rest -> flatten (p :: acc) rest
  in
  match flatten [] ps with
  | None -> P_true
  | Some [] -> P_false
  | Some [ p ] -> p
  | Some ps -> P_or ps

let query ?(distinct = false) ?(group_by = []) ?having ?(order_by = []) ?limit
    ~select ~from ~where () =
  { distinct; select; from; where; group_by; having; order_by; limit }

let simple ?distinct ~select ~from ~where () =
  query ?distinct ~select ~from ~where ()

let equal_attr a b = String.equal a.tv b.tv && String.equal a.col b.col

let conjuncts p = match p with P_and ps -> ps | P_true -> [] | p -> [ p ]

let select_output_names q =
  List.map
    (function
      | Sel_attr (a, None) -> a.col
      | Sel_attr (_, Some alias) -> alias
      | Sel_const (_, alias) -> alias
      | Sel_agg (_, alias) -> alias)
    q.select
