(* Cheap structural size estimate for cached personalization outcomes.

   The plan cache used [Obj.reachable_words] for its byte accounting —
   exact sharing-aware sizes, but a generic graph walk with a visited
   table, measured at ~20% of a consult back when the cache patched
   stale plans.  This module replaces it with a typed walk that prices
   each constructor from the known 64-bit runtime layout (header word +
   fields; 3 words per list cons; [1 + (len+8)/8] words per string).

   The walk is sharing-naive, so it prices structure, not the heap
   graph.  Two deliberate choices keep it within a small factor of the
   exact measure on real outcomes:

   - [Integrate.instantiated] values are priced at a pointer-sized
     constant: their [path]s are the expansion paths already priced
     under [selected], and their [pred]/[trefs] are physically embedded
     in the [personalized] query, which is walked in full.  Walking
     them again would double-count nearly the whole outcome.
   - The query walk prices every occurrence of a pred subtree even
     when UNION ALL branches share one physically — a modest
     overcount that offsets the instantiated-list undercount.

   The unit test pins the estimate to within 2× of the old
   [Obj.reachable_words] measure on representative §7 outcomes. *)

open Relal.Sql_ast

let word_bytes = Sys.word_size / 8

(* Words of an OCaml string block: header + payload rounded up with the
   mandatory terminator byte. *)
let str s = 1 + ((String.length s + 8) / 8)

let list per l = List.fold_left (fun acc x -> acc + 3 + per x) 0 l

let opt per = function None -> 0 | Some x -> 2 + per x

let value = function
  | Relal.Value.Null -> 0
  | Int _ | Float _ | Bool _ | Date _ -> 2
  | Str s -> 2 + str s

let attr (a : attr) = 3 + str a.tv + str a.col

let tref (r : table_ref) = 3 + str r.rel + str r.alias

let scalar = function S_attr a -> 2 + attr a | S_const v -> 2 + value v

let rec pred = function
  | P_true | P_false -> 0
  | P_cmp (_, a, b) -> 4 + scalar a + scalar b
  | P_and ps | P_or ps -> 2 + list pred ps
  | P_not p -> 2 + pred p

let agg = function
  | A_count_star -> 0
  | A_count a | A_sum a | A_min a | A_max a | A_avg a -> 2 + attr a
  | A_doi_conj (a, b) -> 3 + attr a + attr b

let select_item = function
  | Sel_attr (a, alias) -> 3 + attr a + opt str alias
  | Sel_const (v, name) -> 3 + value v + str name
  | Sel_agg (g, name) -> 3 + agg g + str name

let hscalar = function H_agg g -> 2 + agg g | H_const v -> 2 + value v

let rec having = function
  | H_cmp (_, a, b) -> 4 + hscalar a + hscalar b
  | H_and hs | H_or hs -> 2 + list having hs

let order_key = function
  | O_attr a -> 2 + attr a
  | O_alias s -> 2 + str s
  | O_agg g -> 2 + agg g

let rec query (q : query) =
  9
  + list select_item q.select
  + list from_item q.from
  + pred q.where
  + list attr q.group_by
  + opt having q.having
  + list (fun (k, _) -> 3 + order_key k) q.order_by
  + opt (fun _ -> 2) q.limit

and from_item = function
  | F_rel r -> 2 + tref r
  | F_derived (c, alias) -> 3 + compound c + str alias

and compound = function
  | C_single q -> 2 + query q
  | C_union_all cs -> 2 + list compound cs

(* A boxed float (Degree.t in a mixed-field record or tuple). *)
let boxed_degree = 2

let selection_atom (s : Atom.selection) =
  5 + str s.s_rel + str s.s_att + value s.s_val

let join_atom (j : Atom.join) =
  5 + str j.j_from_rel + str j.j_from_att + str j.j_to_rel + str j.j_to_att

let path (p : Path.t) =
  7
  + str p.anchor_tv
  + str p.anchor_rel
  + list (fun (j, _) -> 3 + join_atom j + boxed_degree) p.joins
  + opt (fun (s, _) -> 3 + selection_atom s + boxed_degree) p.sel
  + boxed_degree
  + list str p.rels

(* Priced as an opaque handle: path/pred/trefs are shared with
   [selected] and the personalized query (see the module header). *)
let instantiated (_ : Integrate.instantiated) = 5

let outcome_words ~key (o : Personalize.outcome) =
  (* The cache entry tuple itself plus the key string. *)
  4 + str key
  + 6
  + list path o.selected
  + list instantiated o.mandatory
  + list instantiated o.optional
  + query o.personalized
  + 7 (* selection_stats: six mutable ints *)

let entry_bytes ~key o = outcome_words ~key o * word_bytes
