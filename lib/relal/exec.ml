open Sql_ast

exception Exec_error of string

let err fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

type result = { cols : string array; rows : Value.t array list }

(* --------------------------------------------------------------------- *)
(* Cooperative governor hooks                                             *)
(* --------------------------------------------------------------------- *)

(* A run's governor is an argument of every evaluator function that
   polls or charges rows, never process state: the server evaluates
   several requests at once on threads that can switch mid-run, and each
   must charge its own budget.  Disarmed, each hook is a single branch. *)
let g_poll gov = match gov with None -> () | Some g -> Governor.poll g

let g_rows gov n = match gov with None -> () | Some g -> Governor.add_rows g n

(* --------------------------------------------------------------------- *)
(* Working relations: array-backed views with late materialization        *)
(* --------------------------------------------------------------------- *)

(* An intermediate relation is a *view* over source batches: [parts] are
   the underlying storage batches (base-table storage shared in place, or
   batches materialized for derived tables), and [rids] holds, per part,
   the row id each output row takes in that part's batch.  Joins
   therefore only produce int row-id columns; tuple values are touched
   when a predicate, grouping key or the final projection reads them —
   never re-copied at every join step. *)

type part = { batch : Batch.t; off : int; width : int }

type vrel = {
  header : (string * string) array;  (* tuple-variable.column per column *)
  parts : part array;
  nrows : int;  (* cached count — no List.length anywhere *)
  rids : int array array;  (* rids.(p).(r): row id of output row r in parts.(p) *)
}

let base_header alias tbl =
  Array.map (fun c -> (alias, c)) (Schema.col_names (Table.schema tbl))

let vrel_of_batch header batch =
  let n = Batch.length batch in
  {
    header;
    parts = [| { batch; off = 0; width = Array.length header } |];
    nrows = n;
    rids = [| Array.init n Fun.id |];
  }

(* A single-part view whose rows are the given batch row ids — how an
   index probe materializes: ids only, no row copies. *)
let vrel_of_ids header batch ids =
  {
    header;
    parts = [| { batch; off = 0; width = Array.length header } |];
    nrows = Array.length ids;
    rids = [| ids |];
  }

let vrel_of_table alias tbl =
  Chaos.point Chaos.Scan;
  vrel_of_batch (base_header alias tbl) (Table.batch tbl)

let empty_vrel header =
  {
    header;
    parts = [| { batch = Batch.create (); off = 0; width = Array.length header } |];
    nrows = 0;
    rids = [| [||] |];
  }

let col_idx v (a : attr) =
  let n = Array.length v.header in
  let rec go i =
    if i >= n then None
    else begin
      let tv, c = v.header.(i) in
      if tv = a.tv && c = a.col then Some i else go (i + 1)
    end
  in
  go 0

let col_idx_exn v a =
  match col_idx v a with
  | Some i -> i
  | None -> err "executor: unresolved attribute %s.%s" a.tv a.col

(* Column [gi] of [v], resolved once: its part's storage rows, the
   part's row ids, and the column within the part.  Output row [r]'s
   value is [rows.(rid.(r)).(lc)], which a join kernel's loop reads with
   no closure call per row. *)
let column v gi =
  let np = Array.length v.parts in
  let rec find p =
    if p >= np then err "executor: column %d out of range" gi
    else begin
      let { batch; off; width } = v.parts.(p) in
      if gi >= off && gi < off + width then
        (Batch.unsafe_rows batch, v.rids.(p), gi - off)
      else find (p + 1)
    end
  in
  find 0

(* Compiled column accessor: a closure reading the value of output row
   [r] through [column]. *)
let attr_reader v a =
  let rows, rid, lc = column v (col_idx_exn v a) in
  fun r -> rows.(rid.(r)).(lc)

(* [rid.(sel.(i))] for each of [sel]'s first [n] entries. *)
let gather rid sel n =
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    out.(i) <- rid.(sel.(i))
  done;
  out

(* Keep the output rows [sel.(0)] .. [sel.(n - 1)], in that order. *)
let select_rows v sel n =
  { v with nrows = n; rids = Array.map (fun rid -> gather rid sel n) v.rids }

(* Concatenate two views row-wise under selection vectors: output row i
   (i < n) is left row lsel.(i) widened with right row rsel.(i) — except
   nothing is widened; both sides' rid columns are gathered and the right
   part offsets shifted.  This is the join "materialization" step:
   O(parts) int-array gathers, no value copies.  The vectors may be
   longer than [n]. *)
let join_vrels left lsel right rsel n =
  let lw = Array.length left.header in
  {
    header = Array.append left.header right.header;
    parts =
      Array.append left.parts
        (Array.map (fun p -> { p with off = p.off + lw }) right.parts);
    nrows = n;
    rids =
      Array.append
        (Array.map (fun rid -> gather rid lsel n) left.rids)
        (Array.map (fun rid -> gather rid rsel n) right.rids);
  }

(* Like [join_vrels] but the right side is a raw base batch whose row ids
   are already the selection vector (index-nested-loop output), both
   vectors exactly [n] long. *)
let append_base left lsel bh batch bsel =
  let lw = Array.length left.header in
  let n = Array.length lsel in
  {
    header = Array.append left.header bh;
    parts =
      Array.append left.parts
        [| { batch; off = lw; width = Array.length bh } |];
    nrows = n;
    rids = Array.append (Array.map (fun rid -> gather rid lsel n) left.rids) [| bsel |];
  }

(* Growable int array for selection vectors and rid-pair output. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let add b i =
    if b.n = Array.length b.a then begin
      let na = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 na 0 b.n;
      b.a <- na
    end;
    b.a.(b.n) <- i;
    b.n <- b.n + 1
end

(* A FROM item the join loop has not touched yet.  Base tables stay lazy
   so the loop can pick index access paths (index-equality materialization
   and index-nested-loop joins) instead of scanning.  A base table under
   pushed-down local predicates is an [S_filtered]: [card] is the exact
   number of rows passing [preds] and [view] holds those rows.  The view
   is materialized at pushdown, except when the only predicate is an
   indexed equality: then [card] is the index bucket's length and the
   view is fetched only if the join loop does not probe the table
   through its index instead. *)
type source =
  | S_mat of vrel
  | S_base of { alias : string; tbl : Table.t }
  | S_filtered of {
      alias : string;
      tbl : Table.t;
      preds : pred list;
      card : int;
      view : vrel Lazy.t;
    }

let source_card = function
  | S_mat v -> v.nrows
  | S_base { tbl; _ } -> Table.cardinality tbl
  | S_filtered { card; _ } -> card

let source_header = function
  | S_mat v -> v.header
  | S_base { alias; tbl } | S_filtered { alias; tbl; _ } ->
      base_header alias tbl

let force = function
  | S_mat v -> v
  | S_base { alias; tbl } -> vrel_of_table alias tbl
  | S_filtered { view; _ } -> Lazy.force view

(* A conjunctive block's join order, fixed before any row is joined: the
   driving source (the smallest), then one step per other source [var], each
   joining the smallest source connected to those before it ([keys] are
   its (joined attribute, own attribute) equi-join pairs), or, when none
   is connected, the smallest rest as a cartesian step ([keys = []]).
   After its step, the rows are filtered by the join edges the step
   closed ([internal]) and then by the residual predicates whose tuple
   variables are now all joined ([ready]). *)
type step = {
  var : string;
  src : source;
  keys : (attr * attr) list;
  internal : pred list;
  ready : pred list;
}

type plan = { src0 : string * source; steps : step list }

(* --------------------------------------------------------------------- *)
(* Row-key hash tables (for distinct, grouping)                           *)
(* --------------------------------------------------------------------- *)

module Key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i =
      i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1))
    in
    go 0

  let hash a = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 a
end

module Row_tbl = Hashtbl.Make (Key)

(* --------------------------------------------------------------------- *)
(* Predicate evaluation                                                   *)
(* --------------------------------------------------------------------- *)

let eval_cmp op a b =
  match op with
  | Eq -> Value.equal a b
  | Ne -> not (Value.equal a b)
  | Lt -> Value.compare a b < 0
  | Le -> Value.compare a b <= 0
  | Gt -> Value.compare a b > 0
  | Ge -> Value.compare a b >= 0

(* Compile a predicate into a closure over row indices, reading each
   attribute through [read a], which resolves its column once here, not
   per row. *)
let compile_pred_with read p =
  let scalar = function
    | S_const c -> fun _ -> c
    | S_attr a -> read a
  in
  let rec go = function
    | P_true -> fun _ -> true
    | P_false -> fun _ -> false
    | P_not p ->
        let f = go p in
        fun r -> not (f r)
    | P_and ps ->
        let fs = List.map go ps in
        fun r -> List.for_all (fun f -> f r) fs
    | P_or ps ->
        let fs = List.map go ps in
        fun r -> List.exists (fun f -> f r) fs
    | P_cmp (op, l, r) ->
        let fl = scalar l and fr = scalar r in
        fun row -> eval_cmp op (fl row) (fr row)
  in
  go p

(* Over output rows of [v]; all attributes must resolve in its header. *)
let compile_pred v p = compile_pred_with (attr_reader v) p

let base_col_idx alias tbl (a : attr) =
  match Schema.col_index (Table.schema tbl) a.col with
  | Some i -> i
  | None -> err "executor: no column %s in %s" a.col alias

(* Over row ids of a base table's storage batch. *)
let compile_base_pred alias tbl p =
  let rows = Batch.unsafe_rows (Table.batch tbl) in
  compile_pred_with
    (fun a ->
      let ci = base_col_idx alias tbl a in
      fun bi -> rows.(bi).(ci))
    p

(* [Some (lo, hi)] when the [n] values [key 0] .. [key (n - 1)] are all
   ints ({!Value.int_key}) and span [lo .. hi], a {!Table.dense} span:
   the keys a join's chains can be indexed by. *)
let int_span n key =
  let rec go r lo hi =
    if r = n then if Table.dense ~lo ~hi n then Some (lo, hi) else None
    else
      let k = Value.int_key (key r) in
      if k = min_int then None
      else go (r + 1) (if k < lo then k else lo) (if k > hi then k else hi)
  in
  go 0 max_int min_int

(* Reorder the first [n] (current, base) row-id pairs into the order
   [hash_join] emits when it builds on the current side and probes with
   the base table's filtered rows: base row ascending, then current row
   descending. *)
let hash_join_order csel bsel n =
  let perm = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      match Int.compare bsel.(i) bsel.(j) with
      | 0 -> Int.compare csel.(j) csel.(i)
      | c -> c)
    perm;
  (Array.map (fun i -> csel.(i)) perm, Array.map (fun i -> bsel.(i)) perm)

(* [probes] probes of a filtered table through the index on its first
   indexed join column touch [probes] × that column's fanout rows;
   hash-joining its filtered view reads all [card] of them.  The fanout
   is a mean ({!Table.fanout}), so on a skewed column a probe can touch
   more rows than it estimates. *)
let probe_cheaper probes keys tbl card =
  match List.find_map (fun (_, (b : attr)) -> Table.fanout tbl b.col) keys with
  | Some f -> float_of_int probes *. f < float_of_int card
  | None -> false

let rec pred_tvs acc = function
  | P_true | P_false -> acc
  | P_not p -> pred_tvs acc p
  | P_and ps | P_or ps -> List.fold_left pred_tvs acc ps
  | P_cmp (_, l, r) ->
      let s acc = function S_attr a -> a.tv :: acc | S_const _ -> acc in
      s (s acc l) r

let tvs_of_pred p = List.sort_uniq String.compare (pred_tvs [] p)

(* A constant predicate (no attributes) evaluated against no row. *)
let const_pred_holds p = compile_pred (empty_vrel [||]) p 0

let max_branches = 4096

let rec contains_or = function
  | P_or _ -> true
  | P_and ps -> List.exists contains_or ps
  | P_not p -> contains_or p
  | _ -> false

(* Does one of [conjuncts] pin [a], an equality with a constant?  Every
   value equal to the constant is one DISTINCT key, numbers included. *)
let pinned conjuncts (a : attr) =
  List.exists
    (function
      | P_cmp (Eq, S_attr b, S_const _) | P_cmp (Eq, S_const _, S_attr b) ->
          equal_attr a b
      | _ -> false)
    conjuncts

let sel_attrs items =
  List.filter_map (function Sel_attr (a, _) -> Some a | _ -> None) items

(* --------------------------------------------------------------------- *)
(* The tail: DISTINCT, ORDER BY, LIMIT                                    *)
(* --------------------------------------------------------------------- *)

(* Output rows as [tail] pulls them, in arrival order: [next ()] returns
   the next row, or [eos] once there is none left; under ORDER BY, [key
   out] is the sort key of [out], the row [next] returned last. *)
type rows = {
  next : unit -> Value.t array;
  key : Value.t array -> (Value.t * dir) list;
}

(* Told apart by physical equality: no producer returns this array. *)
let eos : Value.t array = [| Value.Null |]

let rec compare_keys k1 k2 =
  match (k1, k2) with
  | (v1, d) :: r1, (v2, _) :: r2 ->
      let c = Value.compare v1 v2 in
      let c = match d with Asc -> c | Desc -> -c in
      if c <> 0 then c else compare_keys r1 r2
  | _ -> 0

(* Every query ends here, whichever path produced its rows.  Each row
   arriving from [src] polls the governor and, under DISTINCT, is kept
   only at its first occurrence; ORDER BY sorts the kept rows stably,
   and LIMIT keeps the first of them.  The rows are consed in arrival
   order, never reversed: reversing costs a list cell per row. *)
let tail gov (q : query) out_names src : result =
  let fresh =
    if not q.distinct then fun _ -> true
    else begin
      let seen = Row_tbl.create 64 in
      fun out -> (not (Row_tbl.mem seen out)) && (Row_tbl.add seen out (); true)
    end
  in
  (* The kept rows, each through [f], in arrival order. *)
  let[@tail_mod_cons] rec pull f =
    let out = src.next () in
    if out == eos then []
    else begin
      g_poll gov;
      if fresh out then
        let x = f out in
        x :: pull f
      else pull f
    end
  in
  let rows =
    match q.order_by with
    | [] -> pull Fun.id
    | _ ->
        List.map fst
          (List.stable_sort
             (fun (_, k1) (_, k2) -> compare_keys k1 k2)
             (pull (fun out -> (out, src.key out))))
  in
  let rows =
    match q.limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  { cols = out_names; rows }

let alias_idx out_names name =
  match Array.find_index (String.equal name) out_names with
  | Some i -> i
  | None -> err "ORDER BY alias %s not in output" name

(* The ungrouped projection of [w]'s rows, in row order. *)
let projection (q : query) out_names (w : vrel) : rows =
  let items =
    Array.of_list
      (List.map
         (function
           | Sel_attr (a, _) -> attr_reader w a
           | Sel_const (v, _) -> fun _ -> v
           | Sel_agg _ -> err "aggregate in ungrouped projection")
         q.select)
  in
  let r = ref (-1) in
  let item i = items.(i) !r in
  let keys =
    List.map
      (fun (key, d) ->
        match key with
        | O_attr a ->
            let f = attr_reader w a in
            fun (_ : Value.t array) -> (f !r, d)
        | O_alias name ->
            let i = alias_idx out_names name in
            fun out -> (out.(i), d)
        | O_agg _ -> err "ORDER BY aggregate in ungrouped query")
      q.order_by
  in
  {
    next =
      (fun () ->
        incr r;
        if !r < w.nrows then Array.init (Array.length items) item else eos);
    key = (fun out -> List.map (fun f -> f out) keys);
  }

(* --------------------------------------------------------------------- *)
(* The MQ shape                                                           *)
(* --------------------------------------------------------------------- *)

(* One group of MQ's union rows, as [run_mq] accumulates it: [key] from
   the group's first row, [last] the latest partial that produced it,
   [count] the partials that did, [prod] the product of their
   1 - degree, in partial order. *)
type mq_group = {
  key : Value.t array;
  mutable last : int;
  mutable count : int;
  mutable prod : float;
}

type mq = {
  partials : (query * float) list;  (* each with its 1 - degree *)
  width : int;
  items : (mq_group -> Value.t) list;  (* the outer SELECT *)
  keep : mq_group -> bool;  (* HAVING *)
  order : (int * dir) list;  (* ORDER BY: output column, direction *)
}

(* MQ (paper §6), ranked or not, as [Integrate.mq] builds it: one
   derived UNION ALL of DISTINCT conjunctive partial queries, each
   projecting [width] columns, then a constant degree and a constant
   preference id; the outer query groups by exactly those columns,
   selects them and [count( * )] or [degree_of_conjunction] over the
   degree and id, keeps groups by one comparison of such an aggregate,
   and orders by output names.  Such a query is run by [run_mq]; any
   other takes the generic path. *)
let mq_shape (q : query) : mq option =
  match q.from with
  | [ F_derived (C_union_all (C_single p0 :: _ as branches), tv) ]
    when (not q.distinct) && q.where = P_true && q.limit = None
         && q.group_by <> [] -> (
      let names = Array.of_list (select_output_names p0) in
      let width = Array.length names - 2 in
      (* A derived column as the generic path resolves it: the first
         output name of the first branch that matches. *)
      let col (a : attr) =
        let rec go i =
          if i >= Array.length names then -1
          else if names.(i) = a.col then i
          else go (i + 1)
        in
        if a.tv = tv then go 0 else -1
      in
      let prefs = Row_tbl.create 16 in
      let partial = function
        | C_single p
          when p.distinct && p.group_by = [] && p.having = None
               && p.order_by = [] && p.limit = None
               && List.for_all (function F_rel _ -> true | _ -> false) p.from
               && not (contains_or p.where) -> (
            match List.rev p.select with
            | Sel_const (pref, _) :: Sel_const (doi, _) :: keys
              when List.length keys = width
                   && List.for_all (function Sel_attr _ -> true | _ -> false) keys
                   && not (Row_tbl.mem prefs [| pref |]) -> (
                Row_tbl.add prefs [| pref |] ();
                match doi with
                | Value.Float d when Float.is_finite d -> Some (p, 1. -. d)
                | Value.Int d -> Some (p, 1. -. float_of_int d)
                | _ -> None)
            | _ -> None)
        | _ -> None
      in
      let agg = function
        | A_count_star -> Some (fun g -> Value.Int g.count)
        | A_doi_conj (d, p) when col d = width && col p = width + 1 ->
            Some (fun g -> Value.Float (1. -. g.prod))
        | _ -> None
      in
      let all f xs =
        List.fold_right
          (fun x acc ->
            match (f x, acc) with Some y, Some ys -> Some (y :: ys) | _ -> None)
          xs (Some [])
      in
      let having = function
        | H_cmp (op, l, r) -> (
            let side = function H_agg a -> agg a | H_const c -> Some (fun _ -> c) in
            match (side l, side r) with
            | Some fl, Some fr -> Some (fun g -> eval_cmp op (fl g) (fr g))
            | _ -> None)
        | H_and _ | H_or _ -> None
      in
      let item = function
        | Sel_attr (a, _) ->
            let i = col a in
            if i >= 0 && i < width then Some (fun g -> g.key.(i)) else None
        | Sel_agg (a, _) -> agg a
        | Sel_const _ -> None
      in
      let out_names = select_output_names q in
      let order_key = function
        | O_alias name, d -> (
            match List.find_index (String.equal name) out_names with
            | Some i -> Some (i, d)
            | None -> None)
        | _ -> None
      in
      match
        ( width >= 1
          && List.map col q.group_by = List.init width Fun.id,
          all partial branches,
          all item q.select,
          (match q.having with None -> Some (fun _ -> true) | Some h -> having h),
          all order_key q.order_by )
      with
      | true, Some partials, Some items, Some keep, Some order ->
          Some { partials; width; items; keep; order }
      | _ -> None)
  | _ -> None

(* --------------------------------------------------------------------- *)
(* FROM materialization                                                   *)
(* --------------------------------------------------------------------- *)

let rec source_of_from gov db item : string * source =
  match item with
  | F_rel r -> (
      match Database.find_table db r.rel with
      | None -> err "executor: unknown table %s" r.rel
      | Some t -> (r.alias, S_base { alias = r.alias; tbl = t }))
  | F_derived (c, alias) ->
      let res = run_compound gov db c in
      let header = Array.map (fun c -> (alias, c)) res.cols in
      (alias, S_mat (vrel_of_batch header (Batch.of_list res.rows)))

and materialize_from gov db item : vrel =
  force (snd (source_of_from gov db item))

(* --------------------------------------------------------------------- *)
(* Conjunctive planning: pushdown + greedy rid joins                      *)
(* --------------------------------------------------------------------- *)

and filter_vrel gov v preds =
  match preds with
  | [] -> v
  | _ ->
      let f = compile_pred v (conj preds) in
      let sel = Ibuf.create () in
      for r = 0 to v.nrows - 1 do
        g_poll gov;
        if f r then Ibuf.add sel r
      done;
      g_rows gov sel.Ibuf.n;
      if sel.Ibuf.n = v.nrows then v else select_rows v sel.Ibuf.a sel.Ibuf.n

(* Hash join producing row-id pairs.  The build side is a chained table
   in two int arrays: [head.(s)] is the last build row in slot [s] (-1 if
   none), and [next.(r)] the build row before [r] in its slot's chain.
   Rows are pushed in ascending order, so every chain runs in descending
   row order, and a probe row meets its matches build row descending.
   A single key whose build values are all ints ({!Value.int_key}) in a
   {!Table.dense} span, which one pass over them finds out, indexes the
   slots by key value: a chain then holds exactly one key's rows, and a
   probe reads its slot with no hash and no comparison.  Any other build
   side hashes its keys into a power-of-two table, and a probe verifies
   each candidate's key values.  No key arrays, no per-row boxes.  Output
   rows are (left-id, right-id) selection vectors handed to
   [join_vrels] — tuples are not widened here. *)
and hash_join gov left right keys =
  (* Build on the smaller input. *)
  let swap = right.nrows < left.nrows in
  let build, probe = if swap then (right, left) else (left, right) in
  let bkeys, pkeys =
    if swap then (List.map snd keys, List.map fst keys)
    else (List.map fst keys, List.map snd keys)
  in
  let bn = build.nrows and pn = probe.nrows in
  let bsel = Ibuf.create () and psel = Ibuf.create () in
  (* A power of two at least [bn]: one slot per build row or more. *)
  let hash_slots () =
    let rec grow s = if s >= bn then s else grow (2 * s) in
    grow 1
  in
  let chains slots = (Array.make slots (-1), Array.make bn (-1)) in
  (match (bkeys, pkeys) with
  | [ ba ], [ pa ] ->
      let brows, brid, bc = column build (col_idx_exn build ba) in
      let prows, prid, pc = column probe (col_idx_exn probe pa) in
      Chaos.point Chaos.Join_build;
      (match int_span bn (fun r -> brows.(brid.(r)).(bc)) with
      | Some (lo, hi) ->
          let head, next = chains (hi - lo + 1) in
          for r = 0 to bn - 1 do
            g_poll gov;
            let s = Value.int_key brows.(brid.(r)).(bc) - lo in
            next.(r) <- head.(s);
            head.(s) <- r
          done;
          Chaos.point Chaos.Join_probe;
          for pr = 0 to pn - 1 do
            g_poll gov;
            let k = Value.int_key prows.(prid.(pr)).(pc) in
            if k >= lo && k <= hi then begin
              let br = ref head.(k - lo) in
              while !br >= 0 do
                Ibuf.add bsel !br;
                Ibuf.add psel pr;
                br := next.(!br)
              done
            end
          done
      | None ->
          let mask = hash_slots () - 1 in
          let head, next = chains (mask + 1) in
          for r = 0 to bn - 1 do
            g_poll gov;
            let s = Value.hash brows.(brid.(r)).(bc) land mask in
            next.(r) <- head.(s);
            head.(s) <- r
          done;
          Chaos.point Chaos.Join_probe;
          for pr = 0 to pn - 1 do
            g_poll gov;
            let pv = prows.(prid.(pr)).(pc) in
            let br = ref head.(Value.hash pv land mask) in
            while !br >= 0 do
              if Value.equal brows.(brid.(!br)).(bc) pv then begin
                Ibuf.add bsel !br;
                Ibuf.add psel pr
              end;
              br := next.(!br)
            done
          done)
  | _ ->
      let bread = Array.of_list (List.map (attr_reader build) bkeys) in
      let pread = Array.of_list (List.map (attr_reader probe) pkeys) in
      let nk = Array.length bread in
      let hash_row reads r =
        let h = ref 17 in
        for i = 0 to nk - 1 do
          h := (!h * 31) + Value.hash (reads.(i) r)
        done;
        !h
      in
      let rec keys_eq br pr i =
        i >= nk
        || (Value.equal (bread.(i) br) (pread.(i) pr) && keys_eq br pr (i + 1))
      in
      Chaos.point Chaos.Join_build;
      let mask = hash_slots () - 1 in
      let head, next = chains (mask + 1) in
      for r = 0 to bn - 1 do
        g_poll gov;
        let s = hash_row bread r land mask in
        next.(r) <- head.(s);
        head.(s) <- r
      done;
      Chaos.point Chaos.Join_probe;
      for pr = 0 to pn - 1 do
        g_poll gov;
        let br = ref head.(hash_row pread pr land mask) in
        while !br >= 0 do
          if keys_eq !br pr 0 then begin
            Ibuf.add bsel !br;
            Ibuf.add psel pr
          end;
          br := next.(!br)
        done
      done);
  let n = psel.Ibuf.n in
  g_rows gov n;
  let bsel = bsel.Ibuf.a and psel = psel.Ibuf.a in
  if swap then join_vrels left psel right bsel n
  else join_vrels left bsel right psel n

and cross_product gov left right =
  let n = left.nrows * right.nrows in
  (* Account for the output *before* allocating it: a budget of a few
     rows must stop a runaway cross product without first building its
     selection vectors. *)
  g_rows gov n;
  let lsel = Array.make n 0 and rsel = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to left.nrows - 1 do
    for j = 0 to right.nrows - 1 do
      lsel.(!k) <- i;
      rsel.(!k) <- j;
      incr k
    done;
    g_poll gov
  done;
  join_vrels left lsel right rsel n

(* Push a base table's local predicates down, choosing an access path:
   if some equality predicate lands on an indexed column the matching row
   ids are fetched through the index and the remaining predicates are
   applied to them; otherwise a filtered scan.  Either way the view is
   over the table's storage batch — no row copies.  When that equality
   is the only predicate, the ids are not fetched yet: the bucket's
   length is the exact cardinality, and the join loop may never need
   them. *)
and filtered_source gov ~preds alias tbl : source =
  Chaos.point Chaos.Scan;
  let header = base_header alias tbl in
  let index_eq =
    List.find_map
      (fun p ->
        match p with
        | P_cmp (Eq, S_attr a, S_const v) | P_cmp (Eq, S_const v, S_attr a)
          when Table.has_index tbl a.col ->
            Some (a.col, v, p)
        | _ -> None)
      preds
  in
  let ids col v =
    vrel_of_ids header (Table.batch tbl) (Table.lookup_ids tbl col v)
  in
  let materialized view =
    S_filtered
      { alias; tbl; preds; card = view.nrows; view = Lazy.from_val view }
  in
  match (index_eq, preds) with
  | Some (col, v, _), [ _ ] ->
      let card = Option.get (Table.count tbl col v) in
      S_filtered { alias; tbl; preds; card; view = lazy (ids col v) }
  | Some (col, v, used), _ ->
      materialized
        (filter_vrel gov (ids col v) (List.filter (fun p -> p != used) preds))
  | None, _ ->
      materialized
        (filter_vrel gov (vrel_of_batch header (Table.batch tbl)) preds)

(* Index-nested-loop join: [keys] are (probe-side, base-side) equi-join
   attributes; rows of [current] probe the base table's index on the
   first indexed base column, and the remaining key equalities are
   checked on each match.  Cost is proportional to |current| plus the
   matches — never a scan of the base table — and the output is row-id
   pairs into [current] and the table batch, current row ascending, then
   base row descending.  A first pass probes each current row once,
   keeping its bucket, and sums the buckets' lengths, so the selection
   vectors are allocated once at their final size (an upper bound when
   matches are checked).  With [?filter], the table's
   local predicates, it stands in for a hash join with the table's
   filtered view: each match must also pass [filter], and the pairs come
   in that hash join's order ([hash_join_order]). *)
and index_nl_join gov ?filter current keys alias tbl : vrel option =
  let indexed, others =
    List.partition
      (fun ((_ : attr), (b : attr)) -> Table.has_index tbl b.col)
      keys
  in
  match indexed with
  | [] -> None
  | (pa, pb) :: rest_indexed ->
      let others = rest_indexed @ others in
      let prows, prid, pc = column current (col_idx_exn current pa) in
      let bh = base_header alias tbl in
      let brows = Batch.unsafe_rows (Table.batch tbl) in
      let checks =
        Array.of_list
          (List.map
             (fun (a, b) -> (attr_reader current a, base_col_idx alias tbl b))
             others)
      in
      let local =
        Option.map (fun ps -> compile_base_pred alias tbl (conj ps)) filter
      in
      let nc = Array.length checks in
      let probe =
        match Table.prober tbl pb.col with
        | Some p -> p
        | None -> err "executor: index vanished on %s.%s" alias pb.col
      in
      Chaos.point Chaos.Join_probe;
      (* Each current row's bucket, probed once; their lengths sum to the
         output's size, or bound it when matches are checked. *)
      let n = current.nrows in
      let buckets =
        if n = 0 then [||] else Array.make n (probe prows.(prid.(0)).(pc))
      in
      let total = ref 0 in
      for r = 0 to n - 1 do
        let b = probe prows.(prid.(r)).(pc) in
        buckets.(r) <- b;
        total := !total + b.Table.len
      done;
      let csel = Array.make !total 0 and bsel = Array.make !total 0 in
      let k = ref 0 in
      (* Each bucket is walked from its end: base rows descending. *)
      if nc = 0 && Option.is_none local then
        for r = 0 to n - 1 do
          g_poll gov;
          let { Table.ids; len } = buckets.(r) in
          for i = len - 1 downto 0 do
            csel.(!k) <- r;
            bsel.(!k) <- ids.(i);
            incr k
          done
        done
      else begin
        let rec check_ok r bi i =
          i >= nc
          ||
          let cread, bci = checks.(i) in
          Value.equal (cread r) brows.(bi).(bci) && check_ok r bi (i + 1)
        in
        let keep = Option.value local ~default:(fun _ -> true) in
        for r = 0 to n - 1 do
          g_poll gov;
          let { Table.ids; len } = buckets.(r) in
          for i = len - 1 downto 0 do
            let bi = ids.(i) in
            if keep bi && check_ok r bi 0 then begin
              csel.(!k) <- r;
              bsel.(!k) <- bi;
              incr k
            end
          done
        done
      end;
      g_rows gov !k;
      let csel, bsel =
        if Option.is_some filter then hash_join_order csel bsel !k
        else if !k < !total then (Array.sub csel 0 !k, Array.sub bsel 0 !k)
        else (csel, bsel)
      in
      Some (append_base current csel bh (Table.batch tbl) bsel)

(* Plan a conjunctive block: [sources] is an association (tv -> source)
   — base tables lazy, derived tables materialized; [conjuncts] the
   predicate factors.  Local predicates are pushed down here, each
   filtered base table through its best access path; the join order is
   then fixed, smallest connected input next. *)
and plan_conjunctive gov (sources : (string * source) list) conjuncts : plan =
  (* Classify conjuncts. *)
  let local, joins, residual =
    List.fold_left
      (fun (local, joins, residual) p ->
        match p with
        | P_cmp (Eq, S_attr a, S_attr b) when a.tv <> b.tv ->
            (local, (a, b) :: joins, residual)
        | _ -> (
            match tvs_of_pred p with
            | [ tv ] -> ((tv, p) :: local, joins, residual)
            | [] -> (local, joins, p :: residual) (* constant predicate *)
            | _ -> (local, joins, p :: residual)))
      ([], [], []) conjuncts
  in
  (* Constant predicates: a constant FALSE empties everything. *)
  let const_preds, residual =
    List.partition (fun p -> tvs_of_pred p = []) residual
  in
  let const_ok = List.for_all const_pred_holds const_preds in
  (* Pushdown local filters: a base table carrying one becomes an
     [S_filtered] through its best access path; unfiltered base tables
     stay lazy so the join loop can probe them with index-nested loops. *)
  let sources =
    List.map
      (fun (tv, src) ->
        let preds =
          List.filter_map (fun (t, p) -> if t = tv then Some p else None) local
        in
        if not const_ok then (tv, S_mat (empty_vrel (source_header src)))
        else
          match (src, preds) with
          | S_base _, [] -> (tv, src)
          | S_base { alias; tbl }, preds ->
              (tv, filtered_source gov ~preds alias tbl)
          | (S_mat _ | S_filtered _), preds ->
              (tv, S_mat (filter_vrel gov (force src) preds)))
      sources
  in
  match sources with
  | [] -> err "executor: empty FROM"
  | _ ->
      let remaining = ref sources in
      let joins = ref joins in
      let residual = ref residual in
      (* Joined tuple variables, as a hash set: the join-ordering loop
         tests membership per edge per round. *)
      let joined_tvs : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let is_joined tv = Hashtbl.mem joined_tvs tv in
      let join tv =
        Hashtbl.replace joined_tvs tv ();
        remaining := List.remove_assoc tv !remaining
      in
      (* The smallest (estimated) relation left. *)
      let smallest () =
        List.fold_left
          (fun best (tv, src) ->
            match best with
            | None -> Some (tv, src)
            | Some (_, bsrc) ->
                if source_card src < source_card bsrc then Some (tv, src)
                else best)
          None !remaining
      in
      let src0 = Option.get (smallest ()) in
      join (fst src0);
      (* Residuals have two tuple variables or more, so none is ready
         before the first step. *)
      let steps = ref [] in
      while !remaining <> [] do
        (* Find join edges from the joined set to a single new tv. *)
        let edge_groups = Hashtbl.create 8 in
        List.iter
          (fun (a, b) ->
            let a_in = is_joined a.tv and b_in = is_joined b.tv in
            if a_in && not b_in then begin
              let l = try Hashtbl.find edge_groups b.tv with Not_found -> [] in
              Hashtbl.replace edge_groups b.tv ((a, b) :: l)
            end
            else if b_in && not a_in then begin
              let l = try Hashtbl.find edge_groups a.tv with Not_found -> [] in
              Hashtbl.replace edge_groups a.tv ((b, a) :: l)
            end)
          !joins;
        let next =
          (* The joinable relation with the smallest input. *)
          Hashtbl.fold
            (fun tv keys best ->
              match List.assoc_opt tv !remaining with
              | None -> best
              | Some src -> (
                  let s = source_card src in
                  match best with
                  | Some (_, _, _, bs) when bs <= s -> best
                  | _ -> Some (tv, src, keys, s)))
            edge_groups None
        in
        let tv, src, keys =
          match next with
          | Some (tv, src, keys, _) ->
              (* The join keys are satisfied by the step; drop them so
                 the internal-edge sweep below does not re-filter on
                 them. *)
              joins :=
                List.filter
                  (fun (a, b) ->
                    not
                      (List.exists
                         (fun (ka, kb) ->
                           (equal_attr a ka && equal_attr b kb)
                           || (equal_attr a kb && equal_attr b ka))
                         keys))
                  !joins;
              (tv, src, keys)
          | None ->
              (* No connecting edge: cartesian step with the smallest rest. *)
              let tv, src = Option.get (smallest ()) in
              (tv, src, [])
        in
        join tv;
        (* Any join edge that has become internal (both sides joined)
           but was not one of the keys. *)
        let internal, external_ =
          List.partition (fun (a, b) -> is_joined a.tv && is_joined b.tv) !joins
        in
        joins := external_;
        let ready, rest =
          List.partition
            (fun p -> List.for_all is_joined (tvs_of_pred p))
            !residual
        in
        residual := rest;
        steps :=
          {
            var = tv;
            src;
            keys;
            internal = List.map (fun (a, b) -> P_cmp (Eq, S_attr a, S_attr b)) internal;
            ready;
          }
          :: !steps
      done;
      if !residual <> [] then
        err "executor: residual predicates with unknown tuple variables";
      { src0; steps = List.rev !steps }

(* Run a plan to its joined view: each step joins the source through
   its access path — against a lazy base table with an index on a join
   column, an index-nested loop; against a filtered one, the same when
   [probe_cheaper]; otherwise a hash join of the source's
   materialization — then filters by the step's closed edges and ready
   residuals. *)
and join_plan gov (plan : plan) : vrel =
  List.fold_left
    (fun cur s ->
      let joined =
        match (s.keys, s.src) with
        | [], src -> cross_product gov cur (force src)
        | keys, S_base { alias; tbl } -> (
            match index_nl_join gov cur keys alias tbl with
            | Some v -> v
            | None -> hash_join gov cur (force s.src) keys)
        | keys, S_filtered { alias; tbl; preds; card; _ }
          when probe_cheaper cur.nrows keys tbl card ->
            (* Fanout is at least 1, so |current| < card: the hash join
               this replaces would have built on the current side, whose
               order [~filter] emits. *)
            Option.get (index_nl_join gov ~filter:preds cur keys alias tbl)
        | keys, src -> hash_join gov cur (force src) keys
      in
      filter_vrel gov (filter_vrel gov joined s.internal) s.ready)
    (force (snd plan.src0))
    plan.steps

(* Search a plan depth-first for its first complete joined row, and
   return it (a one-row view) or no row.  Rows are identified per
   source: a base table's by their storage row id, a materialized
   view's by its row number; [row.(i)] holds source i's row in the
   prefix being extended.  Each step reaches its candidates through the
   access path [join_plan] would use, built when the search first
   reaches the step:
   - an index probe where the loop runs an index-nested loop: base rows
     descending per bucket, a filtered table's checked against its
     local predicates;
   - a filtered table probed until [probe_cheaper] fails for the probes
     made, then through a hash table on its filtered view;
   - otherwise a hash table on the step's input, chains in descending
     row order, as [hash_join] builds it;
   - a cartesian step walks its source in row order.
   It crosses a step's chaos points when it first reaches the step
   ([Scan] when it forces a base table, [Join_probe] for an index,
   [Join_build] then [Join_probe] for a table), polls the governor per
   candidate, and charges each prefix it extends as one joined row. *)
and search_plan gov (plan : plan) : vrel =
  let srcs = Array.of_list (plan.src0 :: List.map (fun s -> (s.var, s.src)) plan.steps) in
  let steps = Array.of_list plan.steps in
  let n = Array.length srcs in
  let row = Array.make n 0 in
  let index_of tv =
    match Array.find_index (fun (t, _) -> t = tv) srcs with
    | Some i -> i
    | None -> err "executor: unresolved tuple variable %s" tv
  in
  (* Column [a] of source i's row [r]. *)
  let cell i (a : attr) : int -> Value.t =
    match snd srcs.(i) with
    | S_base { alias; tbl } | S_filtered { alias; tbl; _ } ->
        let rows = Batch.unsafe_rows (Table.batch tbl) in
        let ci = base_col_idx alias tbl a in
        fun r -> rows.(r).(ci)
    | S_mat v -> attr_reader v a
  in
  (* Column [a] of the prefix. *)
  let read (a : attr) =
    let i = index_of a.tv in
    let f = cell i a in
    fun (_ : int) -> f row.(i)
  in
  (* Source i's rows as the join loop forces them: how many, and each
     one's row id. *)
  let rows_of i =
    match snd srcs.(i) with
    | S_base { tbl; _ } ->
        Chaos.point Chaos.Scan;
        (Table.cardinality tbl, Fun.id)
    | S_filtered { view; _ } ->
        let v = Lazy.force view in
        let ids = v.rids.(0) in
        (v.nrows, fun r -> ids.(r))
    | S_mat v -> (v.nrows, Fun.id)
  in
  (* Step i's candidates matching the prefix: [each k] calls [k r] on
     each such row [r] of source i. *)
  let access i (s : step) : (int -> unit) -> unit =
    let pairs = List.map (fun (a, b) -> (read a, cell i b)) s.keys in
    let matches pairs r =
      List.for_all (fun (pa, cb) -> Value.equal (pa 0) (cb r)) pairs
    in
    let hashed ~first =
      let nb, id = rows_of i in
      if first then Chaos.point Chaos.Join_build;
      (* The hash of the key values [value] reads off each pair at [x]:
         a candidate row's, or the prefix's. *)
      let hash value x =
        match pairs with
        | [ p ] -> Value.hash (value p x)
        | _ -> List.fold_left (fun h p -> (h * 31) + Value.hash (value p x)) 17 pairs
      in
      (* A candidate row's slot, and the prefix's (-1: no candidate).  As
         in [hash_join], a single key whose candidates are all ints in a
         dense span is slotted by value, any other key by its hash. *)
      let span =
        match pairs with [ (_, cb) ] -> int_span nb (fun b -> cb (id b)) | _ -> None
      in
      let slots, row_slot, prefix_slot =
        match (pairs, span) with
        | [ (pa, cb) ], Some (lo, hi) ->
            ( hi - lo + 1,
              (fun r -> Value.int_key (cb r) - lo),
              fun () ->
                let k = Value.int_key (pa 0) in
                if k >= lo && k <= hi then k - lo else -1 )
        | _ ->
            let slots =
              let rec grow s = if s >= nb then s else grow (2 * s) in
              grow 1
            in
            let mask = slots - 1 in
            ( slots,
              (fun r -> hash (fun (_, cb) r -> cb r) r land mask),
              fun () -> hash (fun (pa, _) () -> pa 0) () land mask )
      in
      let head = Array.make slots (-1) and next = Array.make nb (-1) in
      for b = 0 to nb - 1 do
        g_poll gov;
        let sl = row_slot (id b) in
        next.(b) <- head.(sl);
        head.(sl) <- b
      done;
      if first then Chaos.point Chaos.Join_probe;
      fun k ->
        let s = prefix_slot () in
        let b = ref (if s < 0 then -1 else head.(s)) in
        while !b >= 0 do
          g_poll gov;
          let r = id !b in
          if matches pairs r then k r;
          b := next.(!b)
        done
    in
    let probed ?(keep = fun _ -> true) tbl =
      match
        List.find_index (fun ((_ : attr), (b : attr)) -> Table.has_index tbl b.col) s.keys
      with
      | None -> None
      | Some j ->
          let pa, pb = List.nth s.keys j in
          let probe = Option.get (Table.prober tbl pb.col) in
          let key = read pa in
          let others = List.filteri (fun j' _ -> j' <> j) pairs in
          Chaos.point Chaos.Join_probe;
          Some
            (fun k ->
              let { Table.ids; len } = probe (key 0) in
              for j = len - 1 downto 0 do
                g_poll gov;
                let r = ids.(j) in
                if keep r && matches others r then k r
              done)
    in
    match (s.keys, s.src) with
    | [], _ ->
        let nb, id = rows_of i in
        fun k ->
          for b = 0 to nb - 1 do
            g_poll gov;
            k (id b)
          done
    | _, S_base { tbl; _ } -> (
        match probed tbl with Some each -> each | None -> hashed ~first:true)
    | keys, S_filtered { alias; tbl; preds; card; _ } ->
        if not (probe_cheaper 1 keys tbl card) then hashed ~first:true
        else begin
          let probe =
            Option.get (probed ~keep:(compile_base_pred alias tbl (conj preds)) tbl)
          in
          let probes = ref 0 and table = ref None in
          fun k ->
            match !table with
            | Some each -> each k
            | None when probe_cheaper (!probes + 1) keys tbl card ->
                incr probes;
                probe k
            | None ->
                let each = hashed ~first:false in
                table := Some each;
                each k
        end
    | _, S_mat _ -> hashed ~first:true
  in
  let exception Found in
  let each = Array.make n (fun _ -> ()) and conts = Array.make n ignore in
  let extend i = if i = n then raise Found else each.(i) conts.(i) in
  Array.iteri
    (fun j s ->
      let i = j + 1 in
      let post =
        match s.internal @ s.ready with
        | [] -> fun _ -> true
        | ps -> compile_pred_with read (conj ps)
      in
      (* Built on first arrival. *)
      each.(i) <-
        (fun k ->
          let f = access i s in
          each.(i) <- f;
          f k);
      conts.(i) <-
        (fun r ->
          row.(i) <- r;
          if post 0 then begin
            g_rows gov 1;
            extend (i + 1)
          end))
    steps;
  let headers = Array.map (fun (_, src) -> source_header src) srcs in
  let header = Array.concat (Array.to_list headers) in
  match
    let n0, id0 = rows_of 0 in
    for r = 0 to n0 - 1 do
      g_poll gov;
      row.(0) <- id0 r;
      extend 1
    done
  with
  | () -> empty_vrel header
  | exception Found ->
      let off = ref 0 in
      let parts, rids =
        List.split
          (Array.to_list
             (Array.mapi
                (fun i (_, src) ->
                  let r = row.(i) and o = !off in
                  let width = Array.length headers.(i) in
                  off := o + width;
                  match src with
                  | S_base { tbl; _ } | S_filtered { tbl; _ } ->
                      ([| { batch = Table.batch tbl; off = o; width } |], [| [| r |] |])
                  | S_mat v ->
                      ( Array.map (fun p -> { p with off = p.off + o }) v.parts,
                        Array.map (fun rid -> [| rid.(r) |]) v.rids ))
                srcs))
      in
      { header; parts = Array.concat parts; nrows = 1; rids = Array.concat rids }

(* Evaluate a conjunctive block (see [plan_conjunctive]) to its joined
   view.  [?distinct] marks a DISTINCT block and lists the attributes
   its output reads.  When a conjunct [attr = constant] pins every one
   of them, all the block's rows have one output, so the block has at
   most one distinct row: [search_plan] stops at its first joined row
   instead of joining them all.  Every other block runs [join_plan]. *)
and join_conjunctive gov ?distinct sources conjuncts : vrel =
  let plan = plan_conjunctive gov sources conjuncts in
  match distinct with
  | Some reads when List.for_all (pinned conjuncts) reads -> search_plan gov plan
  | _ -> join_plan gov plan

(* --------------------------------------------------------------------- *)
(* Aggregation                                                            *)
(* --------------------------------------------------------------------- *)

(* [rows] are output-row indices of [v] (one group). *)
and agg_of_rows v agg (rows : int list) =
  match agg with
  | A_count_star ->
      let rec len acc = function [] -> acc | _ :: t -> len (acc + 1) t in
      Value.Int (len 0 rows)
  | A_count a ->
      let read = attr_reader v a in
      Value.Int
        (List.fold_left
           (fun n r -> if read r <> Value.Null then n + 1 else n)
           0 rows)
  | A_sum a ->
      let read = attr_reader v a in
      let fsum, is_float =
        List.fold_left
          (fun (acc, isf) r ->
            match read r with
            | Value.Int v -> (acc +. float_of_int v, isf)
            | Value.Float v -> (acc +. v, true)
            | Value.Null -> (acc, isf)
            | v -> err "sum over non-numeric value %s" (Value.to_string v))
          (0., false) rows
      in
      if is_float then Value.Float fsum else Value.Int (int_of_float fsum)
  | A_min a ->
      let read = attr_reader v a in
      List.fold_left
        (fun acc r ->
          let x = read r in
          if x = Value.Null then acc
          else
            match acc with
            | Value.Null -> x
            | m -> if Value.compare x m < 0 then x else m)
        Value.Null rows
  | A_max a ->
      let read = attr_reader v a in
      List.fold_left
        (fun acc r ->
          let x = read r in
          if x = Value.Null then acc
          else
            match acc with
            | Value.Null -> x
            | m -> if Value.compare x m > 0 then x else m)
        Value.Null rows
  | A_avg a ->
      let read = attr_reader v a in
      let sum, n =
        List.fold_left
          (fun (acc, n) r ->
            match read r with
            | Value.Int v -> (acc +. float_of_int v, n + 1)
            | Value.Float v -> (acc +. v, n + 1)
            | Value.Null -> (acc, n)
            | v -> err "avg over non-numeric value %s" (Value.to_string v))
          (0., 0) rows
      in
      if n = 0 then Value.Null else Value.Float (sum /. float_of_int n)
  | A_doi_conj (doi_a, pref_a) ->
      (* The paper's aggregate: combine, with the conjunctive function
         1 - prod(1 - d_i), the degrees of the *distinct* preferences the
         group satisfies (a preference can reach a row through several
         partial queries only once). *)
      let dread = attr_reader v doi_a and pread = attr_reader v pref_a in
      let seen = Row_tbl.create 8 in
      let prod = ref 1.0 in
      List.iter
        (fun r ->
          let key = [| pread r |] in
          if not (Row_tbl.mem seen key) then begin
            Row_tbl.add seen key ();
            let d =
              match dread r with
              | Value.Float f -> f
              | Value.Int i -> float_of_int i
              | v ->
                  err "degree_of_conjunction over non-numeric %s"
                    (Value.to_string v)
            in
            prod := !prod *. (1. -. d)
          end)
        rows;
      Value.Float (1. -. !prod)

and eval_having v rows h =
  let rec go = function
    | H_and hs -> List.for_all go hs
    | H_or hs -> List.exists go hs
    | H_cmp (op, l, r) ->
        let value = function
          | H_agg a -> agg_of_rows v a rows
          | H_const c -> c
        in
        eval_cmp op (value l) (value r)
  in
  go h

(* --------------------------------------------------------------------- *)
(* Post-pipeline: group / having / project, then the tail                *)
(* --------------------------------------------------------------------- *)

and post_pipeline gov (q : query) (w : vrel) : result =
  (* The projection produces [w.nrows] rows (before DISTINCT/LIMIT);
     account for them up front so a scan-only query is still governed. *)
  g_rows gov w.nrows;
  let has_aggs =
    List.exists (function Sel_agg _ -> true | _ -> false) q.select
    || q.having <> None
    || List.exists (function O_agg _, _ -> true | _ -> false) q.order_by
  in
  let out_names = Array.of_list (select_output_names q) in
  tail gov q out_names
    (if q.group_by <> [] || has_aggs then grouped q out_names w
     else projection q out_names w)

(* One row per group of [w]'s rows that HAVING keeps, groups in
   first-seen order. *)
and grouped (q : query) out_names (w : vrel) : rows =
  let kreads = Array.of_list (List.map (attr_reader w) q.group_by) in
  let nk = Array.length kreads in
  let groups = Row_tbl.create 64 in
  let order = ref [] in
  for r = 0 to w.nrows - 1 do
    let k = Array.init nk (fun i -> kreads.(i) r) in
    match Row_tbl.find_opt groups k with
    | Some l -> l := r :: !l
    | None ->
        Row_tbl.add groups k (ref [ r ]);
        order := k :: !order
  done;
  let pending = ref (List.rev !order) in
  (* The group whose row [next] returned last, its rows newest-first. *)
  let rows = ref [] in
  let rec next () =
    match !pending with
    | [] -> eos
    | k :: rest -> (
        pending := rest;
        rows := !(Row_tbl.find groups k);
        match q.having with
        | Some h when not (eval_having w !rows h) -> next ()
        | _ ->
            Array.of_list
              (List.map
                 (function
                   | Sel_attr (a, _) -> attr_reader w a (List.hd !rows)
                   | Sel_const (v, _) -> v
                   | Sel_agg (agg, _) -> agg_of_rows w agg !rows)
                 q.select))
  in
  let key out =
    List.map
      (fun (key, d) ->
        let v =
          match key with
          | O_attr a -> attr_reader w a (List.hd !rows)
          | O_agg agg -> agg_of_rows w agg !rows
          | O_alias name -> out.(alias_idx out_names name)
        in
        (v, d))
      q.order_by
  in
  { next; key }

(* --------------------------------------------------------------------- *)
(* DNF splitting (for DISTINCT + disjunctive qualifications, i.e. SQ)     *)
(* --------------------------------------------------------------------- *)

and dnf_branches cap p : pred list list option =
  (* Returns up to [cap] conjunctions of "literal" predicates, or None if
     the expansion would exceed [cap]. *)
  let product l1 l2 =
    List.concat_map (fun c1 -> List.map (fun c2 -> c1 @ c2) l2) l1
  in
  let rec go p : pred list list option =
    match p with
    | P_true -> Some [ [] ]
    | P_false -> Some []
    | P_cmp _ | P_not _ -> Some [ [ p ] ]
    | P_or ps ->
        List.fold_left
          (fun acc p ->
            match (acc, go p) with
            | Some a, Some b when List.length a + List.length b <= cap ->
                Some (a @ b)
            | _ -> None)
          (Some []) ps
    | P_and ps ->
        List.fold_left
          (fun acc p ->
            match (acc, go p) with
            | Some a, Some b when List.length a * List.length b <= cap ->
                Some (product a b)
            | _ -> None)
          (Some [ [] ]) ps
  in
  go p

(* --------------------------------------------------------------------- *)
(* MQ in one pass                                                         *)
(* --------------------------------------------------------------------- *)

(* Each partial's joined view streams straight into one group table: no
   partial's rows are projected into a list, no derived batch is built,
   and there is no second grouping pass.  The reply is the generic
   path's, bit for bit:
   - the generic union emits the last partial's rows first (r_K @ ... @
     r_1), and groups come out in first-seen order over those rows: a
     group first appears in the last partial that produced it, at its
     first row there.  [touched.(j)] lists the groups partial j
     produced, in that order, and a group is emitted with the partial
     that is its [last];
   - [degree_of_conjunction] multiplies (1 - d) over a group's rows
     newest-first, that is partial 1's row first: the order partials
     run in here.  Preference ids are distinct ([mq_shape]), so no row
     repeats one;
   - a partial is DISTINCT, and its degree and id are constants, so its
     rows are its distinct keys: [last] counts each key once per
     partial, where the generic path projects and de-duplicates.
   The governor is charged and polled as the generic path does: each
   partial's joined rows, a poll per joined row, then the union's rows.
   The partials run in UNION ALL order, crossing the same chaos points. *)
and run_mq gov db (q : query) (mq : mq) : result =
  let groups = Row_tbl.create 64 in
  let touched = Array.make (List.length mq.partials) [] in
  let union_rows = ref 0 in
  List.iteri
    (fun j ((p : query), d) ->
      let w =
        join_conjunctive gov ~distinct:(sel_attrs p.select)
          (List.map (source_of_from gov db) p.from)
          (conjuncts p.where)
      in
      g_rows gov w.nrows;
      let reads =
        Array.of_list
          (List.filter_map
             (function Sel_attr (a, _) -> Some (attr_reader w a) | _ -> None)
             p.select)
      in
      let seg = ref [] in
      for r = 0 to w.nrows - 1 do
        g_poll gov;
        let key = Array.init mq.width (fun i -> reads.(i) r) in
        match Row_tbl.find groups key with
        | g ->
            if g.last <> j then begin
              g.last <- j;
              g.count <- g.count + 1;
              g.prod <- g.prod *. d;
              seg := g :: !seg
            end
        | exception Not_found ->
            let g = { key; last = j; count = 1; prod = d } in
            Row_tbl.add groups key g;
            seg := g :: !seg
      done;
      union_rows := !union_rows + List.length !seg;
      touched.(j) <- !seg)
    mq.partials;
  g_rows gov !union_rows;
  (* Consing partial 0's groups first, each list newest-first, leaves the
     last partial's groups at the head, each list in its own order. *)
  let pending = ref [] in
  Array.iteri
    (fun j seg ->
      List.iter (fun g -> if g.last = j then pending := g :: !pending) seg)
    touched;
  let rec next () =
    match !pending with
    | [] -> eos
    | g :: rest ->
        pending := rest;
        if mq.keep g then Array.of_list (List.map (fun f -> f g) mq.items)
        else next ()
  in
  tail gov q
    (Array.of_list (select_output_names q))
    { next; key = (fun out -> List.map (fun (i, d) -> (out.(i), d)) mq.order) }

(* --------------------------------------------------------------------- *)
(* Top-level evaluation                                                   *)
(* --------------------------------------------------------------------- *)

and run_auto gov db (q : query) : result =
  match mq_shape q with
  | Some mq -> run_mq gov db q mq
  | None -> run_generic gov db q

and run_generic gov db (q : query) : result =
  let wrels = List.map (source_of_from gov db) q.from in
  let has_aggs =
    List.exists (function Sel_agg _ -> true | _ -> false) q.select
    || q.having <> None
  in
  let dnf_eligible =
    q.distinct && q.group_by = [] && (not has_aggs) && contains_or q.where
  in
  let dnf = if dnf_eligible then dnf_branches max_branches q.where else None in
  match dnf with
  | Some branches ->
      (* Each conjunctive branch runs over only the tuple variables it (or
         the output) references; unreferenced FROM entries must merely be
         non-empty (sound because DISTINCT erases multiplicities).  The
         branches project, one after another, straight into the tail,
         whose DISTINCT merges them. *)
      (* A branch's rows meet the other branches' in the tail, where
         ORDER BY reads them too. *)
      let reads =
        sel_attrs q.select
        @ List.filter_map (function O_attr a, _ -> Some a | _ -> None) q.order_by
      in
      let needed_base =
        List.sort_uniq String.compare (List.map (fun (a : attr) -> a.tv) reads)
      in
      let out_names = Array.of_list (select_output_names q) in
      let pending = ref branches in
      let branch_rows = ref { next = (fun () -> eos); key = (fun _ -> []) } in
      let rec next () =
        let out = !branch_rows.next () in
        if out != eos then out
        else
          match !pending with
          | [] -> eos
          | branch :: rest ->
              pending := rest;
              let branch_tvs =
                List.sort_uniq String.compare
                  (needed_base @ List.concat_map tvs_of_pred branch)
              in
              let used, unused =
                List.partition (fun (tv, _) -> List.mem tv branch_tvs) wrels
              in
              let nonempty_unused =
                List.for_all (fun (_, src) -> source_card src > 0) unused
              in
              if nonempty_unused && used <> [] then begin
                let w = join_conjunctive gov ~distinct:reads used branch in
                g_rows gov w.nrows;
                branch_rows := projection q out_names w
              end;
              next ()
      in
      tail gov q out_names { next; key = (fun out -> !branch_rows.key out) }
  | None ->
      let conjuncts = conjuncts q.where in
      (* A DISTINCT projection: with one output, ORDER BY has one row to
         order. *)
      let distinct =
        if
          q.distinct && q.group_by = [] && (not has_aggs)
          && not (List.exists (function O_agg _, _ -> true | _ -> false) q.order_by)
        then Some (sel_attrs q.select)
        else None
      in
      (* Keep disjunctions and other non-splittable factors as residual
         filters inside the conjunctive join. *)
      let joined = join_conjunctive gov ?distinct wrels conjuncts in
      post_pipeline gov { q with where = P_true } joined

and run_naive gov db (q : query) : result =
  let wrels = List.map (materialize_from gov db) q.from in
  let joined =
    match wrels with
    | [] -> err "executor: empty FROM"
    | w :: rest -> List.fold_left (cross_product gov) w rest
  in
  let filtered = filter_vrel gov joined [ q.where ] in
  post_pipeline gov { q with where = P_true } filtered

and run_compound gov db (c : compound) : result =
  match c with
  | C_single q -> run_auto gov db q
  | C_union_all [] -> err "executor: empty UNION ALL"
  | C_union_all (c :: cs) ->
      let first = run_compound gov db c in
      let rows =
        List.fold_left
          (fun acc c' ->
            let r = run_compound gov db c' in
            List.rev_append (List.rev r.rows) acc)
          first.rows cs
      in
      { first with rows }

let streams_mq q = Option.is_some (mq_shape q)

let run ?(strategy = `Auto) ?gov db q =
  (* A deadline that expired before we even start (or between ladder
     rungs) must trip deterministically, not after 64 polls. *)
  (match gov with Some g -> Governor.check_deadline g | None -> ());
  match strategy with
  | `Auto -> run_auto gov db q
  | `Naive -> run_naive gov db q

(* --------------------------------------------------------------------- *)
(* Result helpers                                                         *)
(* --------------------------------------------------------------------- *)

let compare_rows (a : Value.t array) (b : Value.t array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let sort_rows r = { r with rows = List.sort compare_rows r.rows }

let result_equal_list a b =
  List.length a.rows = List.length b.rows
  && List.for_all2 (fun x y -> Key.equal x y) a.rows b.rows

let result_equal_bag a b = result_equal_list (sort_rows a) (sort_rows b)

let pp_result ?(max_rows = 20) fmt r =
  let shown = List.filteri (fun i _ -> i < max_rows) r.rows in
  let cells = List.map (fun row -> Array.map Value.to_string row) shown in
  let ncols = Array.length r.cols in
  let width = Array.make ncols 0 in
  Array.iteri (fun i c -> width.(i) <- String.length c) r.cols;
  List.iter
    (fun row ->
      Array.iteri (fun i s -> width.(i) <- max width.(i) (String.length s)) row)
    cells;
  let line sep =
    Format.pp_print_string fmt sep;
    Array.iteri
      (fun i _ ->
        Format.pp_print_string fmt (String.make (width.(i) + 2) '-');
        Format.pp_print_string fmt sep)
      width;
    Format.pp_print_newline fmt ()
  in
  let row_out (cells : string array) =
    Format.pp_print_string fmt "|";
    Array.iteri
      (fun i s -> Format.fprintf fmt " %-*s |" width.(i) s)
      cells;
    Format.pp_print_newline fmt ()
  in
  line "+";
  row_out r.cols;
  line "+";
  List.iter row_out cells;
  line "+";
  let total = List.length r.rows in
  if total > max_rows then
    Format.fprintf fmt "... (%d of %d rows shown)@." max_rows total
  else Format.fprintf fmt "(%d rows)@." total
