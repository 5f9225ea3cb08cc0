open Relal

type instantiated = {
  path : Path.t;
  index : int;
  pred : Sql_ast.pred;
  trefs : Sql_ast.table_ref list;
}

(* ------------------------------------------------------------------ *)
(* Tuple-variable allocation                                           *)
(* ------------------------------------------------------------------ *)

let alias_base rel =
  (* "directed" -> "dd"-style two-letter base, like the paper's examples
     (MV, PL, GN, CA, AC, DD, DI). *)
  if String.length rel >= 2 then String.sub rel 0 2 else rel

let instantiate db qg paths =
  let used = Hashtbl.create 16 in
  List.iter (fun (tv, _) -> Hashtbl.replace used tv ()) (Qgraph.tvs qg);
  (* A new variable is the first of [base], [base1], [base2], ... not in
     [used].  [used] only grows during this call, so every candidate
     below the last suffix handed out for [base] is still taken: the
     probe starts there ([next]), and the names are the same as probing
     from [base] each time, in time linear in the variables allocated. *)
  let next = Hashtbl.create 8 in
  let fresh rel =
    let base = String.lowercase_ascii (alias_base rel) in
    let i =
      match Hashtbl.find_opt next base with
      | Some i -> i
      | None ->
          let i = ref 0 in
          Hashtbl.add next base i;
          i
    in
    let rec probe () =
      let cand = if !i = 0 then base else base ^ string_of_int !i in
      incr i;
      if Hashtbl.mem used cand then probe () else cand
    in
    let a = probe () in
    Hashtbl.replace used a ();
    a
  in
  (* Cache of shared to-one prefixes: key is the anchor tv plus the join
     chain rendered textually. *)
  let shared : (string, string) Hashtbl.t = Hashtbl.create 16 in
  List.mapi
    (fun index path ->
      let preds = ref [] in
      let trefs = ref [] in
      let current_tv = ref path.Path.anchor_tv in
      let all_to_one = ref true in
      let prefix = Buffer.create 32 in
      Buffer.add_string prefix path.Path.anchor_tv;
      List.iter
        (fun ((j : Atom.join), _) ->
          let to_one =
            Database.join_is_to_one db
              ~from_:(j.Atom.j_from_rel, j.Atom.j_from_att)
              ~to_:(j.Atom.j_to_rel, j.Atom.j_to_att)
          in
          all_to_one := !all_to_one && to_one;
          Buffer.add_string prefix ("|" ^ Atom.to_string (Join j));
          let target_tv =
            if !all_to_one then begin
              let key = Buffer.contents prefix in
              match Hashtbl.find_opt shared key with
              | Some tv -> tv
              | None ->
                  let tv = fresh j.Atom.j_to_rel in
                  Hashtbl.add shared key tv;
                  tv
            end
            else fresh j.Atom.j_to_rel
          in
          (* A shared variable's tref is attached to this instantiation
             too, so FROM collection remains per-preference. *)
          trefs := { Sql_ast.rel = j.Atom.j_to_rel; alias = target_tv } :: !trefs;
          preds :=
            Sql_ast.P_cmp
              ( Eq,
                S_attr (Sql_ast.attr !current_tv j.Atom.j_from_att),
                S_attr (Sql_ast.attr target_tv j.Atom.j_to_att) )
            :: !preds;
          current_tv := target_tv)
        path.Path.joins;
      (match path.Path.sel with
      | None -> ()
      | Some ((s : Atom.selection), _) ->
          preds :=
            Sql_ast.P_cmp
              ( s.Atom.s_op,
                S_attr (Sql_ast.attr !current_tv s.Atom.s_att),
                S_const s.Atom.s_val )
            :: !preds);
      let trefs = List.rev !trefs in
      (* Bound here, as a query's WHERE is: a profile's atoms get their
         schema checks, and its date strings their coercion, before any
         query is built from them. *)
      let anchor =
        {
          Sql_ast.rel = Option.get (Qgraph.rel_of_tv qg path.Path.anchor_tv);
          alias = path.Path.anchor_tv;
        }
      in
      let pred =
        Binder.bind_pred_over db (anchor :: trefs) (Sql_ast.conj (List.rev !preds))
      in
      { path; index; pred; trefs })
    paths

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let split_mandatory ~m prefs degree_of =
  match m with
  | `Count m ->
      let rec go i acc = function
        | rest when i = m -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | p :: rest -> go (i + 1) (p :: acc) rest
      in
      go 0 [] prefs
  | `Min_degree d ->
      List.partition (fun p -> Degree.to_float (degree_of p) >= d) prefs

(* The elements of [xs] whose key is neither in [known] nor the key of
   an earlier element, in order, and the table of the keys kept. *)
let dedup ?known key xs =
  let seen = Hashtbl.create 16 in
  let known = match known with Some t -> Hashtbl.mem t | None -> fun _ -> false in
  let kept =
    List.filter
      (fun x ->
        let k = key x in
        if known k || Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      xs
  in
  (kept, seen)

let pred_key = Sql_print.pred_to_string
let tref_key (r : Sql_ast.table_ref) = r.Sql_ast.alias
let dedup_conjuncts preds = fst (dedup pred_key preds)

(* Integration joins a query's projection to its partial queries'
   outputs: one that is not attribute-only is no SPJ query. *)
let projection_attrs (q : Sql_ast.query) =
  List.map
    (function
      | Sql_ast.Sel_attr (a, _) -> a
      | _ ->
          raise
            (Qgraph.Not_conjunctive
               "personalizable queries must project plain attributes"))
    q.Sql_ast.select

let bad_l what l optional =
  invalid_arg
    (Printf.sprintf "Integrate.%s: L = %d with %d optional preferences" what l
       (List.length optional))

(* Output names of the original projection, uniquified for use as the
   derived-table columns of MQ: a repeat of [n] becomes [n_k] for the
   least k above the last one [n] used whose name is neither an output
   name of the query nor already assigned. *)
let uniquified_outputs (q : Sql_ast.query) =
  let names = Sql_ast.select_output_names q in
  let taken = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace taken n ()) names;
  let last = Hashtbl.create 8 in
  List.map
    (fun n ->
      match Hashtbl.find_opt last n with
      | None ->
          Hashtbl.add last n 1;
          n
      | Some k ->
          let rec probe k =
            let cand = Printf.sprintf "%s_%d" n k in
            if Hashtbl.mem taken cand then probe (k + 1) else (k, cand)
          in
          let k, cand = probe (k + 1) in
          Hashtbl.replace last n k;
          Hashtbl.add taken cand ();
          cand)
    names

let preds insts = List.map (fun i -> i.pred) insts

let trefs_of insts = List.concat_map (fun i -> i.trefs) insts

(* SQ, MQ's degenerate case and every partial query are the initial
   query, DISTINCT, joined with the tuple variables of the mandatory
   preferences and then of [vars], and qualified by its own conditions,
   the mandatory ones and then [cond], with repeated conditions and
   variables removed (§6).  The part before [vars] and [cond] is the
   same for every query built for one (Q, mandatory), so [prefix] builds
   it, with the keys the repeat tests need, once, and [joined] appends
   one query's own part. *)
type prefix = {
  q0 : Sql_ast.query;
  from : Sql_ast.from_item list;  (** Q's, then the mandatory variables *)
  aliases : (string, unit) Hashtbl.t;  (** the mandatory variables' *)
  conds : Sql_ast.pred list;  (** Q's conjuncts, then the mandatory conditions *)
  keys : (string, unit) Hashtbl.t;  (** [conds], printed *)
}

let prefix q0 ~mandatory =
  let trefs, aliases = dedup tref_key (trefs_of mandatory) in
  let conds, keys =
    dedup pred_key (Sql_ast.conjuncts q0.Sql_ast.where @ preds mandatory)
  in
  {
    q0;
    from = q0.Sql_ast.from @ List.map (fun r -> Sql_ast.F_rel r) trefs;
    aliases;
    conds;
    keys;
  }

let joined pre ~vars ~cond =
  let trefs, _ = dedup ~known:pre.aliases tref_key (trefs_of vars) in
  let cond = if Hashtbl.mem pre.keys (pred_key cond) then [] else [ cond ] in
  {
    pre.q0 with
    Sql_ast.distinct = true;
    from = pre.from @ List.map (fun r -> Sql_ast.F_rel r) trefs;
    where = Sql_ast.conj (pre.conds @ cond);
  }

let partial_of ?select ?limit pre inst =
  {
    (joined pre ~vars:[ inst ] ~cond:inst.pred) with
    Sql_ast.select = Option.value select ~default:pre.q0.Sql_ast.select;
    order_by = [];
    limit;
  }

let partial ?select ?limit qg ~mandatory inst =
  partial_of ?select ?limit (prefix (Qgraph.query qg) ~mandatory) inst

(* ------------------------------------------------------------------ *)
(* SQ                                                                  *)
(* ------------------------------------------------------------------ *)

let sq_max_visits = 1_000_000

let refuse exhausted =
  raise
    (Governor.Exhausted { exhausted; rows_produced = 0; expansions = 0; elapsed_ms = 0. })

(* The conjunctions of the conflict-free [l]-subsets of [optional], in
   the lexicographic order of positions, repeated conditions removed, and
   their members in order of first occurrence.  The walk extends a prefix
   only by a later candidate that conflicts with none of its members.
   It stops past [Exec.max_branches] conjunctions or [sq_max_visits]
   steps (pairs the matrix decides, prefixes formed). *)
let conjunctions db optional l =
  let a = Array.of_list optional in
  let n = Array.length a in
  let visits = ref 0 in
  let step () =
    incr visits;
    if !visits > sq_max_visits then
      refuse
        (Printf.sprintf "SQ conjunctions: past the cap of %d enumeration steps"
           sq_max_visits)
  in
  (* The matrix's upper triangle, row by row; below L = 2 no pair is
     ever tested. *)
  let conflicts =
    Array.init (if l < 2 then 0 else n) (fun i ->
        Bytes.init n (fun j ->
            if j <= i then '\000'
            else begin
              step ();
              if Conflict.paths_conflict db a.(i).path a.(j).path then '\001' else '\000'
            end))
  in
  let chosen = Array.make l 0 and combos = ref [] and count = ref 0 in
  let emit () =
    incr count;
    if !count > Exec.max_branches then
      refuse
        (Printf.sprintf "SQ conjunctions: more than the executor's %d branches"
           Exec.max_branches);
    combos := Array.to_list chosen :: !combos
  in
  (* Does [j] conflict with none of the first [depth] members chosen? *)
  let rec clear depth j k =
    k = depth
    || (Bytes.get conflicts.(chosen.(k)) j = '\000' && clear depth j (k + 1))
  in
  let rec extend depth from =
    if depth = l then emit ()
    else
      for j = from to n - l + depth do
        step ();
        if clear depth j 0 then begin
          chosen.(depth) <- j;
          extend (depth + 1) (j + 1)
        end
      done
  in
  extend 0 0;
  let combos = List.rev !combos and keys = Array.map (fun i -> pred_key i.pred) a in
  let conj c =
    let kept, _ = dedup (Array.get keys) c in
    Sql_ast.conj (List.map (fun i -> a.(i).pred) kept)
  in
  let vars, _ = dedup Fun.id (List.concat combos) in
  (List.map conj combos, List.map (Array.get a) vars)

let rec pairwise_conflict_free db = function
  | [] -> true
  | x :: rest ->
      List.for_all (fun y -> not (Conflict.paths_conflict db x.path y.path)) rest
      && pairwise_conflict_free db rest

(* With no conflict-free combination the disjunction is empty: FALSE,
   as a conflicting mandatory pair makes the whole qualification. *)
let sq db qg ~mandatory ~optional ~l =
  let q0 = Qgraph.query qg in
  ignore (projection_attrs q0 : Sql_ast.attr list);
  if l < 0 || l > List.length optional then bad_l "sq" l optional;
  let conjs, vars = conjunctions db optional l in
  let q = joined (prefix q0 ~mandatory) ~vars ~cond:(Sql_ast.disj conjs) in
  if pairwise_conflict_free db mandatory then q
  else { q with Sql_ast.where = Sql_ast.P_false }

(* ------------------------------------------------------------------ *)
(* MQ                                                                  *)
(* ------------------------------------------------------------------ *)

let mq ?(rank = true) db qg ~mandatory ~optional ~l () =
  let q0 = Qgraph.query qg in
  let proj_attrs = projection_attrs q0 in
  (match l with
  | `At_least n when n < 0 || (optional <> [] && n > List.length optional) ->
      bad_l "mq" n optional
  | _ -> ());
  match (optional, l) with
  | [], _ | _, `At_least 0 ->
      (* Degenerate: nothing optional to require, which is SQ at L = 0. *)
      sq db qg ~mandatory ~optional:[] ~l:0
  | _ ->
      let out_names = uniquified_outputs q0 in
      let pre = prefix q0 ~mandatory in
      let branch inst =
        let select =
          List.map2
            (fun a name -> Sql_ast.Sel_attr (a, Some name))
            proj_attrs out_names
          @ [
              Sql_ast.Sel_const
                (Value.Float (Degree.to_float inst.path.Path.degree), "doi");
              Sql_ast.Sel_const (Value.Int inst.index, "pref");
            ]
        in
        Sql_ast.C_single (partial_of ~select pre inst)
      in
      let union = Sql_ast.C_union_all (List.map branch optional) in
      let t = "temp" in
      let group_by = List.map (fun n -> Sql_ast.attr t n) out_names in
      let doi_agg =
        Sql_ast.A_doi_conj (Sql_ast.attr t "doi", Sql_ast.attr t "pref")
      in
      let having =
        match l with
        | `At_least n ->
            Sql_ast.H_cmp (Ge, H_agg Sql_ast.A_count_star, H_const (Value.Int n))
        | `Min_doi d ->
            Sql_ast.H_cmp (Gt, H_agg doi_agg, H_const (Value.Float d))
      in
      let select =
        List.map (fun n -> Sql_ast.Sel_attr (Sql_ast.attr t n, Some n)) out_names
        @ (if rank then [ Sql_ast.Sel_agg (doi_agg, "doi") ] else [])
      in
      Sql_ast.query ~distinct:false ~group_by ~having
        ~order_by:(if rank then [ (Sql_ast.O_alias "doi", Sql_ast.Desc) ] else [])
        ~select
        ~from:[ Sql_ast.F_derived (union, t) ]
        ~where:Sql_ast.P_true ()

(* ------------------------------------------------------------------ *)
(* Ranked evaluation of partial queries (§8 extensions)                *)
(* ------------------------------------------------------------------ *)

let accumulate db qg ~mandatory insts =
  let pre = prefix (Qgraph.query qg) ~mandatory in
  let acc = Exec.Row_tbl.create 64 in
  List.iter
    (fun inst ->
      let d = inst.path.Path.degree in
      List.iter
        (fun row ->
          Exec.Row_tbl.replace acc row
            (d :: Option.value ~default:[] (Exec.Row_tbl.find_opt acc row)))
        (Engine.run_query db (partial_of pre inst)).Exec.rows)
    insts;
  acc

let printed_row row = Array.map Value.to_string row

let sort_ranked ~score ~row xs =
  List.sort
    (fun a b ->
      match Float.compare (score b) (score a) with
      | 0 -> compare (printed_row (row a)) (printed_row (row b))
      | c -> c)
    xs
