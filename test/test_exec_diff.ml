(* Differential executor test: the batch (vrel / row-id) executor must
   agree, on sorted rows, with an *independent* cross-product + filter
   reference evaluator written here against plain value lists — no vrel,
   no Batch, no shared join machinery.  The corpus is the full SQL set
   exercised by test_exec.ml plus the Moviedb.Workload generator's query
   set; shapes the reference cannot express (aggregates, derived tables,
   LIMIT) are still cross-checked Auto vs Naive. *)

open Relal
open Sql_ast

exception Unsupported

(* ------------------- Independent reference evaluator ------------------- *)

(* Environments are association lists (tv -> (column names, row)); the
   FROM product is built by list comprehension, WHERE is evaluated per
   environment, and projection materializes plain rows.  ORDER BY is
   ignored (all comparisons are on sorted rows); LIMIT is refused. *)
let ref_eval db (q : query) : Exec.result =
  if q.group_by <> [] || q.having <> None || q.limit <> None then
    raise Unsupported;
  let tables =
    List.map
      (function
        | F_derived _ -> raise Unsupported
        | F_rel r -> (
            match Database.find_table db r.rel with
            | None -> raise Unsupported
            | Some t ->
                let cols =
                  Array.map
                    (fun c -> c.Schema.cname)
                    (Schema.columns (Table.schema t))
                in
                (r.alias, cols, Table.to_list t)))
      q.from
  in
  let envs =
    List.fold_left
      (fun acc (tv, cols, rows) ->
        List.concat_map
          (fun env -> List.map (fun row -> (tv, cols, row) :: env) rows)
          acc)
      [ [] ] tables
  in
  let lookup env (a : attr) =
    let _, cols, row =
      try List.find (fun (tv, _, _) -> tv = a.tv) env
      with Not_found -> raise Unsupported
    in
    let rec find i =
      if i >= Array.length cols then raise Unsupported
      else if cols.(i) = a.col then row.(i)
      else find (i + 1)
    in
    find 0
  in
  let scalar env = function S_const c -> c | S_attr a -> lookup env a in
  let rec holds env = function
    | P_true -> true
    | P_false -> false
    | P_not p -> not (holds env p)
    | P_and ps -> List.for_all (holds env) ps
    | P_or ps -> List.exists (holds env) ps
    | P_cmp (op, l, r) -> (
        let a = scalar env l and b = scalar env r in
        match op with
        | Eq -> Value.equal a b
        | Ne -> not (Value.equal a b)
        | Lt -> Value.compare a b < 0
        | Le -> Value.compare a b <= 0
        | Gt -> Value.compare a b > 0
        | Ge -> Value.compare a b >= 0)
  in
  let project env =
    Array.of_list
      (List.map
         (function
           | Sel_attr (a, _) -> lookup env a
           | Sel_const (v, _) -> v
           | Sel_agg _ -> raise Unsupported)
         q.select)
  in
  let rows =
    List.filter_map
      (fun env -> if holds env q.where then Some (project env) else None)
      envs
  in
  let rows =
    if q.distinct then begin
      let seen = Hashtbl.create 64 in
      List.filter (fun r ->
          let k = Array.to_list r in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        rows
    end
    else rows
  in
  { Exec.cols = Array.of_list (select_output_names q); rows }

(* ----------------------------- Corpus ---------------------------------- *)

(* Every SQL text test_exec.ml runs (operator coverage); the reference
   evaluator handles the SPJ subset and raises [Unsupported] on the rest,
   which stays covered by the strategy cross-check. *)
let corpus =
  [
    "select m.title from movie m where m.year = 2000";
    "select m.title, 1 as tag from movie m where m.year = 1998";
    "select title from movie where year = 2003";
    "select m.title from movie m, play p where m.mid = p.mid and p.date = \
     '2003-07-02'";
    "select m.title from movie m, play p where m.mid = p.mid and p.date = \
     '2/7/2003'";
    "select m.title from movie m, directed d, director r where m.mid = d.mid \
     and d.did = r.did and r.name = 'D. Lynch'";
    "select distinct m2.title from movie m1, directed d1, directed d2, movie \
     m2 where m1.title = 'Sweet Chaos' and m1.mid = d1.mid and d1.did = \
     d2.did and d2.mid = m2.mid";
    "select m.title, d.name from movie m, director d where m.year = 1998";
    "select g.genre from genre g";
    "select distinct g.genre from genre g";
    "select distinct m.title from movie m, genre g where m.mid = g.mid and \
     (g.genre = 'sci-fi' or g.genre = 'action')";
    "select m.title from movie m, genre g where m.mid = g.mid and (g.genre = \
     'mystery' or g.genre = 'thriller')";
    "select g.genre, count(*) as n from genre g group by g.genre having \
     count(*) >= 3 order by n desc, g.genre asc";
    "select d.name, count(*) as n, min(m.year) as lo, max(m.year) as hi, \
     avg(m.year) as mean, sum(m.year) as total from director d, directed dd, \
     movie m where d.did = dd.did and dd.mid = m.mid group by d.name order \
     by d.name asc";
    "select count(*) as n from movie m where m.year = 1800";
    "select t.title from ((select m.title from movie m where m.year = 2000) \
     union all (select m.title from movie m where m.year = 2000)) t group by \
     t.title having count(*) >= 2";
    "select t.title from ((select distinct m.title from movie m, genre g \
     where m.mid = g.mid and g.genre = 'comedy') union all (select distinct \
     m.title from movie m, genre g where m.mid = g.mid and g.genre = \
     'drama')) t group by t.title having count(*) >= 2";
    "select t.title, degree_of_conjunction(t.doi, t.pref) as doi from \
     ((select distinct m.title as title, 0.8 as doi, 0 as pref from movie m, \
     genre g where m.mid = g.mid and g.genre = 'comedy') union all (select \
     distinct m.title as title, 0.5 as doi, 1 as pref from movie m, genre g \
     where m.mid = g.mid and g.genre = 'drama')) t group by t.title order \
     by doi desc, t.title asc";
    "select t.title, degree_of_conjunction(t.doi, t.pref) as doi from \
     ((select distinct m.title as title, 0.5 as doi, 0 as pref from movie m \
     where m.year = 2000) union all (select distinct m.title as title, 0.5 \
     as doi, 0 as pref from movie m where m.year = 2000)) t group by t.title";
    "select m.title, m.year from movie m order by m.year desc, m.title asc \
     limit 3";
    "select m.title from movie m where m.year = 1800";
    "select m.title from movie m where false";
    "select m.title from movie m where true";
    "select m.title from movie m where not m.year = 2003 and not m.year = \
     2002";
    "select distinct m.title, m.year from movie m, genre g where m.mid = \
     g.mid and (g.genre = 'comedy' or g.genre = 'thriller') order by m.year \
     desc, m.title asc limit 3";
    "select m.title from movie m, director r where m.year = 1998";
    "select distinct m1.title from movie m1, movie m2 where m1.year < \
     m2.year and m2.title = 'Sweet Chaos'";
  ]

let check_query db label bound =
  let auto = Exec.run ~strategy:`Auto db bound in
  let naive = Exec.run ~strategy:`Naive db bound in
  Alcotest.(check bool)
    (label ^ ": auto = naive (sorted rows)")
    true
    (Exec.result_equal_bag auto naive);
  match ref_eval db bound with
  | reference ->
      Alcotest.(check bool)
        (label ^ ": batch executor = reference evaluator (sorted rows)")
        true
        (Exec.result_equal_bag auto reference)
  | exception Unsupported -> ()

let test_corpus () =
  let db = Moviedb.Personas.tiny_db () in
  let n_ref = ref 0 in
  List.iter
    (fun sql ->
      let bound = Binder.bind db (Sql_parser.parse sql) in
      (match ref_eval db bound with
      | _ -> incr n_ref
      | exception Unsupported -> ());
      check_query db sql bound)
    corpus;
  (* Guard against the reference silently opting out of everything. *)
  Alcotest.(check bool)
    "reference evaluator covered most of the corpus" true (!n_ref >= 15)

let test_workload () =
  let db = Moviedb.Personas.tiny_db () in
  List.iteri
    (fun i q ->
      let bound = Binder.bind db q in
      check_query db (Printf.sprintf "workload query %d" i) bound)
    (Moviedb.Workload.queries db ~n:50 ~seed:4242)

(* ------------------------ index access paths ------------------------- *)

(* The same catalog twice: every column indexed, and only the FK columns
   (what a dump without index declarations reloads to).  Selections and
   FK joins then take index probes on one side and scans or hash joins on
   the other, and the answers must agree row for row, order included,
   plain and personalized. *)
let test_index_paths () =
  let cfg = Moviedb.Datagen.scale ~seed:5 300 in
  let full = Moviedb.Datagen.generate cfg in
  let fk_only = Moviedb.Datagen.generate ~index:false cfg in
  Database.index_fk_columns fk_only;
  let profiles =
    Array.init 3 (fun i ->
        Moviedb.Profile_gen.generate full
          { Moviedb.Profile_gen.default with seed = 40 + i; n_selections = 20 })
  in
  let variants =
    let p k l method_ =
      ( Printf.sprintf "%s K%d/L%d"
          (match method_ with `MQ -> "MQ" | `SQ -> "SQ")
          k l,
        {
          Perso.Personalize.default_params with
          k = Perso.Criteria.top_r k;
          l = `At_least l;
          method_;
        } )
    in
    [ p 5 1 `MQ; p 10 2 `MQ; p 5 1 `SQ; p 6 2 `SQ ]
  in
  let queries = Moviedb.Workload.queries full ~n:200 ~seed:77 in
  let compared = ref 0 in
  let same label a b =
    incr compared;
    if not (Exec.result_equal_list a b) then
      Alcotest.failf "%s: fully indexed and FK-only catalogs differ" label
  in
  List.iteri
    (fun i q ->
      let label = Printf.sprintf "query %d" i in
      same label (Exec.run full (Binder.bind full q))
        (Exec.run fk_only (Binder.bind fk_only q));
      let profile = profiles.(i mod Array.length profiles) in
      List.iter
        (fun (name, params) ->
          let run db =
            let o = Perso.Personalize.personalize ~params db profile q in
            ( Sql_print.query_to_string o.Perso.Personalize.personalized,
              Perso.Personalize.execute db o )
          in
          let sql, r1 = run full and sql', r2 = run fk_only in
          let label = Printf.sprintf "%s %s" label name in
          Alcotest.(check string) (label ^ ": same rewrite") sql sql';
          same label r1 r2)
        variants)
    queries;
  Alcotest.(check int) "comparisons" (200 * 5) !compared;
  (* A join on a non-FK column can take an index-nested-loop path on the
     fully indexed side only: the same bag, possibly in another order. *)
  let sql =
    "select m1.title, m2.title from movie m1, movie m2 where m1.year = \
     m2.year and m1.mid = 3"
  in
  let run db = Exec.run db (Binder.bind db (Sql_parser.parse sql)) in
  Alcotest.(check bool) "non-FK self-join: same bag" true
    (Exec.result_equal_bag (run full) (run fk_only))

(* ----------------------- MQ in one pass vs generic ---------------------- *)

(* A degree must come back with the same bits, not merely an equal
   float. *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let same_rows label (a : Exec.result) (b : Exec.result) =
  if
    not
      (List.length a.rows = List.length b.rows
      && List.for_all2
           (fun x y -> Array.length x = Array.length y && Array.for_all2 same_value x y)
           a.rows b.rows)
  then Alcotest.failf "%s: Auto and Naive replies differ (rows, order or degree bits)" label

let is_mq (q : query) =
  match q.from with [ F_derived (C_union_all _, _) ] -> true | _ -> false

(* Every personalized query test_golden and the index-path test build,
   labelled, over their own catalogs and profiles, and bound: ranked
   and unranked MQ, L = 1, 2 and a minimum degree, M = 0 and 1, and the
   queries whose outputs repeat a name. *)
let mq_corpus () =
  (* [pairs]: (profile number, profile, query) *)
  let with_params db pairs cases =
    List.concat_map
      (fun (u, profile, (i, q)) ->
        List.map
          (fun (name, params) ->
            let o = Perso.Personalize.personalize ~params db profile q in
            ( Printf.sprintf "profile %d query %d %s" u i name,
              db,
              Binder.bind db o.Perso.Personalize.personalized ))
          cases)
      pairs
  in
  let numbered l = List.mapi (fun i x -> (i, x)) l in
  let every profiles queries =
    List.concat_map
      (fun (u, p) -> List.map (fun q -> (u, p, q)) (numbered queries))
      (numbered profiles)
  in
  let params ?(m = 0) ?(rank = true) k l =
    ( Printf.sprintf "K%d M%d %s %s" k m
        (match l with `At_least l -> Printf.sprintf "L%d" l | `Min_doi d -> Printf.sprintf "doi>%g" d)
        (if rank then "ranked" else "unranked"),
      {
        Perso.Personalize.default_params with
        k = Perso.Criteria.top_r k;
        m = `Count m;
        l;
        rank;
      } )
  in
  let golden =
    let db = Moviedb.Datagen.(generate (scale ~seed:19 300)) in
    let profiles =
      List.map
        (fun seed ->
          Moviedb.Profile_gen.generate db
            { Moviedb.Profile_gen.default with seed; n_selections = 40 })
        [ 101; 102; 103 ]
    in
    with_params db
      (every profiles (Moviedb.Workload.queries db ~n:8 ~seed:211))
      ([ params 5 (`At_least 1); params 20 (`At_least 1); params 60 (`At_least 1) ]
      @ List.concat_map
          (fun (k, l) ->
            [ params ~m:1 k (`At_least l); params ~m:1 ~rank:false k (`At_least l) ])
          [ (5, 0); (5, 2); (20, 0); (20, 2) ]
      @ [
          params 10 (`At_least 1);
          params 10 (`At_least 2);
          params ~m:1 10 (`At_least 1);
          params 10 (`Min_doi 0.5);
          params ~rank:false 10 (`Min_doi 0.5);
          params ~m:1 10 (`Min_doi 0.3);
        ])
  in
  let index_paths =
    let cfg = Moviedb.Datagen.scale ~seed:5 300 in
    let full = Moviedb.Datagen.generate cfg in
    let profiles =
      Array.init 3 (fun i ->
          Moviedb.Profile_gen.generate full
            { Moviedb.Profile_gen.default with seed = 40 + i; n_selections = 20 })
    in
    (* As that test pairs them: query i with profile i mod 3. *)
    with_params full
      (List.map
         (fun (i, q) -> (i mod 3, profiles.(i mod 3), (i, q)))
         (numbered (Moviedb.Workload.queries full ~n:200 ~seed:77)))
      [ params 5 (`At_least 1); params 10 (`At_least 2) ]
  in
  let repeated_names =
    let db = Moviedb.Personas.tiny_db () in
    with_params db
      (every
         [ Moviedb.Personas.julie () ]
         (List.map Sql_parser.parse
            [
              "select pl.tid, pl.tid, mv.year as tid_2 from movie mv, play pl \
               where mv.mid = pl.mid";
              "select mv.title as t_2, mv.year as t, mv.mid as t from movie mv";
            ]))
      [ params 5 (`At_least 1); params ~rank:false 5 (`At_least 2) ]
  in
  golden @ index_paths @ repeated_names

let test_mq_streamed () =
  let streamed = ref 0 and rows = ref 0 in
  List.iter
    (fun (label, db, q) ->
      if Exec.streams_mq q <> is_mq q then
        Alcotest.failf "%s: an MQ %s the one-pass path" label
          (if is_mq q then "misses" else "wrongly takes");
      (* A degenerate MQ is SQ at L = 0, whose FROM list Naive would
         cross: it is not this path's subject. *)
      if is_mq q then begin
        incr streamed;
        let auto = Exec.run db q in
        rows := !rows + List.length auto.rows;
        same_rows label auto (Exec.run ~strategy:`Naive db q)
      end)
    (mq_corpus ());
  (* Guard against a corpus that degenerates to SQ or returns nothing. *)
  Alcotest.(check bool) "most of the corpus is MQ" true (!streamed >= 700);
  Alcotest.(check bool) "with rows to order" true (!rows >= 20_000)

(* Shapes one step off MQ take the generic path, and still agree with
   the reference. *)
let near_misses (q : query) =
  let tv = match q.from with [ F_derived (_, tv) ] -> tv | _ -> assert false in
  let doi = { tv; col = "doi" } and pref = { tv; col = "pref" } in
  [
    ( "a partial without DISTINCT",
      {
        q with
        from =
          List.map
            (function
              | F_derived (C_union_all (C_single p :: rest), tv) ->
                  F_derived (C_union_all (C_single { p with distinct = false } :: rest), tv)
              | f -> f)
            q.from;
      } );
    ("an outer WHERE", { q with where = P_cmp (Ge, S_attr pref, S_const (Value.Int 0)) });
    ("a LIMIT", { q with limit = Some 2 });
    ( "a HAVING on another aggregate",
      {
        q with
        having =
          Some
            (H_and
               (Option.to_list q.having
               @ [ H_cmp (Ge, H_agg (A_max doi), H_const (Value.Float (-1.))) ]));
      } );
  ]

let test_mq_near_misses () =
  let mqs = List.filter (fun (_, _, q) -> is_mq q) (mq_corpus ()) in
  List.iteri
    (fun i (label, db, q) ->
      if i mod 10 = 0 then
        List.iter
          (fun (what, q') ->
            let label = label ^ " with " ^ what in
            if Exec.streams_mq q' then Alcotest.failf "%s: takes the one-pass path" label;
            same_rows label (Exec.run db q') (Exec.run ~strategy:`Naive db q'))
          (near_misses q))
    mqs

(* Under a row budget, the one pass trips exactly where the generic path
   does, with the same typed error: the generic side runs the same MQ
   with a HAVING conjunct that holds on every group, so it returns the
   same rows and charges the same rows. *)
let test_mq_row_budget () =
  let outcome db q max_rows =
    let gov = Governor.start { Governor.unlimited with max_rows = Some max_rows } in
    match Exec.run ~gov db q with
    | r -> Ok r
    | exception Governor.Exhausted p -> Error (p.exhausted, p.rows_produced)
  in
  let mqs = List.filter (fun (_, _, q) -> is_mq q) (mq_corpus ()) in
  let trips = ref 0 in
  List.iteri
    (fun i (label, db, q) ->
      if i mod 25 = 0 then begin
        let generic = List.assoc "a HAVING on another aggregate" (near_misses q) in
        let gov = Governor.start Governor.unlimited in
        ignore (Exec.run ~gov db q : Exec.result);
        let total = (Governor.progress gov).rows_produced in
        List.iter
          (fun b ->
            let label = Printf.sprintf "%s, %d of %d rows" label b total in
            match (outcome db q b, outcome db generic b) with
            | Ok a, Ok g -> same_rows label a g
            | Error e, Error e' ->
                incr trips;
                Alcotest.(check (pair string int)) label e' e
            | _ -> Alcotest.failf "%s: one side trips, the other does not" label)
          (List.sort_uniq compare [ 0; 1; total / 3; total / 2; total - 1; total ])
      end)
    mqs;
  Alcotest.(check bool) "budgets tripped" true (!trips >= 20)

(* ---------------------- pinned DISTINCT blocks ------------------------ *)

(* A DISTINCT block whose WHERE pins every output attribute to a
   constant has at most one row, and [Auto] searches for it instead of
   joining.  Random blocks over two small tables, each column indexed
   or not at random, must come back from [Auto] exactly as from
   [Naive]: the same rows with the same bits, in the same order when
   the query orders every output, as sorted lists otherwise.  Every
   column holds values of one form, so the representative DISTINCT
   keeps is the same whichever equal row comes first; the mixed-form
   case is pinned by its own test below. *)

let dates = [| "2001-03-04"; "2002-11-30"; "2003-07-02" |]

let pin_db rng =
  let int n = Random.State.int rng n in
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"emp"
       ~cols:[ ("id", Value.TInt); ("name", TStr); ("dept", TInt); ("hired", TDate) ]
       ());
  Database.add_table db
    (Schema.make ~name:"dept"
       ~cols:[ ("did", Value.TInt); ("dname", TStr); ("floor", TInt) ]
       ());
  let date i = Option.get (Value.parse_date dates.(i)) in
  for _ = 1 to 3 + int 5 do
    Database.insert db "emp"
      [
        Value.Int (int 5);
        Value.Str [| "ann"; "bob"; "cy" |].(int 3);
        Value.Int (int 4);
        date (int 3);
      ]
  done;
  for _ = 1 to 2 + int 4 do
    Database.insert db "dept"
      [ Value.Int (int 4); Value.Str [| "ops"; "dev" |].(int 2); Value.Int (1 + int 3) ]
  done;
  List.iter
    (fun t ->
      Array.iter
        (fun c -> if Random.State.bool rng then Table.build_index t c)
        (Schema.col_names (Table.schema t)))
    (Database.tables db);
  db

(* A random DISTINCT block as SQL text, and what it is made of. *)
let pin_block rng =
  let int n = Random.State.int rng n and chance p = Random.State.float rng 1. < p in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let nv = 1 + int 3 in
  let tables = Array.init nv (fun _ -> if chance 0.6 then "emp" else "dept") in
  let ints = function "emp" -> [| "id"; "dept" |] | _ -> [| "did"; "floor" |] in
  let cols = function "emp" -> [| "id"; "name"; "dept"; "hired" |] | _ -> [| "did"; "dname"; "floor" |] in
  let attr i c = Printf.sprintf "t%d.%s" i c in
  let iattr i = attr i (pick (ints tables.(i))) in
  (* A constant for column [c]: usually one the tables hold. *)
  let const c =
    let hit = chance 0.8 in
    match c with
    | "name" -> (`Str, Printf.sprintf "'%s'" (if hit then pick [| "ann"; "bob"; "cy" |] else "zed"))
    | "dname" -> (`Str, Printf.sprintf "'%s'" (if hit then pick [| "ops"; "dev" |] else "hr"))
    | "hired" -> (`Date, Printf.sprintf "'%s'" (if hit then pick dates else "1999-01-01"))
    | _ -> (`Num, string_of_int (if hit then int 5 else 9))
  in
  let edges = ref [] and connected = ref true in
  for i = 1 to nv - 1 do
    if chance 0.8 then edges := Printf.sprintf "%s = %s" (iattr i) (iattr (int i)) :: !edges
    else connected := false
  done;
  let outputs =
    List.sort_uniq compare
      (List.init (1 + int 2) (fun _ ->
           let i = int nv in
           (i, pick (cols tables.(i)))))
  in
  let pins = List.map (fun o -> (o, chance 0.8)) outputs in
  let all_pinned = List.for_all snd pins in
  let kinds = List.filter_map (fun ((_, c), p) -> if p then Some (fst (const c)) else None) pins in
  let dnf = all_pinned && chance 0.3 in
  let pin_preds =
    List.mapi
      (fun k ((i, c), p) ->
        if not p then []
        else if dnf && k = 0 then
          [ Printf.sprintf "(%s = %s or %s = %s)" (attr i c) (snd (const c)) (attr i c) (snd (const c)) ]
        else [ Printf.sprintf "%s = %s" (attr i c) (snd (const c)) ])
      pins
    |> List.concat
  in
  let residual = nv >= 2 && chance 0.3 in
  let extra =
    (if residual then [ Printf.sprintf "%s %s %s" (iattr 0) (pick [| "<="; "<>" |]) (iattr (nv - 1)) ]
     else [])
    @ if chance 0.3 then [ Printf.sprintf "%s >= %d" (iattr (int nv)) (1 + int 3) ] else []
  in
  let where = !edges @ pin_preds @ extra in
  let out = List.map (fun (i, c) -> attr i c) outputs in
  let ordered = dnf || chance 0.5 in
  let sql =
    Printf.sprintf "select distinct %s from %s%s%s" (String.concat ", " out)
      (String.concat ", " (Array.to_list (Array.mapi (fun i t -> Printf.sprintf "%s t%d" t i) tables)))
      (if where = [] then "" else " where " ^ String.concat " and " where)
      (if ordered then " order by " ^ String.concat ", " out else "")
  in
  let self_join =
    let a = Array.copy tables in
    Array.sort compare a;
    let rec dup i = i + 1 < Array.length a && (a.(i) = a.(i + 1) || dup (i + 1)) in
    dup 0
  in
  (sql, all_pinned, kinds, dnf, ordered, residual, self_join, !connected,
   List.length outputs = 2 && List.length kinds = 1)

let test_pinned_blocks () =
  (* How many pinned blocks of each kind the run met. *)
  let met = Hashtbl.create 16 in
  let count kind = Option.value (Hashtbl.find_opt met kind) ~default:0 in
  let saw kind = Hashtbl.replace met kind (count kind + 1) in
  let prop =
    QCheck.Test.make ~name:"pinned DISTINCT blocks: Auto = Naive" ~count:600
      QCheck.(int_bound 1_000_000_000)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let db = pin_db rng in
        let sql, pinned, kinds, dnf, ordered, residual, self_join, connected, half =
          pin_block rng
        in
        let q = Binder.bind db (Sql_parser.parse sql) in
        let auto = Exec.run db q and naive = Exec.run ~strategy:`Naive db q in
        let norm r = if ordered then r else Exec.sort_rows r in
        (try same_rows sql (norm auto) (norm naive)
         with e -> QCheck.Test.fail_reportf "%s: %s" sql (Printexc.to_string e));
        if pinned then begin
          saw "in all";
          saw (if auto.rows = [] then "with no row" else "with a row");
          List.iter
            (function
              | `Str -> saw "pinned by a string"
              | `Date -> saw "pinned by a date"
              | `Num -> saw "pinned by a number")
            kinds;
          if self_join then saw "joining a table to itself";
          if residual then saw "with a residual";
          if not connected then saw "without a connecting edge";
          if dnf && ordered then saw "split into ordered DNF branches"
        end;
        if half then saw "with one of two outputs pinned";
        true)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 31 |]) prop;
  List.iter
    (fun (kind, n) ->
      if count kind < n then
        Alcotest.failf "only %d pinned blocks %s (want %d)" (count kind) kind n)
    [
      ("in all", 200);
      ("with a row", 50);
      ("with no row", 50);
      ("pinned by a string", 20);
      ("pinned by a date", 20);
      ("pinned by a number", 20);
      ("with one of two outputs pinned", 20);
      ("joining a table to itself", 20);
      ("with a residual", 20);
      ("without a connecting edge", 20);
      ("split into ordered DNF branches", 20);
    ]

(* An INT column may hold 3 and 3.0, which are equal: DISTINCT keeps one
   of them, the one its first equal row carries.  A pinned block's reply
   carries the form of the first joined row the search reaches: the
   driving (smallest) source's rows in order, each step's candidates in
   its access path's order, an index bucket or a hash chain from its
   last row.  Naive's first row follows the FROM order. *)
let test_pinned_forms () =
  let db = Database.create () in
  Database.add_table db
    (Schema.make ~name:"t" ~cols:[ ("x", Value.TInt); ("y", Value.TInt) ] ());
  Database.add_table db (Schema.make ~name:"u" ~cols:[ ("y", Value.TInt) ] ());
  Database.insert db "t" [ Value.Float 3.; Value.Int 2 ];
  Database.insert db "t" [ Value.Int 3; Value.Int 2 ];
  Database.insert db "t" [ Value.Int 4; Value.Int 2 ];
  Database.insert db "u" [ Value.Int 2 ];
  let rows strategy sql =
    (Exec.run ~strategy db (Binder.bind db (Sql_parser.parse sql))).rows
  in
  let check label want got =
    if not (List.length want = List.length got && List.for_all2 (Array.for_all2 same_value) want got)
    then
      Alcotest.failf "%s: got %s" label
        (String.concat "; "
           (List.map (fun r -> String.concat "," (Array.to_list (Array.map Value.to_string r))) got))
  in
  let alone = "select distinct t.x from t where t.x = 3" in
  (* One source: its first stored row, 3.0, for both strategies. *)
  check "one table, Auto" [ [| Value.Float 3. |] ] (rows `Auto alone);
  check "one table, Naive" [ [| Value.Float 3. |] ] (rows `Naive alone);
  (* Driving u (one row), the search meets t's rows from the last: 3.
     Naive crosses t first: 3.0. *)
  let joined = "select distinct t.x from t, u where t.y = u.y and t.x = 3" in
  check "joined, Auto" [ [| Value.Int 3 |] ] (rows `Auto joined);
  check "joined, Naive" [ [| Value.Float 3. |] ] (rows `Naive joined);
  (* Past 2^53, a float equals one integer only, exactly: 2^53 + 1 is not
     2^53. *)
  Database.insert db "t" [ Value.Int (1 lsl 53); Value.Int 1 ];
  Database.insert db "t" [ Value.Int ((1 lsl 53) + 1); Value.Int 1 ];
  let big = "select distinct t.x from t where t.x = 9007199254740992.0" in
  check "past 2^53, Auto" [ [| Value.Int (1 lsl 53) |] ] (rows `Auto big);
  check "past 2^53, Naive" [ [| Value.Int (1 lsl 53) |] ] (rows `Naive big);
  (* An int and a float of one number are one DISTINCT key at every
     magnitude (2^50 here). *)
  Database.insert db "t" [ Value.Int (1 lsl 50); Value.Int 1 ];
  Database.insert db "t" [ Value.Float (Float.of_int (1 lsl 50)); Value.Int 1 ];
  List.iter
    (fun sql -> check (sql ^ ", Auto = Naive") (rows `Naive sql) (rows `Auto sql))
    [
      "select distinct t.x from t where t.x = 1125899906842624";
      "select distinct t.x from t where t.x = 1125899906842624.0";
    ]

let () =
  Alcotest.run "exec-diff"
    [
      ( "differential",
        [
          Alcotest.test_case "test_exec corpus" `Quick test_corpus;
          Alcotest.test_case "workload queries" `Quick test_workload;
          Alcotest.test_case "indexes change speed, not replies" `Quick
            test_index_paths;
        ] );
      ( "mq one pass",
        [
          Alcotest.test_case "every MQ = Naive, bit for bit" `Quick test_mq_streamed;
          Alcotest.test_case "near-miss shapes fall back" `Quick test_mq_near_misses;
          Alcotest.test_case "row budget trips alike" `Quick test_mq_row_budget;
        ] );
      ( "pinned blocks",
        [
          Alcotest.test_case "random pinned blocks = Naive, bit for bit" `Quick
            test_pinned_blocks;
          Alcotest.test_case "which of 3 and 3.0 a pinned reply carries" `Quick
            test_pinned_forms;
        ] );
    ]
