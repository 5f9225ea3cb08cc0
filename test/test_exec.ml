(* Executor tests: binder diagnostics, every operator, the DNF path, and
   an oracle property — the optimized executor must agree with naive
   cross-product semantics on random queries over a small database. *)

open Relal

let db () = Moviedb.Personas.tiny_db ()
let run = Helpers.run

let check_titles name expected res =
  Alcotest.(check (slist string String.compare)) name expected (Helpers.titles res)

(* ------------------------------ Binder ------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let bind_fails sql fragment =
  let db = db () in
  match Engine.run_sql db sql with
  | _ -> Alcotest.failf "expected bind error (%s)" fragment
  | exception Binder.Bind_error e ->
      if not (contains e fragment) then
        Alcotest.failf "error %S does not mention %S" e fragment

let test_bind_errors () =
  bind_fails "select m.title from nosuch m" "unknown table";
  bind_fails "select m.nope from movie m" "no column";
  bind_fails "select x.title from movie m" "unknown tuple variable";
  bind_fails "select m.title from movie m, movie m" "duplicate tuple variable";
  bind_fails "select mid from movie m, play p" "ambiguous";
  bind_fails "select m.title from movie m where m.title = 3" "compares";
  bind_fails "select m.title from movie m, play p where p.date = 'gibberish'"
    "not a valid date";
  bind_fails "select m.title, count(*) as n from movie m" "GROUP BY";
  bind_fails "select sum(m.title) as s from movie m group by m.title"
    "non-numeric"

(* A ranked MQ as [Integrate.mq] prints it, and single-fault mutations
   of it.  The binder is the only schema check a profile's atoms get on
   the served path (integration binds each instantiated condition with
   it), so each mutant must fail with exactly this text: (what the fault
   is, text replaced, replacement, error). *)
let ranked_mq =
  "select temp.title as title, degree_of_conjunction(temp.doi, temp.pref) \
   as doi from ((select distinct mv.title as title, 0.9 as doi, 0 as pref \
   from movie mv, genre ge where mv.mid = ge.mid and ge.genre = 'comedy') \
   union all (select distinct mv.title as title, 0.8 as doi, 1 as pref from \
   movie mv, play pl where mv.mid = pl.mid and pl.date = '2003-07-02')) temp \
   group by temp.title having count(*) >= 1 order by doi desc"

let ranked_mq_faults =
  [
    ("unknown table in one partial", "play pl", "plays pl", "unknown table plays");
    ("unknown column", "ge.genre =", "ge.foo =", "tuple variable ge has no column foo");
    ( "string constant against an int column",
      "ge.genre = 'comedy'",
      "mv.year = 'comedy'",
      "predicate compares int with string" );
    ( "unparsable date",
      "'2003-07-02'",
      "'2003-13-45'",
      "string \"2003-13-45\" is not a valid date literal" );
    ( "duplicate tuple variable",
      "from movie mv, genre ge",
      "from movie mv, movie mv, genre ge",
      "duplicate tuple variable mv" );
    ( "UNION ALL arity mismatch",
      "0.8 as doi, 1 as pref",
      "0.8 as doi",
      "UNION ALL branches have different arities" );
    ( "non-grouped column",
      "select temp.title as title,",
      "select temp.title as title, temp.pref as p,",
      "column temp.pref must appear in GROUP BY" );
  ]

let replace_once s ~sub ~by =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then Alcotest.failf "%S not in the ranked MQ" sub
    else if String.sub s i m = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let test_bind_ranked_mq_faults () =
  let db = db () in
  Alcotest.(check int) "the unmutated MQ binds and runs" 1
    (min 1 (List.length (run db ranked_mq).Exec.rows));
  List.iter
    (fun (what, sub, by, expected) ->
      let q = Sql_parser.parse (replace_once ranked_mq ~sub ~by) in
      match Binder.bind db q with
      | _ -> Alcotest.failf "%s: the mutant binds" what
      | exception Binder.Bind_error e -> Alcotest.(check string) what expected e)
    ranked_mq_faults

let test_bind_resolves_bare_columns () =
  let res = run (db ()) "select title from movie where year = 2003" in
  Alcotest.(check int) "four 2003 movies" 4 (List.length res.Exec.rows)

let test_bind_date_coercion () =
  let r1 = run (db ()) "select m.title from movie m, play p where m.mid = p.mid and p.date = '2003-07-02'" in
  let r2 = run (db ()) "select m.title from movie m, play p where m.mid = p.mid and p.date = '2/7/2003'" in
  Alcotest.(check int) "12 screenings tonight" 12 (List.length r1.Exec.rows);
  Alcotest.(check bool) "paper date format equivalent" true
    (Exec.result_equal_bag r1 r2)

(* ---------------------------- Operators ----------------------------- *)

let test_select_where () =
  check_titles "year filter" [ "Garden of Glass"; "Second Spring" ]
    (run (db ()) "select m.title from movie m where m.year = 2000")

let test_projection_const () =
  let res = run (db ()) "select m.title, 1 as tag from movie m where m.year = 1998" in
  Alcotest.(check int) "one row" 1 (List.length res.Exec.rows);
  Alcotest.(check (array string)) "cols" [| "title"; "tag" |] res.Exec.cols

let test_join_hash () =
  check_titles "Lynch movies"
    [ "Midnight Maze"; "Blue Velvet Road"; "Dream Logic" ]
    (run (db ())
       "select m.title from movie m, directed d, director r where m.mid = d.mid \
        and d.did = r.did and r.name = 'D. Lynch'")

let test_join_self () =
  (* Movies sharing a director with 'Sweet Chaos' (self-join on movie). *)
  let res =
    run (db ())
      "select distinct m2.title from movie m1, directed d1, directed d2, movie m2 \
       where m1.title = 'Sweet Chaos' and m1.mid = d1.mid and d1.did = d2.did and \
       d2.mid = m2.mid"
  in
  check_titles "Allen movies" [ "Sweet Chaos"; "Laughing Waters"; "Double Take" ] res

let test_cross_product_when_no_join () =
  let res = run (db ()) "select m.title, d.name from movie m, director d where m.year = 1998" in
  (* 1 movie from 1998 x 4 directors *)
  Alcotest.(check int) "cartesian" 4 (List.length res.Exec.rows)

let test_distinct () =
  let with_dup = run (db ()) "select g.genre from genre g" in
  let without = run (db ()) "select distinct g.genre from genre g" in
  Alcotest.(check bool) "duplicates removed" true
    (List.length without.Exec.rows < List.length with_dup.Exec.rows);
  let uniq = List.sort_uniq compare (Helpers.titles with_dup) in
  Alcotest.(check int) "distinct = set size" (List.length uniq)
    (List.length without.Exec.rows)

let test_or_dnf_path () =
  (* DISTINCT + OR triggers the DNF split; verify against known data. *)
  let res =
    run (db ())
      "select distinct m.title from movie m, genre g where m.mid = g.mid and \
       (g.genre = 'sci-fi' or g.genre = 'action')"
  in
  check_titles "sci-fi or action"
    [ "Star Harbor"; "The Quiet Comet"; "Iron Harvest" ]
    res

(* Under a governor, each DNF branch charges what it charges run alone as
   a conjunctive query: its joins and its joined rows, once.  The union of
   the branches is not charged again. *)
let test_dnf_row_charge () =
  let db = db () in
  let charge sql =
    let gov = Governor.start Governor.unlimited in
    ignore (Engine.run_sql ~gov db sql : Exec.result);
    (Governor.progress gov).rows_produced
  in
  let q where =
    "select distinct m.title from movie m, genre g where m.mid = g.mid and " ^ where
  in
  let branches = [ "g.genre = 'sci-fi'"; "g.genre = 'action'"; "m.year = 2003" ] in
  Alcotest.(check int) "sum of the branches' charges"
    (List.fold_left (fun n b -> n + charge (q b)) 0 branches)
    (charge (q ("(" ^ String.concat " or " branches ^ ")")))

let test_or_without_distinct () =
  (* No DISTINCT: the generic path must still be correct (with duplicates
     from the to-many genre join when both disjuncts hold). *)
  let res =
    run (db ())
      "select m.title from movie m, genre g where m.mid = g.mid and (g.genre = \
       'mystery' or g.genre = 'thriller')"
  in
  (* Midnight Maze (thriller+mystery) twice, Blue Velvet Road once,
     Dream Logic (mystery+thriller) twice. *)
  Alcotest.(check int) "bag semantics" 5 (List.length res.Exec.rows)

let test_group_having_count () =
  let res =
    run (db ())
      "select g.genre, count(*) as n from genre g group by g.genre having \
       count(*) >= 3 order by n desc, g.genre asc"
  in
  List.iter
    (fun row ->
      match row.(1) with
      | Value.Int n -> Alcotest.(check bool) "count >= 3" true (n >= 3)
      | _ -> Alcotest.fail "count type")
    res.Exec.rows;
  (* comedy appears 4 times in tiny_db, thriller 3. *)
  Alcotest.(check bool) "comedy present" true
    (List.mem "comedy" (Helpers.titles res))

let test_aggregates () =
  let res =
    run (db ())
      "select d.name, count(*) as n, min(m.year) as lo, max(m.year) as hi, \
       avg(m.year) as mean, sum(m.year) as total from director d, directed dd, \
       movie m where d.did = dd.did and dd.mid = m.mid group by d.name order by \
       d.name asc"
  in
  Alcotest.(check int) "four directors" 4 (List.length res.Exec.rows);
  let allen = List.find (fun r -> r.(0) = Value.Str "W. Allen") res.Exec.rows in
  Alcotest.(check Helpers.value_testable) "count" (Value.Int 3) allen.(1);
  Alcotest.(check Helpers.value_testable) "min" (Value.Int 2002) allen.(2);
  Alcotest.(check Helpers.value_testable) "max" (Value.Int 2003) allen.(3);
  (match allen.(4) with
  | Value.Float f -> Helpers.check_float "avg" ((2002. +. 2003. +. 2003.) /. 3.) f
  | _ -> Alcotest.fail "avg type");
  Alcotest.(check Helpers.value_testable) "sum" (Value.Int 6008) allen.(5)

let test_aggregate_empty_group_by () =
  let res = run (db ()) "select count(*) as n from movie m where m.year = 1800" in
  (* SQL says one row with count 0 — our engine returns no groups from an
     empty input, a documented deviation... unless it does return 0. *)
  match res.Exec.rows with
  | [] -> ()
  | [ [| Value.Int 0 |] ] -> ()
  | _ -> Alcotest.fail "empty aggregate shape"

let test_union_all () =
  let res =
    run (db ())
      "select t.title from ((select m.title from movie m where m.year = 2000) \
       union all (select m.title from movie m where m.year = 2000)) t group by \
       t.title having count(*) >= 2"
  in
  check_titles "same branch twice" [ "Garden of Glass"; "Second Spring" ] res

let test_union_having_threshold () =
  let res =
    run (db ())
      "select t.title from ((select distinct m.title from movie m, genre g where \
       m.mid = g.mid and g.genre = 'comedy') union all (select distinct m.title \
       from movie m, genre g where m.mid = g.mid and g.genre = 'drama')) t group \
       by t.title having count(*) >= 2"
  in
  (* Only 'Second Spring' is both comedy and drama. *)
  check_titles "intersection via having" [ "Second Spring" ] res

let test_degree_of_conjunction_aggregate () =
  let res =
    run (db ())
      "select t.title, degree_of_conjunction(t.doi, t.pref) as doi from ((select \
       distinct m.title as title, 0.8 as doi, 0 as pref from movie m, genre g \
       where m.mid = g.mid and g.genre = 'comedy') union all (select distinct \
       m.title as title, 0.5 as doi, 1 as pref from movie m, genre g where m.mid \
       = g.mid and g.genre = 'drama')) t group by t.title order by doi desc, \
       t.title asc"
  in
  let first = List.hd res.Exec.rows in
  Alcotest.(check Helpers.value_testable) "both prefs first" (Value.Str "Second Spring")
    first.(0);
  (match first.(1) with
  | Value.Float f -> Helpers.check_float "1-(1-0.8)(1-0.5)" 0.9 f
  | _ -> Alcotest.fail "doi type");
  (* A comedy-only row scores 0.8. *)
  let comedy_only = List.nth res.Exec.rows 1 in
  match comedy_only.(1) with
  | Value.Float f -> Helpers.check_float "single pref" 0.8 f
  | _ -> Alcotest.fail "doi type"

let test_doi_dedupes_pref_ids () =
  (* The same preference reaching a row through two partials must count
     once: duplicate branch with identical pref id. *)
  let res =
    run (db ())
      "select t.title, degree_of_conjunction(t.doi, t.pref) as doi from ((select \
       distinct m.title as title, 0.5 as doi, 0 as pref from movie m where m.year \
       = 2000) union all (select distinct m.title as title, 0.5 as doi, 0 as pref \
       from movie m where m.year = 2000)) t group by t.title"
  in
  List.iter
    (fun row ->
      match row.(1) with
      | Value.Float f -> Helpers.check_float "deduped" 0.5 f
      | _ -> Alcotest.fail "doi type")
    res.Exec.rows

let test_order_by_limit () =
  let res =
    run (db ()) "select m.title, m.year from movie m order by m.year desc, m.title asc limit 3"
  in
  Alcotest.(check int) "limit" 3 (List.length res.Exec.rows);
  match res.Exec.rows with
  | [ r1; r2; r3 ] ->
      Alcotest.(check Helpers.value_testable) "2003 first" (Value.Int 2003) r1.(1);
      Alcotest.(check Helpers.value_testable) "tie alpha" (Value.Str "Double Take") r1.(0);
      Alcotest.(check Helpers.value_testable) "then" (Value.Str "Iron Harvest") r2.(0);
      Alcotest.(check Helpers.value_testable) "then" (Value.Str "Laughing Waters") r3.(0)
  | _ -> Alcotest.fail "row count"

let test_empty_results () =
  let res = run (db ()) "select m.title from movie m where m.year = 1800" in
  Alcotest.(check int) "empty" 0 (List.length res.Exec.rows);
  let res = run (db ()) "select m.title from movie m where false" in
  Alcotest.(check int) "constant false" 0 (List.length res.Exec.rows)

let test_constant_true () =
  let res = run (db ()) "select m.title from movie m where true" in
  Alcotest.(check int) "all rows" 12 (List.length res.Exec.rows)

let test_not_predicate () =
  let res = run (db ()) "select m.title from movie m where not m.year = 2003 and not m.year = 2002" in
  Alcotest.(check int) "negation" 6 (List.length res.Exec.rows)

let test_dnf_with_order_and_limit () =
  (* The DNF path must still honour ORDER BY and LIMIT applied after the
     branch union. *)
  let res =
    run (db ())
      "select distinct m.title, m.year from movie m, genre g where m.mid = g.mid \
       and (g.genre = 'comedy' or g.genre = 'thriller') order by m.year desc, \
       m.title asc limit 3"
  in
  Alcotest.(check int) "limit applied" 3 (List.length res.Exec.rows);
  (match res.Exec.rows with
  | first :: _ ->
      Alcotest.(check Helpers.value_testable) "newest first" (Value.Int 2003)
        first.(1)
  | [] -> Alcotest.fail "rows expected");
  (* Compare the full ordered list against the naive oracle, also when
     the sort column is not in the DISTINCT output. *)
  let d = db () in
  List.iter
    (fun select ->
      let sql =
        "select distinct " ^ select
        ^ " from movie m, genre g where m.mid = g.mid and (g.genre = 'comedy' \
           or g.genre = 'thriller') order by m.year desc, m.title asc"
      in
      let bound = Binder.bind d (Sql_parser.parse sql) in
      Alcotest.(check bool) ("ordered rows equal naive: " ^ select) true
        (Exec.result_equal_list
           (Exec.run ~strategy:`Auto d bound)
           (Exec.run ~strategy:`Naive d bound)))
    [ "m.title, m.year"; "m.title" ]

let test_unused_from_table_semantics () =
  (* SQL cross-product semantics: an unreferenced FROM table multiplies
     rows (bag) and gates results on non-emptiness (distinct). *)
  let d = db () in
  let bag = run d "select m.title from movie m, director r where m.year = 1998" in
  Alcotest.(check int) "multiplied by |director|" 4 (List.length bag.Exec.rows);
  (* With an empty unreferenced table, even DISTINCT queries return
     nothing. *)
  let d2 = db () in
  Relal.Table.clear (Database.table d2 "director");
  let empty =
    run d2
      "select distinct m.title from movie m, director r where m.year = 1998 and \
       (m.year = 1998 or m.year = 1999)"
  in
  Alcotest.(check int) "empty unreferenced table empties result" 0
    (List.length empty.Exec.rows)

let test_inequality_joins_as_residual () =
  (* Non-equi cross-tv predicate must be enforced even though it is not a
     hash-join key. *)
  let res =
    run (db ())
      "select distinct m1.title from movie m1, movie m2 where m1.year < m2.year \
       and m2.title = 'Sweet Chaos'"
  in
  (* Movies strictly older than 2002. *)
  Alcotest.(check int) "older movies" 6 (List.length res.Exec.rows)

(* ---------------------- Join into a filtered table ---------------------- *)

(* [big] (200 rows) carries an index on its filter column [tag] and,
   with [index_k], on its join column [k] (4 rows per key); [small] (6
   rows) carries none.  'x' tags 100 rows, 'y' 10 and 'w' 2. *)
let join_db ~index_k =
  let db = Database.create () in
  let open Value in
  Database.add_table db
    (Schema.make ~name:"big"
       ~cols:[ ("id", TInt); ("k", TInt); ("k2", TInt); ("tag", TStr) ]
       ());
  Database.add_table db
    (Schema.make ~name:"small"
       ~cols:[ ("sid", TInt); ("k", TInt); ("k2", TInt) ]
       ());
  for i = 0 to 199 do
    let tag =
      if i mod 2 = 0 then "x"
      else if i mod 20 = 1 then "y"
      else if i mod 100 = 3 then "w"
      else "z"
    in
    Database.insert db "big" [ Int i; Int (i mod 50); Int (i mod 3); Str tag ]
  done;
  List.iter
    (fun (sid, k, k2) -> Database.insert db "small" [ Int sid; Int k; Int k2 ])
    [ (0, 0, 0); (1, 21, 0); (2, 0, 1); (3, 3, 0); (4, 21, 1); (5, 3, 1) ];
  let big = Database.table db "big" in
  Table.build_index big "tag";
  if index_k then Table.build_index big "k";
  db

(* Rows are (big.id, small.sid).  The hash join probes with its larger
   input in row order and emits each probe row's matches build row
   descending: with [small] built, big row ascending then small row
   descending ([`Big_first]); with the filtered [big] built, the
   reverse ([`Small_first]). *)
let hash_join_order order rows =
  let ids = function
    | [| Value.Int b; Value.Int s |] -> (b, s)
    | _ -> Alcotest.fail "expected (big.id, small.sid) rows"
  in
  List.sort
    (fun r1 r2 ->
      let (b1, s1), (b2, s2) = (ids r1, ids r2) in
      match order with
      | `Big_first -> if b1 <> b2 then compare b1 b2 else compare s2 s1
      | `Small_first -> if s1 <> s2 then compare s1 s2 else compare b2 b1)
    rows

(* Chaos points a run crosses (nothing is injected at p = 0).  The probe
   path crosses no Join_build, so it is the path taken exactly when the
   indexed catalog crosses one point fewer than the unindexed one. *)
let crossings db bound =
  let _, stats =
    Chaos.with_faults ~seed:1 ~p:0. (fun () -> Exec.run db bound)
  in
  stats.Chaos.evaluations

type filtered_join = {
  name : string;
  sql : string;
  probes : bool;  (* the join into [big] takes the probe path *)
  expect : (string * [ `Big_first | `Small_first ]) list;
      (* per DNF branch: its conditions besides [s.k = b.k], and the
         order of its rows *)
}

let spj where =
  "select b.id, s.sid from small s, big b where s.k = b.k and " ^ where

let filtered_join_cases =
  let case name ?(probes = true) ?(order = `Big_first) where =
    { name; sql = spj where; probes; expect = [ (where, order) ] }
  in
  [
    (* 6 current rows x fanout 4 = 24 < 100 filtered rows *)
    case "probe, one key" "b.tag = 'x'";
    case "probe, two keys" "s.k2 = b.k2 and b.tag = 'x'";
    case "probe, two local predicates" "b.tag = 'x' and b.id < 150";
    (* 24 >= 10: the hash join, built on [small] *)
    case "hash, filtered side larger" ~probes:false "b.tag = 'y'";
    (* 2 < 6: the filtered [big] starts the join, and the hash join
       builds on it *)
    case "hash, filtered side smaller" ~probes:false ~order:`Small_first
      "b.tag = 'w'";
    (* SQ's shape: one DNF branch probes, the other hash-joins, and
       DISTINCT keeps the branches' concatenation *)
    {
      name = "DNF branches";
      sql =
        "select distinct b.id, s.sid from small s, big b where s.k = b.k \
         and (b.tag = 'x' or b.tag = 'y')";
      probes = true;
      expect = [ ("b.tag = 'x'", `Big_first); ("b.tag = 'y'", `Big_first) ];
    };
  ]

let test_filtered_join c () =
  let db = join_db ~index_k:true and hash_db = join_db ~index_k:false in
  let bind db sql = Binder.bind db (Sql_parser.parse sql) in
  let bound = bind db c.sql in
  let auto = Exec.run db bound in
  let check what = Alcotest.(check bool) (c.name ^ ": " ^ what) true in
  check "naive bag"
    (Exec.result_equal_bag auto (Exec.run ~strategy:`Naive db bound));
  let expected =
    List.concat_map
      (fun (where, order) ->
        let naive = Exec.run ~strategy:`Naive db (bind db (spj where)) in
        hash_join_order order naive.Exec.rows)
      c.expect
  in
  check "hash-join order"
    (Exec.result_equal_list auto { auto with Exec.rows = expected });
  check "same list without the join index"
    (Exec.result_equal_list auto (Exec.run hash_db (bind hash_db c.sql)));
  Alcotest.(check int) (c.name ^ ": probed")
    (crossings hash_db (bind hash_db c.sql))
    (crossings db bound + if c.probes then 1 else 0)

(* ---------------------------- Join row order ---------------------------- *)

(* Random equi-joins of two tables [l] and [r] (id, a, b), where [id] is
   the row id, compared row for row with a nested loop in the documented
   order, matching keys by [Value.equal].  The join is on [a] or on [a]
   and [b] (b in 0..2).  Keys [a] come from a dense range, the same range
   shifted to hold negative keys, or a sparse one whose far outliers
   include 2^40, [max_int] and [min_int]; some rows store a key as the
   float [k.0] or as [Null].  Each side has 1–300 rows, so a hash table's
   slots collide, and [a] may be indexed on both tables, built after
   [index_at]% of the rows, so later rows reach the index by append,
   inside or outside its directory's span.  With [filtered], [r] keeps
   its rows with [b = 0].  The plan starts from the smaller source (the
   first in FROM on a tie), counting a filtered [r] by its kept rows.
   The other is joined by:
   - an index-nested loop when it is an unfiltered indexed table:
     current rows ascending, then each one's matching base rows
     descending;
   - for the filtered [r], indexed, when |l| x the fanout of [r.a] is
     below its kept rows: the probe with [~filter], which emits the hash
     join it stands in for, built on [l];
   - otherwise a hash join, built on the smaller input (the current one
     on a tie): probe rows ascending, then each one's matching build
     rows descending. *)
type key_range = Dense | Negative | Sparse

type order_case = {
  ln : int;
  rn : int;
  range : key_range;
  width : int;
  floats : bool;
  nulls : bool;
  two_keys : bool;
  indexed : bool;
  index_at : int;
  filtered : bool;
  seed : int;
}

let order_case_arb =
  let open QCheck.Gen in
  let side = int_range 1 300 in
  let case =
    map3
      (fun (ln, rn, range) (width, floats, nulls, two_keys)
           (indexed, index_at, filtered, seed) ->
        { ln; rn; range; width; floats; nulls; two_keys; indexed; index_at; filtered; seed })
      (triple side side (oneofl [ Dense; Negative; Sparse ]))
      (quad (oneof [ int_range 1 8; int_range 1 400 ]) bool bool bool)
      (quad bool (oneofl [ 0; 50; 100 ]) bool int)
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf
        "l=%d r=%d keys %s<%d floats=%b nulls=%b two_keys=%b indexed=%b@%d%% \
         filtered=%b seed=%d"
        c.ln c.rn
        (match c.range with Dense -> "dense" | Negative -> "negative" | Sparse -> "sparse")
        c.width c.floats c.nulls c.two_keys c.indexed c.index_at c.filtered c.seed)
    case

let prop_join_row_order =
  QCheck.Test.make ~name:"join rows in kernel order" ~count:300 order_case_arb
    (fun c ->
      let st = Random.State.make [| c.seed |] in
      let outliers = [| 1 lsl 40; -(1 lsl 40); max_int; min_int; min_int + 1 |] in
      let key () =
        let k =
          match c.range with
          | Dense -> Random.State.int st c.width
          | Negative -> Random.State.int st c.width - (c.width / 2) - 1
          | Sparse ->
              if Random.State.int st 8 = 0 then
                outliers.(Random.State.int st (Array.length outliers))
              else Random.State.int st c.width
        in
        if c.nulls && Random.State.int st 10 = 0 then Value.Null
        else if c.floats && Random.State.bool st then Value.Float (float_of_int k)
        else Value.Int k
      in
      let rows n = Array.init n (fun _ -> (key (), Random.State.int st 3)) in
      let l = rows c.ln and r = rows c.rn in
      let db = Database.create () in
      List.iter
        (fun (name, rows) ->
          Database.add_table db
            (Schema.make ~name
               ~cols:
                 [ ("id", Value.TInt); ("a", Value.TInt); ("b", Value.TInt) ]
               ());
          let at = Array.length rows * c.index_at / 100 in
          Array.iteri
            (fun i (a, b) ->
              if c.indexed && i = at then Table.build_index (Database.table db name) "a";
              Database.insert db name [ Value.Int i; a; Value.Int b ])
            rows;
          if c.indexed then Table.build_index (Database.table db name) "a")
        [ ("l", l); ("r", r) ];
      let sql =
        "select l.id, r.id from l, r where l.a = r.a"
        ^ (if c.two_keys then " and l.b = r.b" else "")
        ^ if c.filtered then " and r.b = 0" else ""
      in
      let got =
        List.map
          (function
            | [| Value.Int i; Value.Int j |] -> (i, j)
            | _ -> QCheck.Test.fail_report "expected (l.id, r.id) rows")
          (run db sql).Exec.rows
      in
      let matches i j =
        Value.equal (fst l.(i)) (fst r.(j))
        && ((not c.two_keys) || snd l.(i) = snd r.(j))
      in
      let l_ids = List.init c.ln Fun.id in
      let r_ids =
        List.filter (fun j -> (not c.filtered) || snd r.(j) = 0) (List.init c.rn Fun.id)
      in
      let nr = List.length r_ids in
      (* Each [outer] row ascending, then its matching [inner] rows
         descending, as (l.id, r.id) pairs. *)
      let nested ~outer ~inner ~l_outer =
        List.concat_map
          (fun o ->
            List.filter_map
              (fun i ->
                let lid, rid = if l_outer then (o, i) else (i, o) in
                if matches lid rid then Some (lid, rid) else None)
              (List.rev inner))
          outer
      in
      let expected =
        let l_outer = nested ~outer:l_ids ~inner:r_ids ~l_outer:true
        and r_outer = nested ~outer:r_ids ~inner:l_ids ~l_outer:false in
        if c.ln <= nr then
          (* [l] drives; [r] is the step. *)
          if c.filtered then
            (* The probe with [~filter] and the hash join built on [l]
               emit one order. *)
            r_outer
          else if c.indexed then l_outer
          else r_outer
        else if c.indexed then r_outer (* [r] drives; [l] is probed *)
        else l_outer
      in
      if got <> expected then
        QCheck.Test.fail_reportf "%d rows, %d expected; first difference at %d"
          (List.length got) (List.length expected)
          (let rec first i = function
             | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else i
             | _ -> i
           in
           first 0 (got, expected));
      true)

(* --------------------------- Oracle property --------------------------- *)

(* Random SPJ queries on a reduced tiny db: Auto must equal Naive. *)
let prop_auto_equals_naive =
  let db = db () in
  let gen =
    QCheck.make
      ~print:(fun q -> Sql_print.query_to_string q)
      (QCheck.Gen.map
         (fun seed ->
           let rng = Putil.Rng.create seed in
           Moviedb.Workload.random_query db rng)
         QCheck.Gen.small_int)
  in
  QCheck.Test.make ~name:"auto strategy = naive semantics" ~count:60 gen
    (fun q ->
      let bound = Binder.bind db q in
      let a = Exec.run ~strategy:`Auto db bound in
      let n = Exec.run ~strategy:`Naive db bound in
      Exec.result_equal_bag a n)

(* Disjunctive DISTINCT queries: DNF path vs naive. *)
let prop_dnf_equals_naive =
  let db = db () in
  let genres = [ "comedy"; "thriller"; "sci-fi"; "drama"; "romance"; "mystery" ] in
  let gen =
    QCheck.make
      ~print:(fun (a, b, c) -> Printf.sprintf "%s|%s|%s" a b c)
      QCheck.Gen.(
        map3 (fun a b c -> (a, b, c)) (oneofl genres) (oneofl genres) (oneofl genres))
  in
  QCheck.Test.make ~name:"DNF split = naive on disjunctions" ~count:40 gen
    (fun (a, b, c) ->
      let sql =
        Printf.sprintf
          "select distinct m.title from movie m, genre g, directed dd where m.mid \
           = g.mid and m.mid = dd.mid and (g.genre = '%s' or g.genre = '%s' or \
           (g.genre = '%s' and m.year = 2003))"
          a b c
      in
      let bound = Binder.bind db (Sql_parser.parse sql) in
      Exec.result_equal_bag
        (Exec.run ~strategy:`Auto db bound)
        (Exec.run ~strategy:`Naive db bound))

let () =
  Alcotest.run "exec"
    [
      ( "binder",
        [
          Alcotest.test_case "errors" `Quick test_bind_errors;
          Alcotest.test_case "ranked MQ faults" `Quick test_bind_ranked_mq_faults;
          Alcotest.test_case "bare columns" `Quick test_bind_resolves_bare_columns;
          Alcotest.test_case "date coercion" `Quick test_bind_date_coercion;
        ] );
      ( "operators",
        [
          Alcotest.test_case "select/where" `Quick test_select_where;
          Alcotest.test_case "projection const" `Quick test_projection_const;
          Alcotest.test_case "hash join" `Quick test_join_hash;
          Alcotest.test_case "self join" `Quick test_join_self;
          Alcotest.test_case "cross product" `Quick test_cross_product_when_no_join;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "or (dnf path)" `Quick test_or_dnf_path;
          Alcotest.test_case "dnf row charge" `Quick test_dnf_row_charge;
          Alcotest.test_case "or (generic path)" `Quick test_or_without_distinct;
          Alcotest.test_case "group/having" `Quick test_group_having_count;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "aggregate over empty" `Quick test_aggregate_empty_group_by;
          Alcotest.test_case "union all" `Quick test_union_all;
          Alcotest.test_case "union having threshold" `Quick test_union_having_threshold;
          Alcotest.test_case "degree_of_conjunction" `Quick
            test_degree_of_conjunction_aggregate;
          Alcotest.test_case "doi dedup" `Quick test_doi_dedupes_pref_ids;
          Alcotest.test_case "order by / limit" `Quick test_order_by_limit;
          Alcotest.test_case "empty results" `Quick test_empty_results;
          Alcotest.test_case "constant true" `Quick test_constant_true;
          Alcotest.test_case "not" `Quick test_not_predicate;
          Alcotest.test_case "non-equi residual" `Quick test_inequality_joins_as_residual;
          Alcotest.test_case "dnf order/limit" `Quick test_dnf_with_order_and_limit;
          Alcotest.test_case "unused FROM table" `Quick test_unused_from_table_semantics;
        ] );
      ( "filtered join",
        List.map
          (fun c -> Alcotest.test_case c.name `Quick (test_filtered_join c))
          filtered_join_cases );
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_auto_equals_naive; prop_dnf_equals_naive; prop_join_row_order;
          ] );
    ]
