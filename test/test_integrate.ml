(* Preference integration (§6): tuple-variable allocation, SQ and MQ
   construction, and — crucially — semantic equivalence of the two
   approaches on live data. *)

open Perso
open Relal

let d = Helpers.deg
let str s = Value.Str s

let setting ?(profile = Moviedb.Personas.julie ()) ?(k = 5) () =
  let db = Moviedb.Personas.tiny_db () in
  let q = Binder.bind db (Moviedb.Workload.tonight_query ()) in
  let qg = Qgraph.of_query db q in
  let pk = Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r k) in
  (db, qg, Integrate.instantiate db qg pk)

(* -------------------------- instantiate --------------------------- *)

let test_instantiate_fresh_variables () =
  let db, qg, insts = setting () in
  ignore qg;
  (* No introduced alias may collide with the query's (mv, pl). *)
  List.iter
    (fun inst ->
      List.iter
        (fun (r : Sql_ast.table_ref) ->
          Alcotest.(check bool)
            (Printf.sprintf "alias %s fresh" r.Sql_ast.alias)
            false
            (List.mem r.Sql_ast.alias [ "mv"; "pl" ]))
        inst.Integrate.trefs)
    insts;
  ignore db

let test_instantiate_to_one_prefix_shared () =
  (* Two director-name preferences must share the DIRECTED/DIRECTOR
     variables (all-to-one prefix), making them explicitly conflicting. *)
  let profile =
    Profile.of_list
      [
        (Atom.join ("movie", "mid") ("directed", "mid"), d 1.0);
        (Atom.join ("directed", "did") ("director", "did"), d 1.0);
        (Atom.sel "director" "name" (str "W. Allen"), d 0.7);
        (Atom.sel "director" "name" (str "D. Lynch"), d 0.8);
      ]
  in
  let _, _, insts = setting ~profile () in
  Alcotest.(check int) "two preferences" 2 (List.length insts);
  let aliases inst =
    List.map (fun (r : Sql_ast.table_ref) -> r.Sql_ast.alias) inst.Integrate.trefs
    |> List.sort compare
  in
  match insts with
  | [ a; b ] ->
      Alcotest.(check (list string)) "same variables" (aliases a) (aliases b)
  | _ -> Alcotest.fail "two expected"

let test_instantiate_to_many_branches () =
  (* Two actor-name preferences reach ACTOR through the to-many CAST
     join: each must get its own CAST/ACTOR variables (§6(b) case 2). *)
  let profile =
    Profile.of_list
      [
        (Atom.join ("movie", "mid") ("cast", "mid"), d 0.8);
        (Atom.join ("cast", "aid") ("actor", "aid"), d 1.0);
        (Atom.sel "actor" "name" (str "I. Rossellini"), d 0.6);
        (Atom.sel "actor" "name" (str "A. Hopkins"), d 0.8);
      ]
  in
  let _, _, insts = setting ~profile () in
  match insts with
  | [ a; b ] ->
      let aliases inst =
        List.map (fun (r : Sql_ast.table_ref) -> r.Sql_ast.alias) inst.Integrate.trefs
      in
      List.iter
        (fun al ->
          Alcotest.(check bool)
            (Printf.sprintf "alias %s not shared" al)
            false
            (List.mem al (aliases b)))
        (aliases a)
  | _ -> Alcotest.fail "two expected"

let test_instantiate_date_coercion () =
  let profile =
    Profile.of_list
      [
        (Atom.join ("movie", "mid") ("play", "mid"), d 0.9);
        (Atom.sel "play" "date" (str "2003-07-05"), d 0.5);
      ]
  in
  let db = Moviedb.Personas.tiny_db () in
  (* Query over MOVIE only so the PLAY preference needs the join. *)
  let q = Binder.bind db (Sql_parser.parse "select m.title from movie m") in
  let qg = Qgraph.of_query db q in
  let pk = Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 5) in
  let insts = Integrate.instantiate db qg pk in
  match insts with
  | [ inst ] ->
      let sql = Sql_print.pred_to_string inst.Integrate.pred in
      Alcotest.(check bool) "date literal coerced" true
        (let rec contains i =
           i + 12 <= String.length sql
           && (String.sub sql i 12 = "'2003-07-05'" || contains (i + 1))
         in
         contains 0)
  | _ -> Alcotest.fail "one preference expected"

(* Instantiation binds each condition: a stored atom the catalog cannot
   bind fails with the binder's own text, the one binding the whole
   personalized query gave, and a date string becomes a date. *)
let test_instantiate_binds () =
  let db = Moviedb.Personas.tiny_db () in
  let q = Binder.bind db (Sql_parser.parse "select mv.title from movie mv") in
  let qg = Qgraph.of_query db q in
  let inst atoms =
    Integrate.instantiate db qg
      (Select.select db (Pgraph.of_profile (Profile.of_list atoms)) qg (Criteria.top_r 5))
  in
  let play = (Atom.join ("movie", "mid") ("play", "mid"), d 0.9) in
  List.iter
    (fun (what, atoms, expected) ->
      match inst atoms with
      | _ -> Alcotest.failf "%s: instantiated" what
      | exception Binder.Bind_error e -> Alcotest.(check string) what expected e)
    [
      ("unknown column", [ (Atom.sel "movie" "foo" (Value.Int 1), d 0.9) ],
       "tuple variable mv has no column foo");
      ("unlike types", [ (Atom.sel "movie" "year" (str "x"), d 0.9) ],
       "predicate compares int with string");
      ("unparsable date", [ play; (Atom.sel "play" "date" (str "2003-13-45"), d 0.5) ],
       "string \"2003-13-45\" is not a valid date literal");
    ];
  match inst [ play; (Atom.sel "play" "date" (str "2/7/2003"), d 0.5) ] with
  | [ { pred; _ } ] ->
      Alcotest.(check bool) "the paper's date format becomes a date" true
        (List.exists
           (function
             | Sql_ast.P_cmp (_, _, Sql_ast.S_const (Value.Date _)) -> true
             | _ -> false)
           (Sql_ast.conjuncts pred))
  | _ -> Alcotest.fail "one preference expected"

(* Each new tuple variable is the first name among base, base1, base2,
   … (base: its relation's first two letters) that is neither a variable
   of the query nor one allocated before it, in path order.  The query
   already holds genre variables that look generated, with gaps, and the
   director paths allocate two relations with one base, DIRECTED and
   DIRECTOR. *)
let test_instantiate_alias_order () =
  let db = Moviedb.Personas.tiny_db () in
  let graph sql = Qgraph.of_query db (Binder.bind db (Sql_parser.parse sql)) in
  (* Selected over MOVIE alone, where a join into GENRE is no cycle. *)
  let paths =
    Select.select db
      (Pgraph.of_profile (Moviedb.Personas.julie ()))
      (graph "select mv.title from movie mv")
      (Criteria.top_r 20)
  in
  let qg =
    graph
      "select mv.title from movie mv, genre ge, genre ge1, genre ge3 where \
       mv.mid = ge.mid and mv.mid = ge1.mid and mv.mid = ge3.mid"
  in
  let insts = Integrate.instantiate db qg paths in
  let used = Hashtbl.create 16 in
  List.iter (fun (tv, _) -> Hashtbl.replace used tv ()) (Qgraph.tvs qg);
  let first_free base =
    let rec go i =
      let cand = if i = 0 then base else base ^ string_of_int i in
      if Hashtbl.mem used cand then go (i + 1) else cand
    in
    go 0
  in
  (* (variable, relation), in allocation order *)
  let allocated = ref [] in
  List.iter
    (fun inst ->
      List.iter
        (fun { Sql_ast.rel; alias } ->
          (* A variable met again is a shared to-one prefix. *)
          if not (List.mem_assoc alias !allocated) then begin
            let expected = first_free (String.sub rel 0 2) in
            Alcotest.(check string) ("variable for " ^ rel) expected alias;
            Hashtbl.replace used expected ();
            allocated := !allocated @ [ (expected, rel) ]
          end)
        inst.Integrate.trefs)
    insts;
  let of_rel rel =
    List.filter_map (fun (a, r) -> if r = rel then Some a else None) !allocated
  in
  Alcotest.(check (list string)) "genre variables fill the gaps" [ "ge2"; "ge4"; "ge5" ]
    (of_rel "genre");
  Alcotest.(check (list string)) "directed, then director" [ "di"; "di1" ]
    (of_rel "directed" @ of_rel "director")

(* ------------------------------ SQ ------------------------------- *)

let test_sq_structure () =
  let db, qg, insts = setting ~k:3 () in
  let sq = Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:2 in
  Alcotest.(check bool) "distinct" true sq.Sql_ast.distinct;
  (* C(3,2) = 3 disjuncts unless conflicts removed some. *)
  (match sq.Sql_ast.where with
  | Sql_ast.P_and ps -> (
      match List.rev ps with
      | Sql_ast.P_or disjuncts :: _ ->
          Alcotest.(check bool) "at most C(3,2) disjuncts" true
            (List.length disjuncts <= 3)
      | _ -> Alcotest.fail "disjunction last")
  | _ -> Alcotest.fail "conjunction at top");
  (* The SQ query must bind and run. *)
  ignore (Engine.run_query db sq)

let test_sq_l0_is_query_plus_mandatory () =
  let db, qg, insts = setting ~k:2 () in
  let sq = Integrate.sq db qg ~mandatory:insts ~optional:[] ~l:0 in
  let base = Engine.run_query db sq in
  (* All mandatory: every returned movie satisfies both preferences. *)
  Alcotest.(check bool) "runs" true (base.Exec.cols <> [||])

(* An L no optional set can meet is a caller's error ([Personalize]
   clamps L); a projection that is not attribute-only is no SPJ query,
   which the ladder runs plain. *)
let test_sq_errors () =
  let db, qg, insts = setting ~k:2 () in
  Alcotest.(check bool) "l too large" true
    (try
       ignore (Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative l" true
    (try
       ignore (Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:(-1));
       false
     with Invalid_argument _ -> true);
  let counted = Binder.bind db (Sql_parser.parse "select count(*) as n from movie mv") in
  Alcotest.(check bool) "aggregate projection" true
    (try
       ignore (Integrate.sq db (Qgraph.of_query db counted) ~mandatory:[] ~optional:[] ~l:0);
       false
     with Qgraph.Not_conjunctive _ -> true)

let test_sq_conflicting_combos_dropped () =
  (* Two shared-variable director preferences conflict; with L=2 every
     combination contains the conflicting pair: the disjunction is empty,
     so the qualification is FALSE and no row qualifies. *)
  let profile =
    Profile.of_list
      [
        (Atom.join ("movie", "mid") ("directed", "mid"), d 1.0);
        (Atom.join ("directed", "did") ("director", "did"), d 1.0);
        (Atom.sel "director" "name" (str "W. Allen"), d 0.7);
        (Atom.sel "director" "name" (str "D. Lynch"), d 0.8);
      ]
  in
  let db, qg, insts = setting ~profile () in
  let none = Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:2 in
  Alcotest.(check bool) "all-conflicting combos: FALSE" true
    (none.Sql_ast.where = Sql_ast.P_false);
  Alcotest.(check int) "no row" 0 (List.length (Engine.run_query db none).Exec.rows);
  (* With L=1 both are usable as alternatives. *)
  let sq = Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:1 in
  let res = Engine.run_query db sq in
  Alcotest.(check (slist string String.compare)) "Lynch or Allen tonight"
    [
      "Sweet Chaos"; "Midnight Maze"; "Laughing Waters"; "Blue Velvet Road";
      "Double Take"; "Dream Logic";
    ]
    (Helpers.titles res)

let test_dedup_conjuncts () =
  let p1 = Sql_parser.parse_pred "a.x = 1" in
  let p2 = Sql_parser.parse_pred "a.y = 2" in
  Alcotest.(check int) "dedup" 2
    (List.length (Integrate.dedup_conjuncts [ p1; p2; p1; p1 ]))

(* ------------------------------ MQ ------------------------------- *)

let test_mq_structure () =
  let db, qg, insts = setting ~k:3 () in
  let mq = Integrate.mq db qg ~mandatory:[] ~optional:insts ~l:(`At_least 1) () in
  (match mq.Sql_ast.from with
  | [ Sql_ast.F_derived (C_union_all branches, "temp") ] ->
      Alcotest.(check int) "one partial per optional pref" 3 (List.length branches)
  | _ -> Alcotest.fail "derived union-all");
  Alcotest.(check bool) "grouped" true (mq.Sql_ast.group_by <> []);
  Alcotest.(check bool) "ranked" true (mq.Sql_ast.order_by <> []);
  ignore (Engine.run_query db mq)

let test_mq_unranked () =
  let db, qg, insts = setting ~k:3 () in
  let mq = Integrate.mq ~rank:false db qg ~mandatory:[] ~optional:insts ~l:(`At_least 1) () in
  Alcotest.(check int) "only the projection" 1 (List.length mq.Sql_ast.select);
  Alcotest.(check bool) "no order" true (mq.Sql_ast.order_by = [])

let test_mq_min_doi () =
  let db, qg, insts = setting ~k:5 () in
  let mq = Integrate.mq db qg ~mandatory:[] ~optional:insts ~l:(`Min_doi 0.85) () in
  let res = Engine.run_query db mq in
  List.iter
    (fun row ->
      match row.(Array.length row - 1) with
      | Value.Float f -> Alcotest.(check bool) "row doi above threshold" true (f > 0.85)
      | _ -> Alcotest.fail "doi column expected")
    res.Exec.rows

let test_mq_mandatory_in_every_partial () =
  let db, qg, insts = setting ~k:3 () in
  match insts with
  | top :: rest ->
      let mq = Integrate.mq db qg ~mandatory:[ top ] ~optional:rest ~l:(`At_least 1) () in
      let sql = Sql_print.query_to_string mq in
      let needle = Sql_print.pred_to_string top.Integrate.pred in
      let count_occurrences s sub =
        let n = String.length s and m = String.length sub in
        let c = ref 0 in
        for i = 0 to n - m do
          if String.sub s i m = sub then incr c
        done;
        !c
      in
      Alcotest.(check int) "mandatory condition in both partials" 2
        (count_occurrences sql needle)
  | _ -> Alcotest.fail "need preferences"

(* A repeated output name becomes a derived-table column named neither
   like another output nor like an earlier repeat, so each column of
   ranked MQ reads its own attribute: every row, less its degree, is a
   row of Q's DISTINCT answer. *)
let test_mq_repeated_output_names () =
  let db = Moviedb.Personas.tiny_db () in
  let printed rows = List.map (fun r -> Array.to_list (Array.map Value.to_string r)) rows in
  List.iter
    (fun sql ->
      let q = Binder.bind db (Sql_parser.parse sql) in
      let qg = Qgraph.of_query db q in
      let pk =
        Select.select db (Pgraph.of_profile (Moviedb.Personas.julie ())) qg (Criteria.top_r 5)
      in
      let insts = Integrate.instantiate db qg pk in
      let mq = Integrate.mq db qg ~mandatory:[] ~optional:insts ~l:(`At_least 1) () in
      let answer =
        printed (Engine.run_query db { q with Sql_ast.distinct = true }).Exec.rows
      in
      let ranked =
        printed
          (List.map
             (fun r -> Array.sub r 0 (Array.length r - 1))
             (Engine.run_query db mq).Exec.rows)
      in
      Alcotest.(check bool) (sql ^ ": rows") true (ranked <> []);
      List.iter
        (fun row ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s in Q's answer" sql (String.concat "|" row))
            true (List.mem row answer))
        ranked)
    [
      "select pl.tid, pl.tid, mv.year as tid_2 from movie mv, play pl where mv.mid = pl.mid";
      "select mv.title as t_2, mv.year as t, mv.mid as t from movie mv";
    ]

(* --------------------- SQ ≡ MQ (live equivalence) --------------------- *)

let titles_set res = List.sort_uniq compare (Helpers.titles res)

let equivalence_case profile k l () =
  let db, qg, insts = setting ~profile ~k () in
  let l = min l (List.length insts) in
  let sq = Integrate.sq db qg ~mandatory:[] ~optional:insts ~l in
  let mq = Integrate.mq ~rank:false db qg ~mandatory:[] ~optional:insts ~l:(`At_least l) () in
  let rs = Engine.run_query db sq and rm = Engine.run_query db mq in
  Alcotest.(check (list string))
    (Printf.sprintf "SQ = MQ for K=%d L=%d" k l)
    (titles_set rs) (titles_set rm)

let test_sq_mq_equivalence_julie () =
  List.iter
    (fun (k, l) -> equivalence_case (Moviedb.Personas.julie ()) k l ())
    [ (1, 1); (3, 1); (3, 2); (5, 1); (5, 2); (5, 3); (8, 2) ]

let test_sq_mq_equivalence_rob () =
  List.iter
    (fun (k, l) -> equivalence_case (Moviedb.Personas.rob ()) k l ())
    [ (2, 1); (3, 1); (3, 2) ]

let test_sq_mq_equivalence_with_mandatory () =
  let db, qg, insts = setting ~k:4 () in
  match insts with
  | top :: rest when List.length rest >= 2 ->
      let sq = Integrate.sq db qg ~mandatory:[ top ] ~optional:rest ~l:1 in
      let mq =
        Integrate.mq ~rank:false db qg ~mandatory:[ top ] ~optional:rest
          ~l:(`At_least 1) ()
      in
      Alcotest.(check (list string)) "SQ = MQ with M=1"
        (titles_set (Engine.run_query db sq))
        (titles_set (Engine.run_query db mq))
  | _ -> Alcotest.fail "need at least 3 preferences"

(* MQ ranking respects the conjunctive degree ordering. *)
let test_mq_rank_order () =
  let db, qg, insts = setting ~k:5 () in
  let mq = Integrate.mq db qg ~mandatory:[] ~optional:insts ~l:(`At_least 1) () in
  let res = Engine.run_query db mq in
  let dois =
    List.map
      (fun row ->
        match row.(Array.length row - 1) with
        | Value.Float f -> f
        | _ -> Alcotest.fail "doi expected")
      res.Exec.rows
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "ranked descending" true (decreasing dois)

(* Randomized SQ-vs-MQ relation over synthetic databases, profiles and
   queries.  For L = 1 the two approaches coincide.  For L >= 2 they are
   equivalent only when the projection determines the query's tuple
   variables (the paper's implicit setting — project MV.title, prefer
   movies): SQ requires a single witness assignment of the original
   query's variables to satisfy all L conditions, while MQ's UNION lets
   each preference be witnessed by a different base-query row agreeing on
   the projection.  Hence the general law: rows(SQ) ⊆ rows(MQ), with
   equality at L = 1.  (See DESIGN.md, "SQ vs MQ equivalence".) *)
let prop_sq_mq_random =
  let db =
    Moviedb.Datagen.generate
      { Moviedb.Datagen.default with movies = 150; actors = 60; directors = 15; theatres = 6 }
  in
  QCheck.Test.make ~name:"SQ = MQ on random settings" ~count:30
    QCheck.(quad small_int (int_range 1 2) (int_range 0 1) (int_range 1 20))
    (fun (seed, l, m, k) ->
      let profile =
        Moviedb.Profile_gen.generate db
          { Moviedb.Profile_gen.default with seed = seed + 50; n_selections = 30 }
      in
      let rng = Putil.Rng.create (seed + 99) in
      let q = Binder.bind db (Moviedb.Workload.random_query db rng) in
      let qg = Qgraph.of_query db q in
      let pk = Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r k) in
      let insts = Integrate.instantiate db qg pk in
      let mandatory, optional =
        Integrate.split_mandatory ~m:(`Count m) insts (fun i ->
            i.Integrate.path.Path.degree)
      in
      let l = min l (List.length optional) in
      if insts = [] then true
      else
        let sq = Integrate.sq db qg ~mandatory ~optional ~l in
        let mq = Integrate.mq ~rank:false db qg ~mandatory ~optional ~l:(`At_least l) () in
        let rows q' =
          (Engine.run_query db q').Exec.rows
          |> List.map (fun r -> Array.map Value.to_string r |> Array.to_list)
          |> List.sort_uniq compare
        in
        let rs = rows sq and rm = rows mq in
        if l <= 1 then rs = rm else List.for_all (fun r -> List.mem r rm) rs)

(* ------------------- SQ's enumeration and its bounds ------------------- *)

let rec subsets xs k =
  match (xs, k) with
  | _, 0 -> [ [] ]
  | [], _ -> []
  | x :: rest, k -> List.map (fun s -> x :: s) (subsets rest (k - 1)) @ subsets rest k

let pairwise_free db insts =
  let rec go = function
    | [] -> true
    | (x : Integrate.instantiated) :: rest ->
        List.for_all
          (fun (y : Integrate.instantiated) ->
            not (Conflict.paths_conflict db x.path y.path))
          rest
        && go rest
  in
  go insts

(* SQ as §6 states it, built the slow way: every L-subset of the optional
   preferences in the lexicographic order of positions, kept when no
   pair in it conflicts; each kept subset the conjunction of its
   conditions, repeats removed; the optional variables in order of first
   occurrence over the kept subsets.  When every subset conflicts the
   disjunction is empty, FALSE.  Without mandatory preferences. *)
let reference_sq db qg ~optional ~l =
  let combos = List.filter (pairwise_free db) (subsets optional l) in
  let q0 = Qgraph.query qg in
  let seen = Hashtbl.create 16 in
  let vars =
    List.filter
      (fun (i : Integrate.instantiated) ->
        (not (Hashtbl.mem seen i.index)) && (Hashtbl.add seen i.index (); true))
      (List.concat combos)
  in
  let aliases = Hashtbl.create 16 in
  let trefs =
    List.filter
      (fun (r : Sql_ast.table_ref) ->
        (not (Hashtbl.mem aliases r.alias)) && (Hashtbl.add aliases r.alias (); true))
      (List.concat_map (fun (i : Integrate.instantiated) -> i.trefs) vars)
  in
  let conds = Integrate.dedup_conjuncts (Sql_ast.conjuncts q0.where) in
  let disj =
    Sql_ast.disj
      (List.map
         (fun c ->
           Sql_ast.conj
             (Integrate.dedup_conjuncts
                (List.map (fun (i : Integrate.instantiated) -> i.pred) c)))
         combos)
  in
  let repeated =
    List.mem (Sql_print.pred_to_string disj) (List.map Sql_print.pred_to_string conds)
  in
  {
    q0 with
    Sql_ast.distinct = true;
    from = q0.from @ List.map (fun r -> Sql_ast.F_rel r) trefs;
    where = Sql_ast.conj (conds @ if repeated then [] else [ disj ]);
  }

(* Conflicts forced into a profile: several MOVIE.year selections
   (conflicting on a movie variable) and selections at the end of to-one
   chains (DIRECTOR.name through DIRECTED, THEATRE.region from PLAY),
   with the joins that reach them. *)
let with_conflicts rng profile =
  let int n = Random.State.int rng n in
  let deg () = d (0.3 +. Random.State.float rng 0.7) in
  let add p atom = Profile.add p atom (deg ()) in
  let p =
    List.fold_left add profile
      [
        Atom.join ("movie", "mid") ("directed", "mid");
        Atom.join ("directed", "did") ("director", "did");
        Atom.join ("play", "mid") ("movie", "mid");
        Atom.join ("play", "tid") ("theatre", "tid");
      ]
  in
  let p =
    List.fold_left add p
      (List.init (2 + int 3) (fun i -> Atom.sel "movie" "year" (Value.Int (1990 + i))))
  in
  let p =
    List.fold_left add p
      (List.init (1 + int 3) (fun i -> Atom.sel "director" "name" (str (Printf.sprintf "D%d" i))))
  in
  List.fold_left add p
    (List.init (1 + int 3) (fun i -> Atom.sel "theatre" "region" (str (Printf.sprintf "R%d" i))))

(* The enumeration builds the conjunctions, the variables and so every
   byte of the query that the filter over all L-subsets builds, and
   raises where that filter keeps nothing. *)
let test_sq_enumeration () =
  let tiny = lazy (Moviedb.Personas.tiny_db ()) in
  let synthetic =
    lazy
      (Moviedb.Datagen.generate
         { Moviedb.Datagen.default with movies = 150; actors = 60; directors = 15; theatres = 6 })
  in
  let met = Hashtbl.create 8 in
  let saw kind = Hashtbl.replace met kind (1 + Option.value ~default:0 (Hashtbl.find_opt met kind)) in
  let prop =
    QCheck.Test.make ~name:"SQ = the conflict-free L-subsets, in order" ~count:300
      QCheck.(int_bound 1_000_000)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let int n = Random.State.int rng n in
        let db, base =
          if int 3 = 0 then
            ( Lazy.force tiny,
              if int 2 = 0 then Moviedb.Personas.julie () else Moviedb.Personas.rob () )
          else
            let db = Lazy.force synthetic in
            ( db,
              Moviedb.Profile_gen.generate db
                { Moviedb.Profile_gen.default with seed; n_selections = 5 + int 20 } )
        in
        let q =
          if int 2 = 0 then Moviedb.Workload.tonight_query ()
          else Moviedb.Workload.random_query db (Putil.Rng.create seed)
        in
        let qg = Qgraph.of_query db (Binder.bind db q) in
        let pk =
          Select.select db
            (Pgraph.of_profile (with_conflicts rng base))
            qg
            (Criteria.top_r (1 + int 14))
        in
        let optional = Integrate.instantiate db qg pk in
        let l = min (1 + int 4) (List.length optional) in
        let built = Sql_print.query_to_string (Integrate.sq db qg ~mandatory:[] ~optional ~l) in
        let want = Sql_print.query_to_string (reference_sq db qg ~optional ~l) in
        if l >= 2 then begin
          let all = subsets optional l in
          let kept = List.length (List.filter (pairwise_free db) all) in
          if kept = 0 then saw "every combination conflicting"
          else if kept < List.length all then saw "some combinations conflicting"
          else saw "no combination conflicting"
        end;
        built = want || QCheck.Test.fail_reportf "L = %d\nbuilt: %s\nwant:  %s" l built want)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 32 |]) prop;
  List.iter
    (fun kind ->
      let n = Option.value ~default:0 (Hashtbl.find_opt met kind) in
      if n < 20 then Alcotest.failf "only %d cases with %s" n kind)
    [ "every combination conflicting"; "some combinations conflicting"; "no combination conflicting" ]

let words_and_secs f =
  let words0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Gc.minor_words () -. words0, Unix.gettimeofday () -. t0)

let bounded what (words, secs) =
  if secs > 5. || words > 1e8 then Alcotest.failf "%s took %.1f s and %.0f words" what secs words

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let exhausted_by cause build =
  match build () with
  | exception Governor.Exhausted p ->
      if not (contains p.Governor.exhausted cause) then
        Alcotest.failf "exhausted by %S, not %S" p.Governor.exhausted cause
  | (_ : Sql_ast.query) -> Alcotest.failf "SQ built past the %s" cause

(* SQ at K = 60, L = 30 on a 200-selection profile: C(60, 30) is about
   10^17 combinations, and the walk shows in a few thousand steps that
   every one of them holds a conflicting pair.  The disjunction is
   empty, so the qualification is FALSE: the request is answered at full
   strength, with no rung of the ladder, and no row qualifies. *)
let test_sq_size_bound () =
  let db = Moviedb.Datagen.(generate (scale ~seed:11 300)) in
  let profile =
    Moviedb.Profile_gen.generate db
      { Moviedb.Profile_gen.default with seed = 600; n_selections = 200 }
  in
  let q = Sql_parser.parse "select movie.title from movie, genre where movie.mid = genre.mid" in
  let qg = Qgraph.of_query db (Binder.bind db q) in
  let insts =
    Integrate.instantiate db qg
      (Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 60))
  in
  Alcotest.(check int) "60 optional preferences" 60 (List.length insts);
  Alcotest.(check bool) "every 30-combination conflicts: FALSE" true
    ((Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:30).Sql_ast.where = Sql_ast.P_false);
  let params =
    { Personalize.default_params with k = Criteria.top_r 60; l = `At_least 30; method_ = `SQ }
  in
  let r, words, secs = words_and_secs (fun () -> Personalize.personalize_r ~params db profile q) in
  bounded "the request" (words, secs);
  match r with
  | Ok { outcome = Some o; result; degradations = [] } ->
      Alcotest.(check int) "K = 60" 60 (List.length o.Personalize.optional);
      Alcotest.(check int) "no row" 0 (List.length result.Exec.rows)
  | Ok _ -> Alcotest.fail "expected full strength, with no degradation"
  | Error e -> Alcotest.failf "refused: %s" (Error.to_string e)

(* Names reached through to-many joins (a movie has many cast rows and
   many genre rows) never conflict, so every L-combination is a
   conjunction: C(20, 4) = 4,845 is past the executor's branch limit and
   refused, where C(20, 3) = 1,140 is built.  The ladder answers at
   K = 10, L = 2. *)
let test_sq_branch_limit () =
  let db = Moviedb.Personas.tiny_db () in
  let sel rel att i name = (Atom.sel rel att (str name), d (0.9 -. (0.01 *. float_of_int i))) in
  let profile =
    Profile.of_list
      ([
         (Atom.join ("movie", "mid") ("cast", "mid"), d 1.0);
         (Atom.join ("cast", "aid") ("actor", "aid"), d 1.0);
         (Atom.join ("movie", "mid") ("genre", "mid"), d 1.0);
       ]
      @ List.mapi (fun i n -> sel "actor" "name" i n)
          [ "I. Rossellini"; "A. Hopkins"; "N. Kidman"; "W. Allen"; "D. Lynch"; "A1"; "A2";
            "A3"; "A4"; "A5"; "A6"; "A7" ]
      @ List.mapi (fun i g -> sel "genre" "genre" (i + 12) g)
          [ "comedy"; "drama"; "thriller"; "G1"; "G2"; "G3"; "G4"; "G5" ])
  in
  let q = Sql_parser.parse "select mv.title from movie mv" in
  let qg = Qgraph.of_query db (Binder.bind db q) in
  let insts =
    Integrate.instantiate db qg
      (Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 20))
  in
  Alcotest.(check int) "20 optional preferences" 20 (List.length insts);
  Alcotest.(check bool) "none conflicts" true (pairwise_free db insts);
  (match (Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:3).Sql_ast.where with
  | Sql_ast.P_or ds -> Alcotest.(check int) "C(20, 3) conjunctions" 1140 (List.length ds)
  | _ -> Alcotest.fail "a disjunction expected");
  exhausted_by "branches" (fun () -> Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:4);
  let params =
    { Personalize.default_params with k = Criteria.top_r 20; l = `At_least 4; method_ = `SQ }
  in
  match Personalize.personalize_r ~params db profile q with
  | Ok { outcome = Some _; degradations = [ Reduced { params; cause = Resource_exhausted _ } ]; _ } ->
      Alcotest.(check string) "reduced" "top 10" (Criteria.to_string params.k)
  | Ok _ -> Alcotest.fail "expected the reduced rung to answer"
  | Error e -> Alcotest.failf "untyped ladder: %s" (Error.to_string e)

(* Ten groups of four selections, each group on one attribute of one
   variable (or at the end of one to-one chain), so two of a group
   conflict and two of different groups do not: no 11-combination is
   free of conflicts (two of its members share a group), but 5^10
   prefixes are.  The walk stops at its visit cap. *)
let test_sq_visit_cap () =
  let db = Moviedb.Personas.tiny_db () in
  let sels =
    List.concat_map
      (fun i ->
        let s = Printf.sprintf "%s%d" and n = 100 + i in
        [
          Atom.sel "movie" "year" (Value.Int (1990 + i));
          Atom.sel "movie" "title" (str (s "T" i));
          Atom.sel "movie" "mid" (Value.Int n);
          Atom.sel "directed" "did" (Value.Int n);
          Atom.sel "director" "name" (str (s "D" i));
          Atom.sel "play" "tid" (Value.Int n);
          Atom.sel "play" "mid" (Value.Int n);
          Atom.sel "theatre" "region" (str (s "R" i));
          Atom.sel "theatre" "name" (str (s "N" i));
          Atom.sel "theatre" "phone" (str (s "P" i));
        ])
      [ 0; 1; 2; 3 ]
  in
  let profile =
    Profile.of_list
      (List.map
         (fun j -> (j, d 1.0))
         [
           Atom.join ("play", "tid") ("theatre", "tid");
           Atom.join ("movie", "mid") ("directed", "mid");
           Atom.join ("directed", "did") ("director", "did");
         ]
      @ List.mapi (fun i s -> (s, d (0.9 -. (0.001 *. float_of_int i)))) sels)
  in
  let q = Sql_parser.parse "select mv.title from movie mv, play pl where mv.mid = pl.mid" in
  let qg = Qgraph.of_query db (Binder.bind db q) in
  let insts =
    Integrate.instantiate db qg
      (Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 100))
  in
  Alcotest.(check int) "40 optional preferences" 40 (List.length insts);
  let groups =
    List.sort_uniq compare
      (List.map
         (fun (i : Integrate.instantiated) ->
           match Path.selection i.path with
           | Some (s, _) -> (i.path.anchor_tv, Path.join_atoms i.path, s.Atom.s_rel, s.Atom.s_att)
           | None -> Alcotest.fail "a selection path expected")
         insts)
  in
  Alcotest.(check int) "10 groups" 10 (List.length groups);
  let (), words, secs =
    words_and_secs (fun () ->
        exhausted_by "enumeration steps" (fun () ->
            Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:11))
  in
  bounded "the walk" (words, secs)

(* Query 7 of the first 8 workload queries (seed 210) at K = 40, L = 4
   over 2,000 movies and a 200-selection profile (seed 600) keeps
   17,988 of the C(40, 4) = 91,390 combinations: past the branch limit,
   it would run as one join with the disjunction as a residual filter
   (10 s, under a 5 M-row budget).  It is refused on the first rung,
   and the ladder answers at K = 20, L = 2. *)
let test_sq_query7 () =
  let db = Moviedb.Datagen.(generate (scale ~seed:42 2000)) in
  let profile =
    Moviedb.Profile_gen.generate db
      { Moviedb.Profile_gen.default with seed = 600; n_selections = 200 }
  in
  let q = List.nth (Moviedb.Workload.queries db ~n:8 ~seed:210) 7 in
  let qg = Qgraph.of_query db (Binder.bind db q) in
  let insts =
    Array.of_list
      (Integrate.instantiate db qg
         (Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 40)))
  in
  let n = Array.length insts in
  Alcotest.(check int) "40 optional preferences" 40 n;
  let free i j = not (Conflict.paths_conflict db insts.(i).path insts.(j).path) in
  let kept = ref 0 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if free a b then
        for c = b + 1 to n - 1 do
          if free a c && free b c then
            for e = c + 1 to n - 1 do
              if free a e && free b e && free c e then incr kept
            done
        done
    done
  done;
  Alcotest.(check int) "conflict-free 4-combinations" 17_988 !kept;
  exhausted_by "branches" (fun () ->
      Integrate.sq db qg ~mandatory:[] ~optional:(Array.to_list insts) ~l:4);
  let params =
    { Personalize.default_params with k = Criteria.top_r 40; l = `At_least 4; method_ = `SQ }
  in
  let budget = { Governor.unlimited with max_rows = Some 5_000_000 } in
  let r, words, secs =
    words_and_secs (fun () -> Personalize.personalize_r ~params ~budget db profile q)
  in
  bounded "the ladder" (words, secs);
  match r with
  | Ok { outcome = Some _; degradations = [ Reduced { params; cause = Resource_exhausted _ } ]; _ } ->
      Alcotest.(check string) "reduced" "top 20" (Criteria.to_string params.k)
  | Ok _ -> Alcotest.fail "expected the reduced rung to answer"
  | Error e -> Alcotest.failf "untyped ladder: %s" (Error.to_string e)

(* Integration builds its queries from a bound Q and instantiated
   preferences, so they are bound by construction: executing one as
   built returns what binding it once more and executing returns — the
   same columns and the same rows, in order and bit for bit. *)
let prop_runs_as_built =
  let tiny = lazy (Moviedb.Personas.tiny_db ()) in
  let synthetic =
    lazy
      (Moviedb.Datagen.generate
         { Moviedb.Datagen.default with movies = 150; actors = 60; directors = 15; theatres = 6 })
  in
  let same_value a b =
    match (a, b) with
    | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
    | _ -> a = b
  in
  QCheck.Test.make ~name:"a personalized query runs as built" ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let int n = Random.State.int rng n and flip () = Random.State.bool rng in
      let db, profile =
        if int 4 = 0 then
          ( Lazy.force tiny,
            if flip () then Moviedb.Personas.julie () else Moviedb.Personas.rob () )
        else
          let db = Lazy.force synthetic in
          ( db,
            Moviedb.Profile_gen.generate db
              { Moviedb.Profile_gen.default with seed; n_selections = 10 + int 50 } )
      in
      let q = Moviedb.Workload.random_query db (Putil.Rng.create seed) in
      let method_ = if flip () then `SQ else `MQ in
      let l =
        if method_ = `MQ && int 3 = 0 then `Min_doi (Random.State.float rng 0.9)
        else `At_least (int 3)
      in
      let params =
        {
          Personalize.k = Criteria.top_r (1 + int 10);
          m = `Count (int 3);
          l;
          method_;
          rank = flip ();
        }
      in
      let o = Personalize.personalize ~params db profile q in
      let built = Exec.run db o.personalized
      and rebound = Engine.run_query db o.personalized in
      built.cols = rebound.cols
      && List.length built.rows = List.length rebound.rows
      && List.for_all2
           (fun x y -> Array.length x = Array.length y && Array.for_all2 same_value x y)
           built.rows rebound.rows
      || QCheck.Test.fail_reportf "%s" (Sql_print.query_to_string o.personalized))

let () =
  Alcotest.run "integrate"
    [
      ( "instantiate",
        [
          Alcotest.test_case "fresh variables" `Quick test_instantiate_fresh_variables;
          Alcotest.test_case "to-one prefix shared" `Quick
            test_instantiate_to_one_prefix_shared;
          Alcotest.test_case "to-many branches" `Quick test_instantiate_to_many_branches;
          Alcotest.test_case "date coercion" `Quick test_instantiate_date_coercion;
          Alcotest.test_case "conditions bound" `Quick test_instantiate_binds;
          Alcotest.test_case "alias allocation order" `Quick test_instantiate_alias_order;
        ] );
      ( "sq",
        [
          Alcotest.test_case "structure" `Quick test_sq_structure;
          Alcotest.test_case "L=0 degenerate" `Quick test_sq_l0_is_query_plus_mandatory;
          Alcotest.test_case "errors" `Quick test_sq_errors;
          Alcotest.test_case "conflicting combos" `Quick test_sq_conflicting_combos_dropped;
          Alcotest.test_case "dedup conjuncts" `Quick test_dedup_conjuncts;
          Alcotest.test_case "size bound: K = 60, L = 30" `Quick test_sq_size_bound;
          Alcotest.test_case "enumeration = filtered L-subsets" `Quick test_sq_enumeration;
          Alcotest.test_case "branch limit: selections that never conflict" `Quick
            test_sq_branch_limit;
          Alcotest.test_case "visit cap: conflicting groups" `Quick test_sq_visit_cap;
          Alcotest.test_case "query 7's shape: refused, then reduced" `Quick test_sq_query7;
        ] );
      ( "mq",
        [
          Alcotest.test_case "structure" `Quick test_mq_structure;
          Alcotest.test_case "unranked" `Quick test_mq_unranked;
          Alcotest.test_case "min-doi having" `Quick test_mq_min_doi;
          Alcotest.test_case "mandatory in partials" `Quick
            test_mq_mandatory_in_every_partial;
          Alcotest.test_case "rank order" `Quick test_mq_rank_order;
          Alcotest.test_case "repeated output names" `Quick test_mq_repeated_output_names;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "SQ=MQ (Julie)" `Quick test_sq_mq_equivalence_julie;
          Alcotest.test_case "SQ=MQ (Rob)" `Quick test_sq_mq_equivalence_rob;
          Alcotest.test_case "SQ=MQ with mandatory" `Quick
            test_sq_mq_equivalence_with_mandatory;
          QCheck_alcotest.to_alcotest prop_sq_mq_random;
          QCheck_alcotest.to_alcotest prop_runs_as_built;
        ] );
    ]
