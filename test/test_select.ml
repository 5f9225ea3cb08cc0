(* Paths, conflicts, criteria, the query graph, and the Preference
   Selection algorithm — including Theorem 1 (ordered emission) and
   Theorem 2 (completeness vs the brute-force enumerator) on random
   profiles and queries. *)

open Perso
open Relal

let d = Helpers.deg
let str s = Value.Str s

let db () = Moviedb.Movie_schema.create ()

(* The exact profile of Figure 2/3 (no theatre-region selection). *)
let julie_paper () =
  Profile.remove (Moviedb.Personas.julie ())
    (Atom.sel "theatre" "region" (str "downtown"))

let tonight_qg db =
  Qgraph.of_query db (Binder.bind db (Moviedb.Workload.tonight_query ()))

(* ------------------------------ Path ------------------------------ *)

let genre_join = Atom.{ j_from_rel = "movie"; j_from_att = "mid"; j_to_rel = "genre"; j_to_att = "mid" }
let comedy_sel = Atom.{ s_rel = "genre"; s_att = "genre"; s_op = Sql_ast.Eq; s_val = str "comedy" }

let test_path_build () =
  let p0 = Path.start ~anchor_tv:"mv" ~anchor_rel:"movie" in
  Alcotest.(check bool) "empty path is not a selection" false (Path.is_selection p0);
  Alcotest.(check int) "length 0" 0 (Path.length p0);
  let p1 = Result.get_ok (Path.extend_join p0 genre_join (d 0.9)) in
  Alcotest.(check string) "ends at genre" "genre" (Path.end_rel p1);
  let p2 = Result.get_ok (Path.extend_sel p1 comedy_sel (d 0.9)) in
  Alcotest.(check bool) "now a selection" true (Path.is_selection p2);
  Helpers.check_float "degree is product" 0.81 (Degree.to_float p2.Path.degree);
  Alcotest.(check string) "condition string"
    "MOVIE.mid = GENRE.mid and GENRE.genre = 'comedy'"
    (Path.to_condition_string p2)

let test_path_errors () =
  let p0 = Path.start ~anchor_tv:"mv" ~anchor_rel:"movie" in
  let p1 = Result.get_ok (Path.extend_join p0 genre_join (d 0.9)) in
  (* Wrong source relation. *)
  Alcotest.(check bool) "non-composable join" true
    (Result.is_error (Path.extend_join p1 genre_join (d 0.9)));
  (* Cycle back to movie. *)
  let back = Atom.reverse_join genre_join in
  Alcotest.(check bool) "cycle rejected" true
    (Result.is_error (Path.extend_join p1 back (d 0.9)));
  (* Selection on the wrong relation. *)
  Alcotest.(check bool) "selection not at end" true
    (Result.is_error (Path.extend_sel p0 comedy_sel (d 0.9)));
  (* Extending past a selection. *)
  let p2 = Result.get_ok (Path.extend_sel p1 comedy_sel (d 0.9)) in
  Alcotest.(check bool) "terminated path frozen" true
    (Result.is_error (Path.extend_join p2 genre_join (d 0.9)))

(* ----------------------------- Qgraph ----------------------------- *)

let test_qgraph_extraction () =
  let db = db () in
  let qg = tonight_qg db in
  Alcotest.(check (list (pair string string))) "tvs"
    [ ("mv", "movie"); ("pl", "play") ]
    (Qgraph.tvs qg);
  Alcotest.(check (list string)) "relations" [ "movie"; "play" ] (Qgraph.relations qg);
  Alcotest.(check bool) "mem" true (Qgraph.mem_relation qg "MOVIE");
  Alcotest.(check int) "one selection (the date)" 1
    (List.length (Qgraph.all_selections qg));
  Alcotest.(check int) "date on pl" 1 (List.length (Qgraph.selections_on qg "pl"))

let test_qgraph_rejects_disjunctions () =
  let db = db () in
  let q =
    Binder.bind db
      (Sql_parser.parse
         "select m.title from movie m, genre g where m.mid = g.mid and (g.genre = \
          'a' or g.genre = 'b')")
  in
  Alcotest.(check bool) "OR rejected" true
    (try
       ignore (Qgraph.of_query db q);
       false
     with Qgraph.Not_conjunctive _ -> true)

let test_qgraph_replicated_relation () =
  let db = db () in
  let q =
    Binder.bind db
      (Sql_parser.parse "select m1.title from movie m1, movie m2 where m1.year = m2.year")
  in
  let qg = Qgraph.of_query db q in
  Alcotest.(check (list string)) "two tvs one relation" [ "m1"; "m2" ]
    (Qgraph.tvs_of_rel qg "movie")

(* ---------------------------- Conflict ----------------------------- *)

let path_of db anchor_tv anchor_rel steps sel =
  let g = ignore db in
  ignore g;
  let p = ref (Path.start ~anchor_tv ~anchor_rel) in
  List.iter
    (fun (j, deg) -> p := Result.get_ok (Path.extend_join !p j (d deg)))
    steps;
  (match sel with
  | Some (s, deg) -> p := Result.get_ok (Path.extend_sel !p s (d deg))
  | None -> ());
  !p

let mk_sel rel att v = Atom.{ s_rel = rel; s_att = att; s_op = Sql_ast.Eq; s_val = str v }
let mk_join (r1, a1) (r2, a2) =
  Atom.{ j_from_rel = r1; j_from_att = a1; j_to_rel = r2; j_to_att = a2 }

let test_conflict_same_attribute_no_joins () =
  let db = db () in
  let p1 = path_of db "th" "theatre" [] (Some (mk_sel "theatre" "region" "uptown", 0.5)) in
  let p2 = path_of db "th" "theatre" [] (Some (mk_sel "theatre" "region" "downtown", 0.5)) in
  Alcotest.(check bool) "regions conflict" true (Conflict.paths_conflict db p1 p2);
  Alcotest.(check bool) "same value no conflict" false (Conflict.paths_conflict db p1 p1)

let test_conflict_to_one_chain () =
  let db = db () in
  let j = mk_join ("play", "mid") ("movie", "mid") in
  let p1 = path_of db "pl" "play" [ (j, 1.0) ] (Some (mk_sel "movie" "title" "A", 0.5)) in
  let p2 = path_of db "pl" "play" [ (j, 1.0) ] (Some (mk_sel "movie" "title" "B", 0.5)) in
  Alcotest.(check bool) "one movie per play: titles conflict" true
    (Conflict.paths_conflict db p1 p2)

let test_no_conflict_to_many () =
  let db = db () in
  let j = mk_join ("movie", "mid") ("genre", "mid") in
  let p1 = path_of db "mv" "movie" [ (j, 0.9) ] (Some (mk_sel "genre" "genre" "comedy", 0.9)) in
  let p2 = path_of db "mv" "movie" [ (j, 0.9) ] (Some (mk_sel "genre" "genre" "thriller", 0.7)) in
  Alcotest.(check bool) "genres do not conflict (to-many)" false
    (Conflict.paths_conflict db p1 p2)

let test_no_conflict_different_anchor_or_joins () =
  let db = db () in
  let p1 = path_of db "th" "theatre" [] (Some (mk_sel "theatre" "region" "uptown", 0.5)) in
  let p2 = path_of db "th2" "theatre" [] (Some (mk_sel "theatre" "region" "downtown", 0.5)) in
  Alcotest.(check bool) "different anchors" false (Conflict.paths_conflict db p1 p2);
  let j = mk_join ("movie", "mid") ("directed", "mid") in
  let j2 = mk_join ("directed", "did") ("director", "did") in
  let p3 =
    path_of db "mv" "movie" [ (j, 1.0); (j2, 1.0) ]
      (Some (mk_sel "director" "name" "A", 0.5))
  in
  Alcotest.(check bool) "different join chains" false (Conflict.paths_conflict db p1 p3)

let test_conflict_with_query () =
  let db = db () in
  let q =
    Binder.bind db
      (Sql_parser.parse "select t.name from theatre t where t.region = 'uptown'")
  in
  let qg = Qgraph.of_query db q in
  let p = path_of db "t" "theatre" [] (Some (mk_sel "theatre" "region" "downtown", 0.5)) in
  Alcotest.(check bool) "conflicts with query selection" true
    (Conflict.conflicts_with_query db qg p);
  let agree = path_of db "t" "theatre" [] (Some (mk_sel "theatre" "region" "uptown", 0.5)) in
  Alcotest.(check bool) "same value fine" false
    (Conflict.conflicts_with_query db qg agree)

(* ---------------------------- Criteria ----------------------------- *)

let test_criteria_top_r () =
  let c = Criteria.top_r 2 in
  Alcotest.(check bool) "accepts under r" true
    (Criteria.accepts c ~current:[ d 0.9 ] (d 0.5));
  Alcotest.(check bool) "rejects beyond r" false
    (Criteria.accepts c ~current:[ d 0.9; d 0.8 ] (d 0.5));
  Alcotest.(check bool) "top_r 0 rejects all" false
    (Criteria.accepts (Criteria.top_r 0) ~current:[] (d 1.0))

let test_criteria_above () =
  let c = Criteria.above 0.6 in
  Alcotest.(check bool) "above" true (Criteria.accepts c ~current:[] (d 0.7));
  Alcotest.(check bool) "at threshold rejected" false
    (Criteria.accepts c ~current:[] (d 0.6));
  Alcotest.(check bool) "below" false (Criteria.accepts c ~current:[ d 0.9 ] (d 0.5))

let test_criteria_disj_above () =
  let c = Criteria.disj_above 0.6 in
  (* avg(0.9, 0.5) = 0.7 > 0.6 *)
  Alcotest.(check bool) "avg above" true (Criteria.accepts c ~current:[ d 0.9 ] (d 0.5));
  (* avg(0.9, 0.5, 0.1) = 0.5 < 0.6 *)
  Alcotest.(check bool) "avg drops below" false
    (Criteria.accepts c ~current:[ d 0.9; d 0.5 ] (d 0.1))

let test_criteria_conj_above () =
  let c = Criteria.conj_above 0.9 in
  Alcotest.(check bool) "single below" false (Criteria.accepts c ~current:[] (d 0.5));
  Alcotest.(check bool) "conjunction exceeds" true
    (Criteria.accepts c ~current:[ d 0.8 ] (d 0.8));
  Alcotest.(check bool) "prefix-monotone flags" true
    (Criteria.prefix_monotone (Criteria.top_r 3)
    && Criteria.prefix_monotone (Criteria.above 0.1)
    && Criteria.prefix_monotone (Criteria.disj_above 0.1)
    && not (Criteria.prefix_monotone c))

(* The accumulator [Select] tests candidates with must give the list
   definition's boolean bit for bit.  Thresholds equal to the exact
   prefix means and conjunctions sit on the boundary, where an
   accumulator that rounded differently (a running mean, a product
   folded from the other end) would flip the comparison; a small
   degree alphabet forces ties. *)
let prop_criteria_acc =
  let degree =
    QCheck.Gen.(
      oneof [ float_bound_inclusive 1.; oneofl [ 0.1; 0.3; 0.5; 0.7; 0.9; 1. ] ])
  in
  QCheck.Test.make ~name:"criterion accumulator = list definition" ~count:300
    QCheck.(make ~print:Print.(list float) Gen.(list_size (1 -- 16) degree))
    (fun raw ->
      let ds = List.sort Degree.compare_desc (List.map Degree.of_float raw) in
      let n = List.length ds in
      let prefixes = List.init n (fun i -> List.filteri (fun j _ -> j <= i) ds) in
      let thresholds =
        List.concat_map (fun p -> [ Degree.disj p; Degree.conj p ]) prefixes
        @ ds @ [ Degree.zero; Degree.one ]
      in
      let criteria =
        List.init (n + 2) Criteria.top_r
        @ List.concat_map
            (fun t -> Criteria.[ Above t; Disj_above t; Conj_above t ])
            thresholds
      in
      List.for_all
        (fun c ->
          let rec go acc prefix = function
            | [] -> true
            | x :: rest ->
                Criteria.admits c acc x
                = Criteria.accepts c ~current:(List.rev prefix) x
                && go (Criteria.acc_push acc x) (x :: prefix) rest
          in
          go Criteria.acc_empty [] ds)
        criteria)

(* ------------------------ Selection: Julie ------------------------- *)

let test_julie_top3_matches_paper () =
  (* §5.2's example: the top 3 preferences for the "tonight" query are
     comedies (0.81), D. Lynch (0.8), N. Kidman (0.72). *)
  let db = db () in
  let qg = tonight_qg db in
  let g = Pgraph.of_profile (julie_paper ()) in
  let pk = Select.select db g qg (Criteria.top_r 3) in
  let conds = List.map Path.to_condition_string pk in
  Alcotest.(check (list string)) "paper's P_K"
    [
      "MOVIE.mid = GENRE.mid and GENRE.genre = 'comedy'";
      "MOVIE.mid = DIRECTED.mid and DIRECTED.did = DIRECTOR.did and \
       DIRECTOR.name = 'D. Lynch'";
      "MOVIE.mid = CAST.mid and CAST.aid = ACTOR.aid and ACTOR.name = 'N. Kidman'";
    ]
    conds;
  let degs = List.map (fun p -> Degree.to_float p.Path.degree) pk in
  Alcotest.(check (list (float 1e-9))) "paper's degrees" [ 0.81; 0.8; 0.72 ] degs

let test_julie_all_preferences () =
  (* With no cut-off, every reachable selection is emitted in decreasing
     order, transitively (thriller 0.63, W. Allen 0.7, Hopkins/Rossellini
     via cast, adventure, and theatre-side paths through PLAY). *)
  let db = db () in
  let qg = tonight_qg db in
  let g = Pgraph.of_profile (julie_paper ()) in
  let pk = Select.select db g qg (Criteria.top_r 100) in
  let degs = List.map (fun p -> Degree.to_float p.Path.degree) pk in
  Alcotest.(check bool) "decreasing order" true
    (List.for_all2 (fun a b -> a >= b) (List.filteri (fun i _ -> i < List.length degs - 1) degs)
       (List.tl degs));
  (* The profile has 8 selections; every one is reachable from MOVIE/PLAY. *)
  Alcotest.(check int) "all eight reachable" 8 (List.length pk)

let test_selection_stops_on_criterion () =
  let db = db () in
  let qg = tonight_qg db in
  let g = Pgraph.of_profile (julie_paper ()) in
  let pk = Select.select db g qg (Criteria.above 0.75) in
  let degs = List.map (fun p -> Degree.to_float p.Path.degree) pk in
  Alcotest.(check (list (float 1e-9))) "only > 0.75" [ 0.81; 0.8 ] degs

let test_selection_excludes_conflicts () =
  let db = db () in
  let q =
    Binder.bind db
      (Sql_parser.parse "select t.name from theatre t where t.region = 'uptown'")
  in
  let qg = Qgraph.of_query db q in
  let profile =
    Profile.of_list
      [
        (Atom.sel "theatre" "region" (str "downtown"), d 0.9);
        (Atom.sel "theatre" "name" (str "Orpheum"), d 0.5);
      ]
  in
  let pk = Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 10) in
  Alcotest.(check (list string)) "conflicting region pruned"
    [ "THEATRE.name = 'Orpheum'" ]
    (List.map Path.to_condition_string pk)

let test_selection_related_filter () =
  let db = db () in
  let qg = tonight_qg db in
  let g = Pgraph.of_profile (julie_paper ()) in
  let only_genres p =
    match Path.selection p with Some (s, _) -> s.Atom.s_rel = "genre" | None -> false
  in
  let pk = Select.select ~related:only_genres db g qg (Criteria.top_r 10) in
  Alcotest.(check int) "three genre prefs" 3 (List.length pk);
  Alcotest.(check bool) "all genre" true (List.for_all only_genres pk)

let test_selection_stats () =
  let db = db () in
  let qg = tonight_qg db in
  let g = Pgraph.of_profile (julie_paper ()) in
  let stats = Select.fresh_stats () in
  ignore (Select.select ~stats db g qg (Criteria.top_r 3));
  Alcotest.(check bool) "pops counted" true (stats.Select.pops > 0);
  Alcotest.(check bool) "pushes >= pops" true (stats.Select.pushes >= stats.Select.pops - 1);
  Alcotest.(check bool) "cycles pruned" true (stats.Select.discarded_cycles > 0)

let test_selection_empty_profile () =
  let db = db () in
  let qg = tonight_qg db in
  let pk = Select.select db (Pgraph.of_profile Profile.empty) qg (Criteria.top_r 5) in
  Alcotest.(check int) "nothing to select" 0 (List.length pk)

let test_selection_query_relation_selection () =
  (* A selection preference on a relation of the query itself attaches
     with zero joins and full degree. *)
  let db = db () in
  let qg = tonight_qg db in
  let profile = Profile.of_list [ (Atom.sel "movie" "year" (Value.Int 2003), d 0.6) ] in
  let pk = Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 5) in
  match pk with
  | [ p ] ->
      Alcotest.(check string) "direct selection" "MOVIE.year = 2003"
        (Path.to_condition_string p);
      Helpers.check_float "degree undamped" 0.6 (Degree.to_float p.Path.degree)
  | _ -> Alcotest.fail "one preference expected"

(* -------------------- Theorems 1 & 2 (vs brute) -------------------- *)

let random_setting seed =
  let cfg = { Moviedb.Datagen.default with movies = 120; actors = 60; directors = 20; theatres = 8 } in
  let db = Moviedb.Datagen.generate { cfg with seed } in
  let profile =
    Moviedb.Profile_gen.generate db
      { Moviedb.Profile_gen.default with seed = seed + 1; n_selections = 12 }
  in
  let rng = Putil.Rng.create (seed + 2) in
  let q = Binder.bind db (Moviedb.Workload.random_query db rng) in
  (db, profile, q)

let prop_theorem1_ordered =
  QCheck.Test.make ~name:"Theorem 1: emission in decreasing degree order" ~count:25
    QCheck.small_int (fun seed ->
      let db, profile, q = random_setting seed in
      let qg = Qgraph.of_query db q in
      let pk =
        Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 15)
      in
      let rec decreasing = function
        | a :: (b :: _ as rest) ->
            Degree.to_float a.Path.degree >= Degree.to_float b.Path.degree -. 1e-12
            && decreasing rest
        | _ -> true
      in
      decreasing pk)

let prop_theorem2_complete =
  QCheck.Test.make ~name:"Theorem 2: completeness vs brute force" ~count:25
    QCheck.small_int (fun seed ->
      let db, profile, q = random_setting seed in
      let qg = Qgraph.of_query db q in
      let g = Pgraph.of_profile profile in
      List.for_all
        (fun ci ->
          let fast = Select.select db g qg ci in
          let slow = Brute.select db g qg ci in
          let degs l =
            List.map (fun p -> Float.round (Degree.to_float p.Path.degree *. 1e9)) l
          in
          degs fast = degs slow)
        [
          Criteria.top_r 5; Criteria.top_r 12; Criteria.top_r 60; Criteria.above 0.5;
          Criteria.disj_above 0.6; Criteria.conj_above 0.9;
        ])

let prop_selected_never_conflicts_query =
  QCheck.Test.make ~name:"selected preferences never conflict with the query"
    ~count:25 QCheck.small_int (fun seed ->
      let db, profile, q = random_setting seed in
      let qg = Qgraph.of_query db q in
      let pk = Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 20) in
      List.for_all (fun p -> not (Conflict.conflicts_with_query db qg p)) pk)

let prop_paths_acyclic_and_outward =
  QCheck.Test.make ~name:"paths are acyclic and expand outward" ~count:25
    QCheck.small_int (fun seed ->
      let db, profile, q = random_setting seed in
      let qg = Qgraph.of_query db q in
      let pk = Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 20) in
      List.for_all
        (fun p ->
          let rels = List.map (fun (j, _) -> j.Atom.j_to_rel) p.Path.joins in
          (* No relation revisited, none inside the query graph. *)
          List.length rels = List.length (List.sort_uniq compare rels)
          && List.for_all (fun r -> not (Qgraph.mem_relation qg r)) rels)
        pk)

let () =
  Alcotest.run "select"
    [
      ( "path",
        [
          Alcotest.test_case "build" `Quick test_path_build;
          Alcotest.test_case "errors" `Quick test_path_errors;
        ] );
      ( "qgraph",
        [
          Alcotest.test_case "extraction" `Quick test_qgraph_extraction;
          Alcotest.test_case "rejects disjunction" `Quick test_qgraph_rejects_disjunctions;
          Alcotest.test_case "replicated relation" `Quick test_qgraph_replicated_relation;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "same attribute" `Quick test_conflict_same_attribute_no_joins;
          Alcotest.test_case "to-one chain" `Quick test_conflict_to_one_chain;
          Alcotest.test_case "to-many no conflict" `Quick test_no_conflict_to_many;
          Alcotest.test_case "different anchor/joins" `Quick
            test_no_conflict_different_anchor_or_joins;
          Alcotest.test_case "with query" `Quick test_conflict_with_query;
        ] );
      ( "criteria",
        [
          Alcotest.test_case "top_r" `Quick test_criteria_top_r;
          Alcotest.test_case "above" `Quick test_criteria_above;
          Alcotest.test_case "disj_above" `Quick test_criteria_disj_above;
          Alcotest.test_case "conj_above" `Quick test_criteria_conj_above;
          QCheck_alcotest.to_alcotest prop_criteria_acc;
        ] );
      ( "algorithm",
        [
          Alcotest.test_case "Julie top-3 (paper example)" `Quick
            test_julie_top3_matches_paper;
          Alcotest.test_case "Julie exhaustive" `Quick test_julie_all_preferences;
          Alcotest.test_case "stops on criterion" `Quick test_selection_stops_on_criterion;
          Alcotest.test_case "excludes conflicts" `Quick test_selection_excludes_conflicts;
          Alcotest.test_case "related filter" `Quick test_selection_related_filter;
          Alcotest.test_case "stats" `Quick test_selection_stats;
          Alcotest.test_case "empty profile" `Quick test_selection_empty_profile;
          Alcotest.test_case "query-relation selection" `Quick
            test_selection_query_relation_selection;
        ] );
      ( "theorems",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_theorem1_ordered; prop_theorem2_complete;
            prop_selected_never_conflicts_query; prop_paths_acyclic_and_outward;
          ] );
    ]
