(* The §8 extensions: top-N delivery with early termination, semantic
   (instance-level) relatedness, and implicit profile creation from
   query logs. *)

open Perso
open Relal

let d = Helpers.deg
let str s = Value.Str s
let tiny = Moviedb.Personas.tiny_db

let setting ?(profile = Moviedb.Personas.julie ()) ?(k = 5) () =
  let db = tiny () in
  let q = Binder.bind db (Moviedb.Workload.tonight_query ()) in
  let qg = Qgraph.of_query db q in
  let pk = Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r k) in
  (db, qg, Integrate.instantiate db qg pk)

(* ------------------------------ Top-N ------------------------------ *)

let full_ranking db qg insts ~l =
  let mq = Integrate.mq ~rank:true db qg ~mandatory:[] ~optional:insts ~l:(`At_least l) () in
  let res = Engine.run_query db mq in
  List.map
    (fun row ->
      let n = Array.length row in
      ( Array.sub row 0 (n - 1),
        match row.(n - 1) with Value.Float f -> f | _ -> Alcotest.fail "doi" ))
    res.Exec.rows

let test_topn_matches_full_mq () =
  let db, qg, insts = setting ~k:5 () in
  List.iter
    (fun (n, l) ->
      let full = full_ranking db qg insts ~l in
      let expected = List.filteri (fun i _ -> i < n) full in
      let got = Topn.top_n ~l ~n db qg ~mandatory:[] ~optional:insts () in
      Alcotest.(check int)
        (Printf.sprintf "row count n=%d l=%d" n l)
        (List.length expected) (List.length got.Topn.rows);
      (* Scores must match pairwise (order may differ among exact ties,
         so compare the score multiset). *)
      let scores rows = List.map snd rows |> List.sort compare in
      Alcotest.(check (list (float 1e-9)))
        (Printf.sprintf "scores n=%d l=%d" n l)
        (scores expected)
        (scores (List.map (fun (r, deg) -> (r, Degree.to_float deg)) got.Topn.rows)))
    [ (1, 1); (2, 1); (3, 1); (5, 1); (100, 1); (2, 2); (3, 2) ]

let test_topn_early_termination () =
  (* A genuinely dominant winner: 'Sweet Chaos' satisfies the two top
     preferences (its own title at 0.95 and comedy at 0.9), giving it a
     confirmed score of 1-(0.05)(0.19) = 0.9905 after two partials, while
     any other comedy can reach at most 1-0.19·(0.9)³ and unseen rows at
     most 1-(0.9)³ — the bounds fire after 2 of 5 partials. *)
  let profile =
    Profile.of_list
      [
        (Atom.join ("movie", "mid") ("genre", "mid"), d 1.0);
        (Atom.sel "movie" "title" (str "Sweet Chaos"), d 0.95);
        (Atom.sel "genre" "genre" (str "comedy"), d 0.9);
        (Atom.sel "genre" "genre" (str "drama"), d 0.1);
        (Atom.sel "genre" "genre" (str "romance"), d 0.1);
        (Atom.sel "genre" "genre" (str "mystery"), d 0.1);
      ]
  in
  let db, qg, insts = setting ~profile ~k:10 () in
  Alcotest.(check int) "five optional prefs" 5 (List.length insts);
  let got = Topn.top_n ~n:1 db qg ~mandatory:[] ~optional:insts () in
  Alcotest.(check bool) "stopped early" true
    (got.Topn.stats.Topn.partials_executed < got.Topn.stats.Topn.partials_total);
  (* And still exact: identical to the full ranked MQ's first row. *)
  let full = full_ranking db qg insts ~l:1 in
  match (got.Topn.rows, full) with
  | [ (row, deg) ], (frow, fdeg) :: _ ->
      Alcotest.(check Helpers.value_testable) "same winner" frow.(0) row.(0);
      Helpers.check_float "same score" fdeg (Degree.to_float deg)
  | _ -> Alcotest.fail "one row expected"

let test_topn_edges () =
  let db, qg, insts = setting ~k:3 () in
  let zero = Topn.top_n ~n:0 db qg ~mandatory:[] ~optional:insts () in
  Alcotest.(check int) "n=0" 0 (List.length zero.Topn.rows);
  let none = Topn.top_n ~n:5 db qg ~mandatory:[] ~optional:[] () in
  Alcotest.(check int) "no preferences" 0 (List.length none.Topn.rows);
  Alcotest.(check bool) "negative n rejected" true
    (try
       ignore (Topn.top_n ~n:(-1) db qg ~mandatory:[] ~optional:insts ());
       false
     with Invalid_argument _ -> true)

let test_topn_respects_l () =
  let db, qg, insts = setting ~k:5 () in
  let got = Topn.top_n ~l:2 ~n:10 db qg ~mandatory:[] ~optional:insts () in
  let full = full_ranking db qg insts ~l:2 in
  Alcotest.(check int) "same qualified rows" (List.length full)
    (List.length got.Topn.rows)

(* Rows with their degrees, keyed by printed row (ranked MQ and the
   extensions may order exact ties differently). *)
let by_printed_row rows =
  List.sort compare
    (List.map (fun (r, d) -> (Array.to_list (Array.map Value.to_string r), d)) rows)

let same_rows_and_degrees expected got =
  let a = by_printed_row expected and b = by_printed_row got in
  List.length a = List.length b
  && List.for_all2 (fun (r1, d1) (r2, d2) -> r1 = r2 && abs_float (d1 -. d2) <= 1e-12) a b

let rec non_increasing = function
  | (_, a) :: ((_, b) :: _ as rest) -> a >= b && non_increasing rest
  | _ -> true

(* Randomized, on synthetic databases/profiles/queries: top-N scores
   must be a prefix of the full MQ ranking's score list, and without
   dislikes or soft preferences, Negative.rank and Soft.rank must return
   ranked MQ's rows with MQ's degrees, best first. *)
let prop_topn_random =
  let db =
    Moviedb.Datagen.generate
      { Moviedb.Datagen.default with movies = 150; actors = 60; directors = 15; theatres = 6 }
  in
  QCheck.Test.make ~name:"top-N = prefix of full ranking (random)" ~count:25
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, n) ->
      let profile =
        Moviedb.Profile_gen.generate db
          { Moviedb.Profile_gen.default with seed = seed + 70; n_selections = 12 }
      in
      let rng = Putil.Rng.create (seed + 71) in
      let q = Relal.Binder.bind db (Moviedb.Workload.random_query db rng) in
      let qg = Qgraph.of_query db q in
      let pk = Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 8) in
      let insts = Integrate.instantiate db qg pk in
      if insts = [] then true
      else begin
        let full = full_ranking db qg insts ~l:1 in
        let expected =
          List.filteri (fun i _ -> i < n) full |> List.map snd |> List.sort compare
        in
        let got = Topn.top_n ~n db qg ~mandatory:[] ~optional:insts () in
        let scores =
          List.map (fun (_, deg) -> Degree.to_float deg) got.Topn.rows
          |> List.sort compare
        in
        let negative =
          List.map
            (fun r -> (r.Negative.row, r.Negative.score))
            (Negative.rank db qg ~likes:insts ~dislikes:[] ())
        in
        let soft =
          List.map
            (fun (r, deg) -> (r, Degree.to_float deg))
            (Soft.rank db qg ~likes:insts ~soft:[] ())
        in
        List.length expected = List.length scores
        && List.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) expected scores
        && same_rows_and_degrees full negative
        && non_increasing negative
        && same_rows_and_degrees full soft
        && non_increasing soft
      end)

(* ----------------------------- Semantic ----------------------------- *)

let test_semantic_related_and_conflicting () =
  (* Query about comedies; a W. Allen preference is instance-related
     (Allen directed comedies in the tiny db), an S. Spielberg-style
     no-comedy director is not.  D. Lynch directed only thrillers and
     mysteries there, so he is semantically conflicting with comedies —
     exactly the paper's Tarkowski example. *)
  let db = tiny () in
  let q =
    Binder.bind db
      (Sql_parser.parse
         "select m.title from movie m, genre g where m.mid = g.mid and g.genre = \
          'comedy'")
  in
  let qg = Qgraph.of_query db q in
  let director_path name =
    let p = Path.start ~anchor_tv:"m" ~anchor_rel:"movie" in
    let j1 = Atom.{ j_from_rel = "movie"; j_from_att = "mid"; j_to_rel = "directed"; j_to_att = "mid" } in
    let j2 = Atom.{ j_from_rel = "directed"; j_from_att = "did"; j_to_rel = "director"; j_to_att = "did" } in
    let s = Atom.{ s_rel = "director"; s_att = "name"; s_op = Sql_ast.Eq; s_val = str name } in
    let p = Result.get_ok (Path.extend_join p j1 (d 1.0)) in
    let p = Result.get_ok (Path.extend_join p j2 (d 1.0)) in
    Result.get_ok (Path.extend_sel p s (d 0.7))
  in
  Alcotest.(check bool) "Allen related to comedies" true
    (Semantic.instance_related db qg (director_path "W. Allen"));
  Alcotest.(check bool) "Lynch conflicts with comedies" false
    (Semantic.instance_related db qg (director_path "D. Lynch"));
  Alcotest.(check bool) "unknown director conflicts" false
    (Semantic.instance_related db qg (director_path "M. Tarkowski"))

let test_semantic_filter_in_selection () =
  (* Plugging the instance filter into Select.select keeps only
     satisfiable preferences. *)
  let db = tiny () in
  let q =
    Binder.bind db
      (Sql_parser.parse
         "select m.title from movie m, genre g where m.mid = g.mid and g.genre = \
          'comedy'")
  in
  let qg = Qgraph.of_query db q in
  let g = Pgraph.of_profile (Moviedb.Personas.julie ()) in
  let all = Select.select db g qg (Criteria.top_r 20) in
  let filtered =
    Select.select ~related:(Semantic.instance_related db qg) db g qg
      (Criteria.top_r 20)
  in
  Alcotest.(check bool) "filter removed something" true
    (List.length filtered < List.length all);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Path.to_condition_string p ^ " satisfiable")
        true
        (Semantic.instance_related db qg p))
    filtered;
  (* Lynch (no comedies) must be among the removed. *)
  let has_lynch l =
    List.exists
      (fun p ->
        match Path.selection p with
        | Some (s, _) -> Value.equal s.Atom.s_val (str "D. Lynch")
        | None -> false)
      l
  in
  Alcotest.(check bool) "Lynch present syntactically" true (has_lynch all);
  Alcotest.(check bool) "Lynch filtered semantically" false (has_lynch filtered)

let test_semantic_superset_property () =
  (* Semantically related ⊆ syntactically related on random settings. *)
  let db = tiny () in
  let q = Binder.bind db (Moviedb.Workload.tonight_query ()) in
  let qg = Qgraph.of_query db q in
  let g = Pgraph.of_profile (Moviedb.Personas.rob ()) in
  let syntactic = Select.select db g qg (Criteria.top_r 50) in
  let semantic = Semantic.filter db qg syntactic in
  Alcotest.(check bool) "subset" true
    (List.for_all (fun p -> List.exists (Path.equal p) syntactic) semantic)

(* ------------------------------ Learn ------------------------------ *)

let test_observe () =
  let db = tiny () in
  let q =
    Sql_parser.parse
      "select m.title from movie m, genre g where m.mid = g.mid and g.genre = \
       'comedy' and m.year = 2003"
  in
  match Learn.observe db q with
  | Error e -> Alcotest.failf "observe: %s" e
  | Ok atoms ->
      Alcotest.(check int) "two selections + one join" 3 (List.length atoms);
      Alcotest.(check bool) "join direction as written" true
        (List.exists
           (fun a -> Atom.equal a (Atom.join ("movie", "mid") ("genre", "mid")))
           atoms);
      Alcotest.(check bool) "comedy selection" true
        (List.exists
           (fun a -> Atom.equal a (Atom.sel "genre" "genre" (str "comedy")))
           atoms)

let test_learn_frequencies () =
  let db = tiny () in
  let comedy_q =
    "select m.title from movie m, genre g where m.mid = g.mid and g.genre = 'comedy'"
  in
  let scifi_q =
    "select m.title from movie m, genre g where m.mid = g.mid and g.genre = 'sci-fi'"
  in
  let log =
    List.map Sql_parser.parse
      [ comedy_q; comedy_q; comedy_q; comedy_q; scifi_q ]
  in
  let p = Learn.learn db log in
  let deg atom = Option.map Degree.to_float (Profile.find p atom) in
  let comedy = deg (Atom.sel "genre" "genre" (str "comedy")) in
  let scifi = deg (Atom.sel "genre" "genre" (str "sci-fi")) in
  (match (comedy, scifi) with
  | Some c, Some s ->
      Alcotest.(check bool) "recurring condition scores higher" true (c > s);
      Alcotest.(check bool) "degrees in [floor, ceil]" true
        (c <= 0.95 && s >= 0.1)
  | _ -> Alcotest.fail "learned atoms missing");
  (* The join was used in every query: highest count of all. *)
  match deg (Atom.join ("movie", "mid") ("genre", "mid")) with
  | Some j -> Alcotest.(check bool) "join learned strongest" true (j >= 0.6)
  | None -> Alcotest.fail "join not learned"

let test_learn_skips_bad_queries () =
  let db = tiny () in
  let log =
    [
      Sql_parser.parse "select m.title from movie m where m.year = 2000";
      Sql_parser.parse "select m.title from nosuch m";
      Sql_parser.parse "select m.title from movie m where m.year = 1999 or m.year = 2000";
    ]
  in
  let p = Learn.learn db log in
  Alcotest.(check int) "only the good query contributes" 1 (Profile.cardinal p)

let test_learn_min_count () =
  let db = tiny () in
  let log =
    List.map Sql_parser.parse
      [
        "select m.title from movie m where m.year = 2000";
        "select m.title from movie m where m.year = 2000";
        "select m.title from movie m where m.year = 1998";
      ]
  in
  let p = Learn.learn ~config:{ Learn.default with min_count = 2 } db log in
  Alcotest.(check bool) "frequent kept" true
    (Profile.find p (Atom.sel "movie" "year" (Value.Int 2000)) <> None);
  Alcotest.(check bool) "singleton dropped" true
    (Profile.find p (Atom.sel "movie" "year" (Value.Int 1998)) = None)

let test_learn_merge () =
  let db = tiny () in
  let explicit =
    Profile.of_list [ (Atom.sel "genre" "genre" (str "comedy"), d 0.9) ]
  in
  let log =
    List.map Sql_parser.parse
      [
        "select m.title from movie m, genre g where m.mid = g.mid and g.genre = 'comedy'";
        "select m.title from movie m, genre g where m.mid = g.mid and g.genre = 'drama'";
      ]
  in
  let learned = Learn.learn db log in
  let merged = Learn.merge ~old_profile:explicit ~learned in
  (* Explicit degree wins over the (lower) learned one. *)
  Alcotest.(check (option Helpers.degree_testable)) "explicit preserved"
    (Some (d 0.9))
    (Profile.find merged (Atom.sel "genre" "genre" (str "comedy")));
  Alcotest.(check bool) "new atoms added" true
    (Profile.find merged (Atom.sel "genre" "genre" (str "drama")) <> None)

let test_learned_profile_personalizes () =
  (* End to end: a user who keeps asking for comedies gets comedies
     ranked first from the learned profile. *)
  let db = tiny () in
  let log =
    List.init 4 (fun _ ->
        Sql_parser.parse
          "select m.title from movie m, genre g where m.mid = g.mid and g.genre \
           = 'comedy'")
  in
  let profile = Learn.learn db log in
  let outcome =
    Personalize.personalize db profile (Moviedb.Workload.tonight_query ())
  in
  let res = Personalize.execute db outcome in
  match Helpers.titles res with
  | first :: _ ->
      Alcotest.(check bool) "a comedy tops the ranking" true
        (List.mem first [ "Sweet Chaos"; "Double Take"; "Laughing Waters"; "Second Spring" ])
  | [] -> Alcotest.fail "no results"

(* ------------------------------- Soft ------------------------------- *)

let movie_genre_scaffold =
  [ (Atom.join ("movie", "mid") ("genre", "mid"), Helpers.deg 0.9) ]

let mv_anchor () = Path.start ~anchor_tv:"mv" ~anchor_rel:"movie"

let test_soft_make_validation () =
  let p = mv_anchor () in
  Alcotest.(check bool) "valid" true
    (Result.is_ok
       (Soft.make ~path:p ~att:"year" ~target:2000. ~tolerance:5. ~weight:(d 0.8)));
  Alcotest.(check bool) "zero tolerance rejected" true
    (Result.is_error
       (Soft.make ~path:p ~att:"year" ~target:2000. ~tolerance:0. ~weight:(d 0.8)));
  let selp =
    Result.get_ok
      (Path.extend_sel
         (Result.get_ok
            (Path.extend_join p
               Atom.{ j_from_rel = "movie"; j_from_att = "mid"; j_to_rel = "genre"; j_to_att = "mid" }
               (d 0.9)))
         Atom.{ s_rel = "genre"; s_att = "genre"; s_op = Sql_ast.Eq; s_val = str "comedy" }
         (d 0.9))
  in
  Alcotest.(check bool) "selection path rejected" true
    (Result.is_error
       (Soft.make ~path:selp ~att:"year" ~target:2000. ~tolerance:5. ~weight:(d 0.8)))

let test_soft_closeness_kernel () =
  let s =
    Result.get_ok
      (Soft.make ~path:(mv_anchor ()) ~att:"year" ~target:2000. ~tolerance:4.
         ~weight:(d 1.0))
  in
  Helpers.check_float "exact" 1.0 (Soft.closeness s 2000.);
  Helpers.check_float "half" 0.5 (Soft.closeness s 2002.);
  Helpers.check_float "at tolerance" 0.0 (Soft.closeness s 2004.);
  Helpers.check_float "beyond" 0.0 (Soft.closeness s 1990.)

let test_soft_row_degrees () =
  (* 'Recent movies': year near 2003 with tolerance 3, weight 0.9,
     directly on the query's movie variable. *)
  let db = tiny () in
  let q = Binder.bind db (Moviedb.Workload.tonight_query ()) in
  let qg = Qgraph.of_query db q in
  let s =
    Result.get_ok
      (Soft.make ~path:(mv_anchor ()) ~att:"year" ~target:2003. ~tolerance:3.
         ~weight:(d 0.9))
  in
  let degs = Soft.row_degrees db qg s in
  let deg_of title =
    List.find_map
      (fun (row, deg) ->
        if Relal.Value.equal row.(0) (str title) then
          Some (Degree.to_float deg)
        else None)
      degs
  in
  (* Laughing Waters is from 2003: full closeness -> 0.9. *)
  Helpers.check_float "2003 movie" 0.9 (Option.get (deg_of "Laughing Waters"));
  (* Sweet Chaos (2002): closeness 2/3 -> 0.6. *)
  Helpers.check_float "2002 movie" 0.6 (Option.get (deg_of "Sweet Chaos"));
  (* Garden of Glass (2000) is exactly at tolerance: dropped. *)
  Alcotest.(check (option (float 1e-9))) "at tolerance omitted" None
    (deg_of "Garden of Glass")

let test_soft_through_join_path () =
  (* Soft preference reached through a join: query over theatres, year
     of the movies they play tonight, damped by the join degrees. *)
  let db = tiny () in
  let q =
    Binder.bind db
      (Sql_parser.parse
         "select t.name from theatre t, play p where t.tid = p.tid and p.date = \
          '2003-07-02'")
  in
  let qg = Qgraph.of_query db q in
  let path =
    Result.get_ok
      (Path.extend_join
         (Path.start ~anchor_tv:"p" ~anchor_rel:"play")
         Atom.{ j_from_rel = "play"; j_from_att = "mid"; j_to_rel = "movie"; j_to_att = "mid" }
         (d 0.8))
  in
  let s =
    Result.get_ok
      (Soft.make ~path ~att:"year" ~target:2003. ~tolerance:2. ~weight:(d 1.0))
  in
  let degs = Soft.row_degrees db qg s in
  Alcotest.(check bool) "some theatres score" true (degs <> []);
  (* Every theatre plays at least one 2003 or 2002 movie tonight; the
     best is a 2003 movie at closeness 1, so max degree = 0.8 (the join
     damping). *)
  List.iter
    (fun (_, deg) ->
      Alcotest.(check bool) "damped by path degree" true
        (Degree.to_float deg <= 0.8 +. 1e-9))
    degs;
  Alcotest.(check bool) "best reaches the damping bound" true
    (List.exists (fun (_, deg) -> abs_float (Degree.to_float deg -. 0.8) < 1e-9) degs)

let test_soft_rank_combination () =
  (* Hard comedy like + soft recency: a 2003 comedy must outrank both a
     2002 comedy and a non-comedy 2003 movie. *)
  let db = tiny () in
  let q = Binder.bind db (Moviedb.Workload.tonight_query ()) in
  let qg = Qgraph.of_query db q in
  let likes =
    let profile =
      Profile.of_list
        (movie_genre_scaffold @ [ (Atom.sel "genre" "genre" (str "comedy"), d 0.8) ])
    in
    Integrate.instantiate db qg
      (Select.select db (Pgraph.of_profile profile) qg (Criteria.top_r 5))
  in
  let soft =
    [
      Result.get_ok
        (Soft.make ~path:(mv_anchor ()) ~att:"year" ~target:2003. ~tolerance:3.
           ~weight:(d 0.9));
    ]
  in
  let ranked = Soft.rank db qg ~likes ~soft () in
  let pos title =
    let rec go i = function
      | [] -> None
      | (row, _) :: rest ->
          if Relal.Value.equal row.(0) (str title) then Some i else go (i + 1) rest
    in
    go 0 ranked
  in
  let p2003_comedy = Option.get (pos "Laughing Waters") in
  let p2002_comedy = Option.get (pos "Sweet Chaos") in
  let p2003_plain = Option.get (pos "Iron Harvest") in
  Alcotest.(check bool) "recent comedy first" true
    (p2003_comedy < p2002_comedy && p2003_comedy < p2003_plain)

(* ----------------------------- Negative ----------------------------- *)

let test_negative_penalty_sinks_rows () =
  (* Likes comedies and thrillers equally; dislikes thrillers' companion
     genre 'mystery' — mystery-thrillers must sink below pure comedies. *)
  let likes =
    Profile.of_list
      (movie_genre_scaffold
      @ [
          (Atom.sel "genre" "genre" (str "comedy"), d 0.8);
          (Atom.sel "genre" "genre" (str "thriller"), d 0.8);
        ])
  in
  let dislikes =
    Profile.of_list
      (movie_genre_scaffold @ [ (Atom.sel "genre" "genre" (str "mystery"), d 0.7) ])
  in
  let db = tiny () in
  let o =
    Negative.personalize db ~likes ~dislikes (Moviedb.Workload.tonight_query ())
  in
  Alcotest.(check int) "two likes" 2 (List.length o.Negative.liked);
  Alcotest.(check int) "one dislike" 1 (List.length o.Negative.disliked);
  let score_of title =
    List.find_map
      (fun r ->
        if Relal.Value.equal r.Negative.row.(0) (str title) then
          Some r.Negative.score
        else None)
      o.Negative.rows
  in
  (* 'Midnight Maze' and 'Dream Logic' are thriller+mystery; 'Blue Velvet
     Road' is thriller only. *)
  (match (score_of "Midnight Maze", score_of "Blue Velvet Road") with
  | Some penalized, Some clean ->
      Alcotest.(check bool) "mystery thriller sinks below clean thriller" true
        (penalized < clean)
  | _ -> Alcotest.fail "expected both rows present");
  (* Penalty recorded on the row. *)
  let mm =
    List.find
      (fun r -> Relal.Value.equal r.Negative.row.(0) (str "Midnight Maze"))
      o.Negative.rows
  in
  Helpers.check_float "penalty = 0.9*0.7 transitive" (0.9 *. 0.7) mm.Negative.penalty

let test_negative_veto () =
  (* A strength-1 dislike is a hard veto: direct selection on the movie
     relation (no join damping). *)
  let likes =
    Profile.of_list
      (movie_genre_scaffold @ [ (Atom.sel "genre" "genre" (str "comedy"), d 0.8) ])
  in
  let dislikes =
    Profile.of_list [ (Atom.sel "movie" "title" (str "Double Take"), d 1.0) ]
  in
  let db = tiny () in
  let o =
    Negative.personalize db ~likes ~dislikes (Moviedb.Workload.tonight_query ())
  in
  Alcotest.(check bool) "vetoed row absent" true
    (List.for_all
       (fun r -> not (Relal.Value.equal r.Negative.row.(0) (str "Double Take")))
       o.Negative.rows);
  Alcotest.(check bool) "other comedies survive" true
    (List.exists
       (fun r -> Relal.Value.equal r.Negative.row.(0) (str "Sweet Chaos"))
       o.Negative.rows)

let test_negative_empty_dislikes_matches_mq () =
  let db, qg, insts = setting ~k:5 () in
  let plain = Negative.rank db qg ~likes:insts ~dislikes:[] () in
  let full = full_ranking db qg insts ~l:1 in
  Alcotest.(check int) "same row count" (List.length full) (List.length plain);
  List.iter2
    (fun (frow, fdeg) r ->
      Alcotest.(check Helpers.value_testable) "same row order" frow.(0)
        r.Negative.row.(0);
      Helpers.check_float "same score" fdeg r.Negative.score)
    full plain

let test_negative_l_threshold () =
  let db, qg, insts = setting ~k:5 () in
  let l1 = Negative.rank ~l:1 db qg ~likes:insts ~dislikes:[] () in
  let l2 = Negative.rank ~l:2 db qg ~likes:insts ~dislikes:[] () in
  Alcotest.(check bool) "L=2 is a subset" true (List.length l2 <= List.length l1)

let () =
  Alcotest.run "extensions"
    [
      ( "topn",
        [
          Alcotest.test_case "matches full MQ" `Quick test_topn_matches_full_mq;
          Alcotest.test_case "early termination" `Quick test_topn_early_termination;
          Alcotest.test_case "edge cases" `Quick test_topn_edges;
          Alcotest.test_case "respects L" `Quick test_topn_respects_l;
          QCheck_alcotest.to_alcotest prop_topn_random;
        ] );
      ( "semantic",
        [
          Alcotest.test_case "related vs conflicting" `Quick
            test_semantic_related_and_conflicting;
          Alcotest.test_case "filter in selection" `Quick test_semantic_filter_in_selection;
          Alcotest.test_case "subset of syntactic" `Quick test_semantic_superset_property;
        ] );
      ( "soft",
        [
          Alcotest.test_case "make validation" `Quick test_soft_make_validation;
          Alcotest.test_case "closeness kernel" `Quick test_soft_closeness_kernel;
          Alcotest.test_case "row degrees" `Quick test_soft_row_degrees;
          Alcotest.test_case "through join path" `Quick test_soft_through_join_path;
          Alcotest.test_case "rank combination" `Quick test_soft_rank_combination;
        ] );
      ( "negative",
        [
          Alcotest.test_case "penalty sinks rows" `Quick test_negative_penalty_sinks_rows;
          Alcotest.test_case "veto" `Quick test_negative_veto;
          Alcotest.test_case "empty dislikes = MQ" `Quick
            test_negative_empty_dislikes_matches_mq;
          Alcotest.test_case "L threshold" `Quick test_negative_l_threshold;
        ] );
      ( "learn",
        [
          Alcotest.test_case "observe" `Quick test_observe;
          Alcotest.test_case "frequencies" `Quick test_learn_frequencies;
          Alcotest.test_case "skips bad queries" `Quick test_learn_skips_bad_queries;
          Alcotest.test_case "min count" `Quick test_learn_min_count;
          Alcotest.test_case "merge" `Quick test_learn_merge;
          Alcotest.test_case "personalizes end-to-end" `Quick
            test_learned_profile_personalizes;
        ] );
    ]
