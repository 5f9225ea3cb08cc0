(* The §8 extensions: top-N delivery as the prefix of ranked MQ,
   semantic (instance-level) relatedness, negative preferences, and
   implicit profile creation from query logs. *)

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

(* A ranked result's rows, each split from its final doi column. *)
let with_doi res =
  List.map
    (fun row ->
      let n = Array.length row in
      ( Array.sub row 0 (n - 1),
        match row.(n - 1) with Value.Float f -> f | _ -> Alcotest.fail "doi" ))
    res.Exec.rows

let full_ranking db qg insts ~l =
  with_doi
    (Engine.run_query db
       (Integrate.mq ~rank:true db qg ~mandatory:[] ~optional:insts ~l:(`At_least l) ()))

(* [Personalize.top_n] on the facade's outcome for the same selected
   paths. *)
let top_n ~n ~l db qg insts =
  let outcome =
    Personalize.integrate_selected
      ~params:{ Personalize.default_params with l = `At_least l }
      db qg ~stats:(Select.fresh_stats ())
      (List.map (fun i -> i.Integrate.path) insts)
  in
  with_doi (Personalize.top_n ~n db outcome)

let printed rows =
  List.map (fun (r, d) -> (Array.to_list (Array.map Value.to_string r), d)) rows

let prefix n rows = List.filteri (fun i _ -> i < n) rows

(* Top-N is the first N rows of the executed ranked MQ: same rows, same
   order, bit-identical degrees. *)
let check_prefix msg ~n full got =
  Alcotest.(check (list (pair (list string) (float 0.))))
    msg (printed (prefix n full)) (printed got)

let test_topn_matches_full_mq () =
  let db, qg, insts = setting ~k:5 () in
  List.iter
    (fun (n, l) ->
      check_prefix
        (Printf.sprintf "n=%d l=%d" n l)
        ~n (full_ranking db qg insts ~l) (top_n ~n ~l db qg insts))
    [ (1, 1); (2, 1); (3, 1); (5, 1); (100, 1); (2, 2); (3, 2) ]

let test_topn_edges () =
  let db, qg, insts = setting ~k:3 () in
  let full = full_ranking db qg insts ~l:1 in
  Alcotest.(check int) "n=0" 0 (List.length (top_n ~n:0 ~l:1 db qg insts));
  let past = List.length full + 5 in
  check_prefix "n past the last row" ~n:past full (top_n ~n:past ~l:1 db qg insts);
  Alcotest.(check bool) "negative n rejected" true
    (try
       ignore (top_n ~n:(-1) ~l:1 db qg insts);
       false
     with Invalid_argument _ -> true)

let test_topn_respects_l () =
  let db, qg, insts = setting ~k:5 () in
  let full = full_ranking db qg insts ~l:2 in
  check_prefix "l=2" ~n:10 full (top_n ~n:10 ~l:2 db qg insts);
  Alcotest.(check bool) "L = 2 drops rows that L = 1 keeps" true
    (List.length full < List.length (full_ranking db qg insts ~l:1))

(* Rows with their degrees, keyed by printed row (ranked MQ and the
   extensions may order exact ties differently). *)
let by_printed_row rows = List.sort compare (printed rows)

let same_rows_and_degrees expected got =
  let a = by_printed_row expected and b = by_printed_row got in
  List.length a = List.length b
  && List.for_all2 (fun (r1, d1) (r2, d2) -> r1 = r2 && abs_float (d1 -. d2) <= 1e-12) a b

let rec non_increasing = function
  | (_, a) :: ((_, b) :: _ as rest) -> a >= b && non_increasing rest
  | _ -> true

(* Randomized, on synthetic databases/profiles/queries: top-N must be
   the first N rows of the full ranked MQ, and without dislikes,
   Negative.rank must return ranked MQ's rows with MQ's degrees, best
   first. *)
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
        let negative =
          List.map
            (fun r -> (r.Negative.row, r.Negative.score))
            (Negative.rank db qg ~likes:insts ~dislikes:[] ())
        in
        printed (prefix n full) = printed (top_n ~n ~l:1 db qg insts)
        && same_rows_and_degrees full negative
        && non_increasing negative
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
  let semantic = List.filter (Semantic.instance_related db qg) syntactic in
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

(* ----------------------------- Negative ----------------------------- *)

let movie_genre_scaffold =
  [ (Atom.join ("movie", "mid") ("genre", "mid"), Helpers.deg 0.9) ]

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
