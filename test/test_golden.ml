(* Golden digests of printed SQL and of the §8 extensions' rows.  The
   personalized query leaves the system as SQL text, and
   [Sql_print.query_to_key] is the plan cache's key, whose bytes its
   interface promises stable across releases.  Executed ranked MQ (as
   Top-N delivers it), dislikes and the semantic filter return rows,
   degrees and decisions instead.  These digests pin all of them: on a
   fixed small catalog, fixed generated profiles and fixed workload
   templates, every printed form must hash to the value recorded here.
   A change to how SQL prints, or to which rows come back in which
   order with which degree (printed with [%h], so every bit counts),
   therefore shows up as a failing digest, and updating one is a
   deliberate edit. *)

open Relal

let db = lazy Moviedb.Datagen.(generate (scale ~seed:19 300))

let profiles =
  lazy
    (List.map
       (fun seed ->
         Moviedb.Profile_gen.generate (Lazy.force db)
           { Moviedb.Profile_gen.default with seed; n_selections = 40 })
       [ 101; 102; 103 ])

let templates =
  lazy
    (List.map Sql_print.query_to_string
       (Moviedb.Workload.queries (Lazy.force db) ~n:8 ~seed:211))

let params method_ k =
  { Perso.Personalize.default_params with k = Perso.Criteria.Top_r k; method_ }

(* Every personalized query of [cases], each in the given rendering, in
   a fixed order; each is headed by the profile's number and the case's
   label. *)
let personalized_by cases render =
  let db = Lazy.force db in
  let b = Buffer.create (1 lsl 16) in
  List.iteri
    (fun u profile ->
      List.iter
        (fun sql ->
          List.iter
            (fun (label, params) ->
              let o =
                Perso.Personalize.personalize ~params db profile (Sql_parser.parse sql)
              in
              Printf.bprintf b "%d %s\n%s\n" u label
                (render o.Perso.Personalize.personalized))
            cases)
        (Lazy.force templates))
    (Lazy.force profiles);
  Buffer.contents b

(* Ranked MQ at K = 5, 20, 60 and SQ at the same K. *)
let personalized =
  personalized_by
    (List.map
       (fun (method_, k) -> (string_of_int k, params method_ k))
       [ (`MQ, 5); (`MQ, 20); (`MQ, 60); (`SQ, 5); (`SQ, 20); (`SQ, 60) ])

(* One mandatory preference and L = 0 and 2: ranked MQ, unranked MQ and
   SQ at K = 5 and 20. *)
let personalized_m1_with render =
  personalized_by
    (List.concat_map
       (fun (k, l) ->
         List.map
           (fun (method_, rank) ->
             ( Printf.sprintf "%d %d" k l,
               { (params method_ k) with m = `Count 1; l = `At_least l; rank } ))
           [ (`MQ, true); (`MQ, false); (`SQ, false) ])
       [ (5, 0); (5, 2); (20, 0); (20, 2) ])
    render

let personalized_m1 () = personalized_m1_with Sql_print.query_to_string

(* One setting per profile and template: the query graph and the top [k]
   preferences selected for it, instantiated. *)
let settings k =
  let db = Lazy.force db in
  List.concat_map
    (fun profile ->
      List.map
        (fun sql ->
          let qg = Perso.Qgraph.of_query db (Binder.bind db (Sql_parser.parse sql)) in
          let pk =
            Perso.Select.select db (Perso.Pgraph.of_profile profile) qg
              (Perso.Criteria.Top_r k)
          in
          (qg, Perso.Integrate.instantiate db qg pk))
        (Lazy.force templates))
    (Lazy.force profiles)

let row_text row = String.concat "|" (Array.to_list (Array.map Value.to_string row))
let deg_text d = Printf.sprintf "%h" (Perso.Degree.to_float d)

(* Executed ranked MQ through the facade: the first N rows, as
   [Personalize.top_n] delivers them, at K = 10. *)
let ranked_mq_text () =
  let db = Lazy.force db in
  let b = Buffer.create (1 lsl 16) in
  List.iteri
    (fun u profile ->
      List.iter
        (fun sql ->
          List.iter
            (fun (m, l) ->
              let params = { (params `MQ 10) with m = `Count m; l = `At_least l } in
              let o =
                Perso.Personalize.personalize ~params db profile (Sql_parser.parse sql)
              in
              List.iter
                (fun n ->
                  Printf.bprintf b "%d m=%d l=%d n=%d\n" u m l n;
                  List.iter
                    (fun row ->
                      let k = Array.length row - 1 in
                      match row.(k) with
                      | Value.Float doi ->
                          Printf.bprintf b "  %s %h\n" (row_text (Array.sub row 0 k)) doi
                      | v -> Alcotest.failf "doi column holds %s" (Value.to_string v))
                    (Perso.Personalize.top_n ~n db o).Exec.rows)
                [ 1; 3; 1000 ])
            [ (0, 1); (0, 2); (1, 1) ])
        (Lazy.force templates))
    (Lazy.force profiles);
  Buffer.contents b

(* Likes are one profile's selection, dislikes the next profile's. *)
let negative_text () =
  let db = Lazy.force db in
  let b = Buffer.create (1 lsl 16) in
  let likes = settings 10 in
  let n = List.length (Lazy.force templates) in
  let dislikes = Array.of_list (settings 5) in
  List.iteri
    (fun s (qg, likes) ->
      let dislikes = snd dislikes.((s + n) mod Array.length dislikes) in
      List.iter
        (fun l ->
          Printf.bprintf b "%d l=%d\n" s l;
          List.iter
            (fun (r : Perso.Negative.scored_row) ->
              Printf.bprintf b "  %s %s %h %h\n" (row_text r.row)
                (deg_text r.positive) r.penalty r.score)
            (Perso.Negative.rank ~l db qg ~likes ~dislikes ()))
        [ 1; 2 ])
    likes;
  Buffer.contents b

let semantic_text () =
  let db = Lazy.force db in
  let b = Buffer.create (1 lsl 14) in
  List.iteri
    (fun s (qg, insts) ->
      List.iter
        (fun (i : Perso.Integrate.instantiated) ->
          Printf.bprintf b "%d %s %b\n" s
            (Perso.Path.to_condition_string i.path)
            (Perso.Semantic.instance_related db qg i.path))
        insts)
    (settings 20);
  Buffer.contents b

let bound_templates () =
  String.concat "\n"
    (List.map
       (fun sql ->
         Sql_print.query_to_key (Binder.bind (Lazy.force db) (Sql_parser.parse sql)))
       (Lazy.force templates))

let profile_texts () =
  String.concat "" (List.map Perso.Profile.to_string (Lazy.force profiles))

(* Binding is idempotent on every personalized query above: the served
   path binds the integrated query once more before it runs, and a bound
   query must come back unchanged. *)
let bind_idempotent () =
  let db = Lazy.force db in
  let check q =
    let b = Binder.bind db q in
    if Binder.bind db b <> b then
      Alcotest.failf "bind (bind q) <> bind q for %s" (Sql_print.query_to_string q);
    ""
  in
  ignore (personalized check : string);
  ignore (personalized_m1_with check : string)

let golden name expected text () =
  let got = Digest.to_hex (Digest.string (text ())) in
  if got <> expected then
    Alcotest.failf
      "%s: digest %s, expected %s (%d bytes).  If the printing change is \
       intended, update the digest in test/test_golden.ml."
      name got expected
      (String.length (text ()))

let () =
  Alcotest.run "golden"
    [
      ( "printed sql",
        [
          Alcotest.test_case "single-line (MQ ranked + SQ)" `Quick
            (golden "query_to_string" "c1f4f794c69003d800d2e331c60dd188" (fun () ->
                 personalized Sql_print.query_to_string));
          Alcotest.test_case "plan-cache keys" `Quick
            (golden "query_to_key" "a15e71ac3348fb8860447dc23d6e7b3a" (fun () ->
                 bound_templates () ^ personalized Sql_print.query_to_key));
          Alcotest.test_case "pretty" `Quick
            (golden "query_to_pretty" "b014a89d94a84bc9f41c6b90bf0775f3" (fun () ->
                 personalized Sql_print.query_to_pretty));
          Alcotest.test_case "profile text" `Quick
            (golden "Profile.to_string" "dc11fbee411c3a2752d0ba989efde22e" profile_texts);
          Alcotest.test_case "M = 1, L = 0 and 2 (MQ ranked, unranked + SQ)" `Quick
            (golden "query_to_string M=1" "3576a3a82f3a71c069a04413eece1bee" personalized_m1);
        ] );
      ( "extension rows",
        [
          Alcotest.test_case "Personalize.top_n rows and degrees (ranked MQ)" `Quick
            (golden "Personalize.top_n" "36a35eda507b058c716cd29645fe304a" ranked_mq_text);
          Alcotest.test_case "Negative.rank rows" `Quick
            (golden "Negative.rank" "dba857d88943f8a1d8a000358d510ba6" negative_text);
          Alcotest.test_case "Semantic.instance_related decisions" `Quick
            (golden "Semantic.instance_related" "0ffd15a86e15068f0958ec54c442d670" semantic_text);
        ] );
      ("bind", [ Alcotest.test_case "bind (bind q) = bind q" `Quick bind_idempotent ]);
    ]
