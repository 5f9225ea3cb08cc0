(* Golden digests of printed SQL.  The personalized query leaves the
   system as SQL text, and [Sql_print.query_to_key] is the plan cache's
   key, whose bytes its interface promises stable across releases.  These
   digests pin both: on a fixed small catalog, fixed generated profiles
   and fixed workload templates, every printed form must hash to the
   value recorded here.  A change to how SQL prints therefore shows up as
   a failing digest, and updating one is a deliberate edit. *)

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

(* Every personalized query: ranked MQ at K = 5, 20, 60 and SQ at the
   same K, each in the given rendering, in a fixed order. *)
let personalized render =
  let db = Lazy.force db in
  let b = Buffer.create (1 lsl 16) in
  List.iteri
    (fun u profile ->
      List.iter
        (fun sql ->
          List.iter
            (fun (method_, k) ->
              let o =
                Perso.Personalize.personalize ~params:(params method_ k) db
                  profile (Sql_parser.parse sql)
              in
              Printf.bprintf b "%d %d\n%s\n" u k (render o.Perso.Personalize.personalized))
            [ (`MQ, 5); (`MQ, 20); (`MQ, 60); (`SQ, 5); (`SQ, 20); (`SQ, 60) ])
        (Lazy.force templates))
    (Lazy.force profiles);
  Buffer.contents b

let bound_templates () =
  String.concat "\n"
    (List.map
       (fun sql ->
         Sql_print.query_to_key (Binder.bind (Lazy.force db) (Sql_parser.parse sql)))
       (Lazy.force templates))

let profile_texts () =
  String.concat "" (List.map Perso.Profile.to_string (Lazy.force profiles))

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
        ] );
    ]
