(* The personalization plan cache: profile-store revisions and
   invalidation hooks, LRU bounds, hit/miss sources, recomputation after
   profile edits, the resilient cached ladder, and the cold/cached
   byte-equality oracle swept across many seeds. *)

open Perso
open Relal

let d = Helpers.deg

let motivating_sql =
  "select mv.title from movie mv, play pl where mv.mid = pl.mid and pl.date \
   = '2003-07-02'"

let q db sql = Binder.bind db (Sql_parser.parse sql)

let src_name = function
  | Perso_cache.Hit -> "hit"
  | Perso_cache.Incremental -> "incremental"  (* never produced *)
  | Perso_cache.Miss -> "miss"
  | Perso_cache.Bypass -> "bypass"

let check_src name expected got =
  Alcotest.(check string) name (src_name expected) (src_name got)

let sql_of o = Sql_print.query_to_string o.Personalize.personalized

let rows_of db o =
  (Personalize.execute db o).Exec.rows
  |> List.map (fun row ->
         Array.to_list row |> List.map Value.to_string |> String.concat "\t")

(* ----------------------- revisions and no-op saves ------------------ *)

let test_revision_bumps () =
  let db = Moviedb.Personas.tiny_db () in
  let julie = Moviedb.Personas.julie () in
  let events = ref [] in
  Profile_store.subscribe db (fun ~user -> events := user :: !events);
  Alcotest.(check int) "fresh user at 0" 0 (Profile_store.revision db ~user:"julie");
  Profile_store.save db ~user:"julie" julie;
  Alcotest.(check int) "save bumps" 1 (Profile_store.revision db ~user:"julie");
  Alcotest.(check int) "saved event fired" 1 (List.length !events);
  let a = Atom.sel "genre" "genre" (Value.Str "drama") in
  Profile_store.save db ~user:"Julie" (Profile.add julie a (d 0.5));
  Alcotest.(check int) "changed save bumps (case-folded)" 2
    (Profile_store.revision db ~user:"julie");
  Alcotest.(check int) "changed save fires" 2 (List.length !events);
  Profile_store.delete db ~user:"julie";
  Alcotest.(check int) "delete bumps" 3 (Profile_store.revision db ~user:"julie");
  Alcotest.(check (list string)) "one hook call per mutation, naming the user"
    [ "julie"; "julie"; "julie" ] !events;
  Profile_store.delete db ~user:"julie";
  Alcotest.(check int) "deleting an absent user is a no-op" 3
    (Profile_store.revision db ~user:"julie");
  Alcotest.(check int) "no event for the no-op delete" 3 (List.length !events);
  Alcotest.(check int) "other users unaffected" 0
    (Profile_store.revision db ~user:"rob")

let test_identical_save_noop () =
  let db = Moviedb.Personas.tiny_db () in
  let julie = Moviedb.Personas.julie () in
  let events = ref 0 in
  Profile_store.subscribe db (fun ~user:_ -> incr events);
  Profile_store.save db ~user:"julie" julie;
  Alcotest.(check int) "first save fires" 1 !events;
  (* Any table rewrite crosses Chaos.Store_mutate; with faults armed at
     p=1 a rewrite must raise, so surviving proves the re-save never
     touched storage. *)
  let (_ : Chaos.stats) = Chaos.arm ~transient_ratio:0. ~seed:7 ~p:1.0 () in
  Fun.protect ~finally:Chaos.disarm (fun () ->
      Profile_store.save db ~user:"julie" julie);
  Alcotest.(check int) "identical re-save: no rewrite, no bump, no event" 1
    !events;
  Alcotest.(check int) "revision unchanged" 1
    (Profile_store.revision db ~user:"julie")

(* --------------------------- cache behaviour ------------------------ *)

let setup () =
  let db = Moviedb.Personas.tiny_db () in
  let julie = Moviedb.Personas.julie () in
  Profile_store.save db ~user:"julie" julie;
  (db, julie, Perso_cache.create db)

let test_hit_is_byte_identical () =
  let db, julie, cache = setup () in
  let query = q db motivating_sql in
  let cold = Personalize.personalize db julie query in
  let o1, s1 = Perso_cache.personalize cache ~user:"julie" julie query in
  let o2, s2 = Perso_cache.personalize cache ~user:"julie" julie query in
  check_src "first consult misses" Perso_cache.Miss s1;
  check_src "second consult hits" Perso_cache.Hit s2;
  Alcotest.(check string) "miss = cold sql" (sql_of cold) (sql_of o1);
  Alcotest.(check string) "hit = cold sql" (sql_of cold) (sql_of o2);
  Alcotest.(check (list string)) "hit = cold rows" (rows_of db cold) (rows_of db o2);
  let st = Perso_cache.stats cache in
  Alcotest.(check int) "one entry" 1 st.Perso_cache.entries;
  Alcotest.(check bool) "bytes accounted" true (st.Perso_cache.bytes > 0)

let test_params_split_keys () =
  let db, julie, cache = setup () in
  let query = q db motivating_sql in
  let p3 = { Personalize.default_params with k = Criteria.top_r 3 } in
  let _, s1 = Perso_cache.personalize cache ~user:"julie" julie query in
  let _, s2 = Perso_cache.personalize cache ~params:p3 ~user:"julie" julie query in
  let _, s3 = Perso_cache.personalize cache ~params:p3 ~user:"julie" julie query in
  check_src "default params miss" Perso_cache.Miss s1;
  check_src "different params re-miss" Perso_cache.Miss s2;
  check_src "same params hit" Perso_cache.Hit s3;
  Alcotest.(check int) "two entries" 2 (Perso_cache.stats cache).Perso_cache.entries

let test_lru_eviction () =
  let db = Moviedb.Personas.tiny_db () in
  let julie = Moviedb.Personas.julie () in
  Profile_store.save db ~user:"julie" julie;
  let cache = Perso_cache.create ~max_entries:2 db in
  let sqls =
    [
      motivating_sql;
      "select m.title from movie m where m.year = 1999";
      "select g.genre from genre g, movie m where m.mid = g.mid";
    ]
  in
  List.iter
    (fun sql ->
      ignore (Perso_cache.personalize cache ~user:"julie" julie (q db sql)))
    sqls;
  let st = Perso_cache.stats cache in
  Alcotest.(check int) "bounded to 2" 2 st.Perso_cache.entries;
  Alcotest.(check int) "one eviction" 1 st.Perso_cache.evictions;
  (* The oldest key was evicted; the newest two still hit. *)
  let _, s_old =
    Perso_cache.personalize cache ~user:"julie" julie (q db (List.hd sqls))
  in
  check_src "evicted key re-misses" Perso_cache.Miss s_old

let test_byte_bound_evicts () =
  let db, julie, _ = setup () in
  let cache = Perso_cache.create ~max_bytes:1 db in
  ignore (Perso_cache.personalize cache ~user:"julie" julie (q db motivating_sql));
  let st = Perso_cache.stats cache in
  Alcotest.(check int) "over-budget entry evicted" 0 st.Perso_cache.entries;
  Alcotest.(check bool) "eviction counted" true (st.Perso_cache.evictions >= 1)

let test_invalidation_on_save_and_delete () =
  let db, julie, cache = setup () in
  let query = q db motivating_sql in
  ignore (Perso_cache.personalize cache ~user:"julie" julie query);
  let julie' =
    Profile.add julie (Atom.sel "genre" "genre" (Value.Str "drama")) (d 0.4)
  in
  Profile_store.save db ~user:"julie" julie';
  let st = Perso_cache.stats cache in
  Alcotest.(check int) "save invalidates the fresh entry" 1
    st.Perso_cache.invalidations;
  Alcotest.(check int) "save drops the user's entry" 0 st.Perso_cache.entries;
  let o, s = Perso_cache.personalize cache ~user:"julie" julie' query in
  check_src "next consult recomputes" Perso_cache.Miss s;
  let cold = Personalize.personalize db julie' query in
  Alcotest.(check string) "recomputed = cold" (sql_of cold) (sql_of o);
  Profile_store.delete db ~user:"julie";
  Alcotest.(check int) "delete drops the user's entries" 0
    (Perso_cache.stats cache).Perso_cache.entries

(* -------------------------- after an edit --------------------------- *)

(* Every kind of profile edit drops the user's cached plans: the next
   consult is a [Miss] whose SQL and rows equal a cold run on the edited
   profile, and the consult after it is a [Hit].  One table of edits
   drives the "incremental" cases, each a one-preference edit (or a
   delete) of julie's saved profile.  K=50 is above julie's related-path
   count (every related path selected); the default K=5 cuts her
   selection off at the top 5. *)
let edit_cases =
  let comedy = Atom.sel "genre" "genre" (Value.Str "comedy") in
  let drama = Atom.sel "genre" "genre" (Value.Str "drama") in
  let k50 = { Personalize.default_params with k = Criteria.top_r 50 } in
  let dflt = Personalize.default_params in
  [
    ( "retune",
      [ ("retune a selected preference at K=50", k50,
         fun p -> Profile.add p comedy (d 0.65)) ] );
    ( "retune at cutoff falls back",
      [ ("retune at the cutoff", dflt, fun p -> Profile.add p comedy (d 0.7)) ] );
    ( "add / remove",
      [
        ("add", dflt, fun p -> Profile.add p drama (d 0.45));
        ("remove", dflt, fun p -> Profile.remove p comedy);
      ] );
    ( "join edit falls back",
      [ ("retune a join", dflt,
         fun p -> Profile.add p (Atom.join ("movie", "mid") ("genre", "mid")) (d 0.55)) ] );
    ("delete", [ ("delete", dflt, fun _ -> Profile.empty) ]);
  ]

let test_edit_recomputes_cold (name, params, edit) =
  let db, julie, cache = setup () in
  let query = q db motivating_sql in
  ignore (Perso_cache.personalize cache ~params ~user:"julie" julie query);
  let edited = edit julie in
  if Profile.cardinal edited = 0 then Profile_store.delete db ~user:"julie"
  else Profile_store.save db ~user:"julie" edited;
  Alcotest.(check int) (name ^ ": the edit bumps the revision") 2
    (Profile_store.revision db ~user:"julie");
  let o, s = Perso_cache.personalize cache ~params ~user:"julie" edited query in
  check_src (name ^ ": next consult misses") Perso_cache.Miss s;
  let cold = Personalize.personalize ~params db edited query in
  Alcotest.(check string) (name ^ ": sql = cold") (sql_of cold) (sql_of o);
  Alcotest.(check (list string)) (name ^ ": rows = cold") (rows_of db cold)
    (rows_of db o);
  let _, s2 = Perso_cache.personalize cache ~params ~user:"julie" edited query in
  check_src (name ^ ": the consult after it hits") Perso_cache.Hit s2

let test_sql_r_sources_and_bypass () =
  let db, julie, cache = setup () in
  let run src_check ?cache ?user () =
    let r, s =
      Perso_cache.personalize_sql_r ?cache ?user db julie motivating_sql
    in
    (match r with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("unexpected error: " ^ Error.to_string e));
    src_check s
  in
  run (check_src "no cache -> bypass" Perso_cache.Bypass) ();
  run (check_src "no user -> bypass" Perso_cache.Bypass) ~cache ();
  run (check_src "cached -> miss" Perso_cache.Miss) ~cache ~user:"julie" ();
  run (check_src "cached again -> hit" Perso_cache.Hit) ~cache ~user:"julie" ();
  let other_db = Moviedb.Personas.tiny_db () in
  let r, s =
    Perso_cache.personalize_sql_r ~cache ~user:"julie" other_db julie
      motivating_sql
  in
  Alcotest.(check bool) "foreign db still answers" true (Result.is_ok r);
  check_src "foreign db -> bypass" Perso_cache.Bypass s;
  let r_bad, s_bad =
    Perso_cache.personalize_sql_r ~cache ~user:"julie" db julie "select nope"
  in
  Alcotest.(check bool) "parse error surfaces" true (Result.is_error r_bad);
  check_src "parse error -> bypass" Perso_cache.Bypass s_bad;
  let st = Perso_cache.stats cache in
  (* The no-cache call has no stats object to tick: 3, not 4. *)
  Alcotest.(check int) "bypasses counted on the cache" 3 st.Perso_cache.bypasses

(* ------------------------ size estimate ----------------------------- *)

(* The structural estimate that replaced [Obj.reachable_words] in the
   byte accounting must stay within 2× of the exact measure (either
   direction) on representative outcomes: small persona profiles on the
   tiny db and generated 10–20-selection profiles on a datagen db,
   under both integration methods and several K. *)
let test_size_estimate () =
  let word_bytes = Sys.word_size / 8 in
  let exact key outcome =
    Obj.reachable_words (Obj.repr (key, outcome)) * word_bytes
  in
  let cases = ref 0 in
  let check_case name db profile params sql =
    let outcome =
      Personalize.personalize ~params db profile (Sql_parser.parse sql)
    in
    let key = "julie\x01mq|top#5\x01" ^ sql in
    let est = Size_est.entry_bytes ~key outcome in
    let ex = exact key outcome in
    let ratio = float_of_int est /. float_of_int (max 1 ex) in
    incr cases;
    (if Sys.getenv_opt "SIZE_EST_DEBUG" <> None then
       Printf.eprintf "%s: est=%d exact=%d ratio=%.2f\n%!" name est ex ratio);
    if ratio < 0.5 || ratio > 2.0 then
      Alcotest.failf "%s: estimate %dB vs exact %dB (ratio %.2f) out of 2x"
        name est ex ratio
  in
  let tiny = Moviedb.Personas.tiny_db () in
  let julie = Moviedb.Personas.julie () in
  let p ?(k = 5) method_ =
    { Personalize.default_params with k = Criteria.top_r k; method_ }
  in
  check_case "tiny mq" tiny julie (p `MQ) motivating_sql;
  check_case "tiny sq" tiny julie (p `SQ) motivating_sql;
  check_case "tiny mq k1" tiny julie (p ~k:1 `MQ) motivating_sql;
  let db = Moviedb.Datagen.(generate (scale ~seed:7 120)) in
  let rng = Putil.Rng.create 99 in
  for seed = 1 to 6 do
    let profile =
      Moviedb.Profile_gen.generate db
        { Moviedb.Profile_gen.default with seed; n_selections = 4 * seed }
    in
    let sql =
      Sql_print.query_to_string (Moviedb.Workload.random_query db rng)
    in
    check_case
      (Printf.sprintf "datagen seed %d mq" seed)
      db profile
      (p ~k:(3 + seed) `MQ)
      sql;
    check_case
      (Printf.sprintf "datagen seed %d sq" seed)
      db profile
      (p ~k:(3 + seed) `SQ)
      sql
  done;
  Alcotest.(check bool)
    (Printf.sprintf "representative cases covered (%d)" !cases)
    true (!cases >= 10)

(* -------------------- oracle sweep: 100 seeded runs ----------------- *)

let test_oracle_sweep () =
  let n_recomputed = ref 0 and n_edits = ref 0 in
  for seed = 1 to 100 do
    let checks = Perso_sim.Oracle.cache_checks ~movies:120 ~selections:12 seed "sweep" in
    List.iter
      (fun c ->
        if not c.Perso_sim.Oracle.ok then
          Alcotest.failf "seed %d: %s: %s" seed c.Perso_sim.Oracle.name
            c.Perso_sim.Oracle.detail;
        Scanf.sscanf_opt c.Perso_sim.Oracle.detail "recomputed=%d edits=%d"
          (fun a b -> (a, b))
        |> Option.iter (fun (a, b) ->
               n_recomputed := !n_recomputed + a;
               n_edits := !n_edits + b))
      checks
  done;
  Alcotest.(check bool)
    (Printf.sprintf "post-edit consults recomputed (%d of %d edits)"
       !n_recomputed !n_edits)
    true
    (!n_edits > 0 && !n_recomputed = !n_edits)

let () =
  Alcotest.run "perso_cache"
    [
      ( "store-revisions",
        [
          Alcotest.test_case "bumps and events" `Quick test_revision_bumps;
          Alcotest.test_case "identical save no-op" `Quick
            test_identical_save_noop;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit byte-identical" `Quick
            test_hit_is_byte_identical;
          Alcotest.test_case "params split keys" `Quick test_params_split_keys;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "byte bound" `Quick test_byte_bound_evicts;
          Alcotest.test_case "invalidation" `Quick
            test_invalidation_on_save_and_delete;
        ] );
      ( "size-estimate",
        [
          Alcotest.test_case "within 2x of reachable_words" `Quick
            test_size_estimate;
        ] );
      ( "incremental",
        List.map
          (fun (case, edits) ->
            Alcotest.test_case case `Quick (fun () ->
                List.iter test_edit_recomputes_cold edits))
          edit_cases );
      ( "resilient",
        [
          Alcotest.test_case "sources and bypass" `Quick
            test_sql_r_sources_and_bypass;
        ] );
      ( "oracle",
        [ Alcotest.test_case "100-seed sweep" `Quick test_oracle_sweep ] );
    ]
