(* Atoms, profiles (including the Figure 2 text format) and the
   personalization graph. *)

open Perso
open Relal

let d = Helpers.deg

(* ------------------------------ Atom ------------------------------ *)

let test_atom_construction () =
  let a = Atom.sel "GENRE" "Genre" (Value.Str "comedy") in
  Alcotest.(check string) "lower-cased, printed upper"
    "GENRE.genre = 'comedy'" (Atom.to_string a);
  let j = Atom.join ("MOVIE", "mid") ("PLAY", "mid") in
  Alcotest.(check string) "join rendering" "MOVIE.mid = PLAY.mid" (Atom.to_string j)

let test_atom_equal_directionality () =
  let j1 = Atom.join ("movie", "mid") ("play", "mid") in
  let j2 = Atom.join ("play", "mid") ("movie", "mid") in
  Alcotest.(check bool) "directions are distinct atoms" false (Atom.equal j1 j2);
  match (j1, j2) with
  | Atom.Join j1', Atom.Join j2' ->
      Alcotest.(check bool) "reverse matches" true
        (Atom.equal (Atom.Join (Atom.reverse_join j1')) (Atom.Join j2'))
  | _ -> Alcotest.fail "joins expected"

let test_atom_validate () =
  let db = Moviedb.Movie_schema.create () in
  Alcotest.(check bool) "valid selection" true
    (Atom.validate db (Atom.sel "genre" "genre" (Value.Str "comedy")) = Ok ());
  Alcotest.(check bool) "valid join" true
    (Atom.validate db (Atom.join ("movie", "mid") ("play", "mid")) = Ok ());
  Alcotest.(check bool) "unknown relation" true
    (Result.is_error (Atom.validate db (Atom.sel "nope" "x" (Value.Int 1))));
  Alcotest.(check bool) "unknown attribute" true
    (Result.is_error (Atom.validate db (Atom.sel "movie" "nope" (Value.Int 1))));
  Alcotest.(check bool) "type mismatch" true
    (Result.is_error (Atom.validate db (Atom.sel "movie" "year" (Value.Str "x"))));
  Alcotest.(check bool) "date string ok for date column" true
    (Atom.validate db (Atom.sel "play" "date" (Value.Str "2003-07-02")) = Ok ());
  Alcotest.(check bool) "paper's date format ok" true
    (Atom.validate db (Atom.sel "play" "date" (Value.Str "2/7/2003")) = Ok ());
  Alcotest.(check bool) "unparsable date string" true
    (Result.is_error (Atom.validate db (Atom.sel "play" "date" (Value.Str "2003-13-45"))))

let test_atom_of_pred () =
  (match Atom.of_pred (Sql_parser.parse_pred "GENRE.genre = 'comedy'") with
  | Ok (Atom.Sel s) ->
      Alcotest.(check string) "rel" "genre" s.Atom.s_rel;
      Alcotest.(check Helpers.value_testable) "value" (Value.Str "comedy") s.Atom.s_val
  | _ -> Alcotest.fail "selection expected");
  (match Atom.of_pred (Sql_parser.parse_pred "MOVIE.mid = PLAY.mid") with
  | Ok (Atom.Join j) ->
      Alcotest.(check string) "from" "movie" j.Atom.j_from_rel;
      Alcotest.(check string) "to" "play" j.Atom.j_to_rel
  | _ -> Alcotest.fail "join expected");
  (match Atom.of_pred (Sql_parser.parse_pred "2000 < MOVIE.year") with
  | Ok (Atom.Sel s) -> Alcotest.(check bool) "flipped op" true (s.Atom.s_op = Sql_ast.Gt)
  | _ -> Alcotest.fail "flipped selection expected");
  Alcotest.(check bool) "non-atomic rejected" true
    (Result.is_error (Atom.of_pred (Sql_parser.parse_pred "a.x = 1 and a.y = 2")))

(* [Atom.compare] orders selection values without printing string
   literals; the reference is the definition it replaced, which compared
   the printed values. *)
let ref_compare a b =
  match (a, b) with
  | Atom.Sel _, Atom.Join _ -> -1
  | Join _, Sel _ -> 1
  | Sel s1, Sel s2 ->
      let c = String.compare s1.s_rel s2.s_rel in
      if c <> 0 then c
      else
        let c = String.compare s1.s_att s2.s_att in
        if c <> 0 then c
        else
          let c = Stdlib.compare s1.s_op s2.s_op in
          if c <> 0 then c
          else String.compare (Value.to_string s1.s_val) (Value.to_string s2.s_val)
  | Join j1, Join j2 -> Stdlib.compare j1 j2

let gen_atom =
  let open QCheck.Gen in
  (* Short strings over a tiny alphabet with quotes: shared prefixes,
     empty strings, and a quote against every neighbour of its byte. *)
  let str =
    string_size ~gen:(oneofl [ 'a'; 'b'; '\''; '&'; '('; ' '; '\xff' ]) (int_range 0 4)
  in
  let value =
    frequency
      [
        (5, map (fun s -> Value.Str s) str);
        (2, map (fun i -> Value.Int i) (int_range (-120) 120));
        (1, map (fun i -> Value.Int i) int);
        (1, map (fun f -> Value.Float f) (oneofl [ 0.5; -2.; 1e20; 3. ]));
        (1, map (fun d -> Value.Date d) (oneofl [ 20030702; 19991231 ]));
        (1, oneofl [ Value.Null; Value.Bool true; Value.Bool false ]);
      ]
  in
  frequency
    [
      ( 6,
        map3
          (fun rel op v -> Atom.sel ~op rel "x" v)
          (oneofl [ "genre"; "movie" ])
          (oneofl [ Sql_ast.Eq; Sql_ast.Lt ])
          value );
      ( 1,
        map2
          (fun r1 r2 -> Atom.join (r1, "mid") (r2, "mid"))
          (oneofl [ "movie"; "genre" ])
          (oneofl [ "play"; "cast" ]) );
    ]

let print_atom = Atom.to_string

let prop_atom_compare =
  QCheck.Test.make ~name:"Atom.compare has the sign of the printed compare"
    ~count:5000
    (QCheck.make ~print:QCheck.Print.(pair print_atom print_atom)
       QCheck.Gen.(pair gen_atom gen_atom))
    (fun (a, b) -> Int.compare (Atom.compare a b) 0 = Int.compare (ref_compare a b) 0)

(* Entries come out by decreasing degree, then by the reference atom
   order, on random and on generated profiles. *)
let in_reference_order entries =
  let rec ok = function
    | (a1, d1) :: ((a2, d2) :: _ as rest) ->
        (match Degree.compare_desc d1 d2 with
        | 0 -> ref_compare a1 a2 < 0
        | c -> c < 0)
        && ok rest
    | _ -> true
  in
  ok entries

let prop_entries_order =
  QCheck.Test.make ~name:"Profile.entries in the printed-value order" ~count:500
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 30)
           (pair gen_atom (map (fun i -> d (float_of_int i /. 4.)) (int_range 1 4)))))
    (fun l ->
      let p = List.fold_left (fun p (a, deg) -> Profile.add p a deg) Profile.empty l in
      in_reference_order (Profile.entries p))

(* A profile's one-line wire form — the lines of [Profile.to_string]
   joined by spaces, what PROFILE SAVE carries — reads back as the same
   profile, through [Profile.of_string] and through the server's path
   (cut with [Profile.entry_lines], one entry per line), though its
   literals hold ']', ',' and quotes. *)
let gen_wire_profile =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:(oneofl [ 'a'; ']'; '['; ','; '\''; ' '; '#' ])
      (int_range 0 6)
  in
  let atom =
    frequency
      [
        (4, map (fun s -> Atom.sel "movie" "title" (Value.Str s)) str);
        (1, map (fun i -> Atom.sel "movie" "year" (Value.Int i)) (int_range 1900 2010));
        (1, map (fun r -> Atom.join ("movie", "mid") (r, "mid")) (oneofl [ "genre"; "play" ]));
      ]
  in
  map
    (List.fold_left (fun p (a, deg) -> Profile.add p a deg) Profile.empty)
    (list_size (0 -- 12)
       (pair atom (map (fun i -> d (float_of_int i /. 100.)) (int_range 1 100))))

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"one-line wire form round-trips" ~count:1000
    (QCheck.make ~print:Profile.to_string gen_wire_profile)
    (fun p ->
      let lines =
        List.filter (( <> ) "") (String.split_on_char '\n' (Profile.to_string p))
      in
      let wire = String.concat " " lines in
      let same = function Ok q -> Profile.equal p q | Error _ -> false in
      Profile.entry_lines wire = lines
      && same (Profile.of_string wire)
      && same (Profile.of_string (String.concat "\n" (Profile.entry_lines wire))))

let test_generated_entries_order () =
  let db = Moviedb.Datagen.(generate (scale ~seed:3 200)) in
  List.iter
    (fun seed ->
      let p =
        Moviedb.Profile_gen.generate db
          { Moviedb.Profile_gen.default with seed; n_selections = 60 }
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        true
        (in_reference_order (Profile.entries p)))
    [ 1; 2; 3; 4; 5 ]

(* ----------------------------- Profile ----------------------------- *)

let sample_profile () =
  Profile.of_list
    [
      (Atom.join ("theatre", "tid") ("play", "tid"), d 1.0);
      (Atom.join ("movie", "mid") ("genre", "mid"), d 0.9);
      (Atom.sel "genre" "genre" (Value.Str "comedy"), d 0.9);
      (Atom.sel "genre" "genre" (Value.Str "thriller"), d 0.7);
      (Atom.sel "actor" "name" (Value.Str "A. Hopkins"), d 0.8);
    ]

let test_profile_basics () =
  let p = sample_profile () in
  Alcotest.(check int) "cardinal" 5 (Profile.cardinal p);
  Alcotest.(check int) "size counts selections" 3 (Profile.size p);
  Alcotest.(check (option Helpers.degree_testable)) "find" (Some (d 0.7))
    (Profile.find p (Atom.sel "genre" "genre" (Value.Str "thriller")));
  let entries = Profile.entries p in
  let degs = List.map (fun (_, deg) -> Degree.to_float deg) entries in
  Alcotest.(check (list (float 1e-9))) "decreasing order"
    [ 1.0; 0.9; 0.9; 0.8; 0.7 ] degs

let test_profile_zero_rejected () =
  Alcotest.(check bool) "zero degree rejected" true
    (try
       ignore (Profile.add Profile.empty (Atom.sel "a" "b" (Value.Int 1)) (d 0.));
       false
     with Invalid_argument _ -> true)

let test_profile_duplicate_rejected () =
  let a = Atom.sel "genre" "genre" (Value.Str "comedy") in
  Alcotest.(check bool) "of_list duplicate" true
    (try
       ignore (Profile.of_list [ (a, d 0.5); (a, d 0.6) ]);
       false
     with Invalid_argument _ -> true);
  (* add replaces silently. *)
  let p = Profile.add (Profile.add Profile.empty a (d 0.5)) a (d 0.6) in
  Alcotest.(check (option Helpers.degree_testable)) "add replaces" (Some (d 0.6))
    (Profile.find p a)

let test_profile_remove_union () =
  let p = sample_profile () in
  let a = Atom.sel "genre" "genre" (Value.Str "comedy") in
  Alcotest.(check int) "remove" 4 (Profile.cardinal (Profile.remove p a));
  let q = Profile.of_list [ (a, d 0.1) ] in
  Alcotest.(check (option Helpers.degree_testable)) "union right-biased"
    (Some (d 0.1))
    (Profile.find (Profile.union p q) a)

let test_profile_text_roundtrip () =
  let p = sample_profile () in
  let s = Profile.to_string p in
  match Profile.of_string s with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok p2 ->
      Alcotest.(check int) "same cardinal" (Profile.cardinal p) (Profile.cardinal p2);
      List.iter2
        (fun (a1, d1) (a2, d2) ->
          Alcotest.(check bool) "same atom" true (Atom.equal a1 a2);
          Alcotest.(check Helpers.degree_testable) "same degree" d1 d2)
        (Profile.entries p) (Profile.entries p2)

let test_profile_figure2_format () =
  (* Literal lines from Figure 2 of the paper. *)
  let text =
    {|# Julie's profile (Figure 2)
[ THEATRE.tid = PLAY.tid,  1 ]
[ PLAY.tid = THEATRE.tid,  1 ]
[ PLAY.mid = MOVIE.mid,  1 ]
[ MOVIE.mid = PLAY.mid,  0.8 ]
[ MOVIE.mid = GENRE.mid, 0.9 ]
[ ACTOR.name = 'A. Hopkins',  0.8 ]
[ GENRE.genre = 'comedy',  0.9 ]
[ GENRE.genre = 'thriller',  0.7 ]
|}
  in
  match Profile.of_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok p ->
      Alcotest.(check int) "eight entries" 8 (Profile.cardinal p);
      Alcotest.(check int) "three selections" 3 (Profile.size p);
      Alcotest.(check (option Helpers.degree_testable)) "directed join degree"
        (Some (d 0.8))
        (Profile.find p (Atom.join ("movie", "mid") ("play", "mid")));
      Alcotest.(check (option Helpers.degree_testable)) "other direction"
        (Some (d 1.0))
        (Profile.find p (Atom.join ("play", "mid") ("movie", "mid")))

let test_profile_parse_errors () =
  let expect_err text =
    match Profile.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_err "[ GENRE.genre = 'comedy' ]";
  expect_err "[ GENRE.genre = 'comedy', nan ]";
  expect_err "[ GENRE.genre = 'comedy', 1.5 ]";
  expect_err "[ GENRE.genre = 'comedy', 0 ]";
  expect_err "GENRE.genre = 'comedy', 0.5";
  expect_err "[ not a condition at all, 0.5 ]"

let test_profile_validate () =
  let db = Moviedb.Movie_schema.create () in
  Alcotest.(check bool) "valid profile" true
    (Profile.validate db (sample_profile ()) = Ok ());
  let bad = Profile.add (sample_profile ()) (Atom.sel "nope" "x" (Value.Int 1)) (d 0.5) in
  match Profile.validate db bad with
  | Error [ e ] ->
      Alcotest.(check bool) "mentions relation" true
        (String.length e > 0)
  | _ -> Alcotest.fail "one error expected"

(* ------------------------------ Pgraph ------------------------------ *)

let test_pgraph_adjacency () =
  let g = Pgraph.of_profile (sample_profile ()) in
  Alcotest.(check int) "edge count" 5 (Pgraph.edge_count g);
  let genre_sels = Pgraph.out_selections g "genre" in
  Alcotest.(check int) "two genre selections" 2 (List.length genre_sels);
  (* Decreasing degree. *)
  (match genre_sels with
  | [ (_, d1); (_, d2) ] ->
      Alcotest.(check bool) "sorted" true (Degree.compare d1 d2 >= 0)
  | _ -> Alcotest.fail "two expected");
  Alcotest.(check int) "theatre out joins" 1
    (List.length (Pgraph.out_joins g "theatre"));
  Alcotest.(check int) "no actor out joins" 0
    (List.length (Pgraph.out_joins g "actor"))

let test_pgraph_out_edges_merged_order () =
  let g = Pgraph.of_profile (sample_profile ()) in
  let edges = Pgraph.out_edges g "movie" in
  (* movie has one join edge (0.9); selections live on genre/actor. *)
  Alcotest.(check int) "movie edges" 1 (List.length edges);
  let degs = List.map (fun (_, deg) -> Degree.to_float deg) (Pgraph.out_edges g "genre") in
  Alcotest.(check (list (float 1e-9))) "genre edges decreasing" [ 0.9; 0.7 ] degs

let test_pgraph_lookup () =
  let g = Pgraph.of_profile (sample_profile ()) in
  (match Atom.join ("movie", "mid") ("genre", "mid") with
  | Atom.Join j ->
      Alcotest.(check (option Helpers.degree_testable)) "join degree" (Some (d 0.9))
        (Pgraph.join_degree g j)
  | _ -> assert false);
  match Atom.sel "actor" "name" (Value.Str "A. Hopkins") with
  | Atom.Sel s ->
      Alcotest.(check (option Helpers.degree_testable)) "sel degree" (Some (d 0.8))
        (Pgraph.selection_degree g s)
  | _ -> assert false

let test_pgraph_relations_and_dot () =
  let g = Pgraph.of_profile (sample_profile ()) in
  Alcotest.(check (list string)) "relations with out-edges"
    [ "actor"; "genre"; "movie"; "theatre" ]
    (Pgraph.relations g);
  let dot = Format.asprintf "%a" Pgraph.pp_dot g in
  Alcotest.(check bool) "dot mentions GENRE" true
    (let rec contains i =
       i + 5 <= String.length dot && (String.sub dot i 5 = "GENRE" || contains (i + 1))
     in
     contains 0)

(* The stored graph.  [Ref.out_edges] is the reference order,
   recomputed from the profile on every call: each relation's
   selections and joins bucketed in reverse entry order, each
   stable-sorted by decreasing degree, then merged. *)
module Ref = struct
  let by_desc (_, d1) (_, d2) = Degree.compare_desc d1 d2

  let out_edges p rel =
    let rel = String.lowercase_ascii rel in
    let bucket keep = List.rev (List.filter keep (Profile.entries p)) in
    let sels = bucket (function Atom.Sel s, _ -> s.Atom.s_rel = rel | _ -> false) in
    let joins =
      bucket (function Atom.Join j, _ -> j.Atom.j_from_rel = rel | _ -> false)
    in
    List.merge by_desc (List.stable_sort by_desc sels) (List.stable_sort by_desc joins)
end

let graph_rels = [ "movie"; "genre"; "play"; "theatre" ]

(* Few relations, attributes, values and degrees, so that one relation
   carries several edges of equal degree, of both kinds. *)
let gen_tied_profile =
  let open QCheck.Gen in
  let rel = oneofl graph_rels and att = oneofl [ "a"; "b" ] in
  let atom =
    frequency
      [
        (2, map3 (fun r a v -> Atom.sel r a (Value.Int v)) rel att (0 -- 3));
        (1, map3 (fun r r' a -> Atom.join (r, a) (r', a)) rel rel att);
      ]
  in
  map
    (List.fold_left (fun p (a, x) -> Profile.add p a (d x)) Profile.empty)
    (list_size (0 -- 24) (pair atom (oneofl [ 0.3; 0.6; 0.9 ])))

let edges_equal =
  List.equal (fun (a, x) (b, y) -> Atom.equal a b && Degree.equal x y)

let shows_own_edges p =
  let g = Pgraph.of_profile p in
  List.for_all
    (fun rel -> edges_equal (Pgraph.out_edges g rel) (Ref.out_edges p rel))
    ("cast" :: "GENRE" :: graph_rels)
  && Pgraph.edge_count g = Profile.cardinal p

let prop_pgraph_tied_order =
  QCheck.Test.make ~name:"out_edges = sort-and-merge definition under ties"
    ~count:500
    (QCheck.make ~print:Profile.to_string gen_tied_profile)
    (fun p ->
      let g = Pgraph.of_profile p in
      shows_own_edges p
      && List.for_all
           (fun rel ->
             let sels, joins =
               List.partition
                 (function Atom.Sel _, _ -> true | _ -> false)
                 (Ref.out_edges p rel)
             in
             edges_equal
               (List.map (fun (s, x) -> (Atom.Sel s, x)) (Pgraph.out_selections g rel))
               sels
             && edges_equal
                  (List.map (fun (j, x) -> (Atom.Join j, x)) (Pgraph.out_joins g rel))
                  joins)
           graph_rels)

(* Each constructor returns a value with its own, empty slot, whether
   the parent's graph was built before the derivation or after it. *)
let test_pgraph_lifetime () =
  let p = sample_profile () in
  Alcotest.(check bool) "built once per value" true
    (Pgraph.of_profile p == Pgraph.of_profile p);
  let extra = Atom.sel "movie" "year" (Value.Int 2003) in
  let comedy = Atom.sel "genre" "genre" (Value.Str "comedy") in
  let other = Profile.of_list [ (Atom.join ("play", "mid") ("movie", "mid"), d 0.4) ] in
  let derived () =
    [
      ("add", Profile.add p extra (d 0.5));
      ("add over", Profile.add p comedy (d 0.2));
      ("remove", Profile.remove p comedy);
      ("union", Profile.union p other);
      ("of_string", Result.get_ok (Profile.of_string (Profile.to_string other)));
      ("of_list", Profile.of_list [ (extra, d 0.5) ]);
    ]
  in
  ignore (Pgraph.of_profile Profile.empty);
  List.iter
    (fun (name, q) ->
      Alcotest.(check bool) (name ^ ", parent built first") true (shows_own_edges q))
    (derived ());
  let p' = sample_profile () in
  let late = [ Profile.add p' extra (d 0.5); Profile.remove p' comedy ] in
  List.iter (fun q -> ignore (Pgraph.of_profile q)) late;
  Alcotest.(check bool) "parent built after its children" true (shows_own_edges p');
  Alcotest.(check bool) "empty stays empty" true (shows_own_edges Profile.empty)

(* Four threads take the graph of one fresh profile at once: none
   raises, and all see the same edges. *)
let test_pgraph_concurrent_first_use () =
  let pool = QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:300 gen_tied_profile in
  List.iter
    (fun p ->
      let go = Atomic.make false in
      let seen = Array.make 4 None in
      let take i =
        while not (Atomic.get go) do
          Thread.yield ()
        done;
        seen.(i) <-
          (match Pgraph.of_profile p with
          | g -> Some (List.map (fun rel -> Pgraph.out_edges g rel) graph_rels)
          | exception e -> failwith (Printexc.to_string e))
      in
      let threads = List.init 4 (fun i -> Thread.create take i) in
      Atomic.set go true;
      List.iter Thread.join threads;
      let want = List.map (Ref.out_edges p) graph_rels in
      Array.iter
        (function
          | Some got ->
              Alcotest.(check bool) "same edges" true (List.equal edges_equal got want)
          | None -> Alcotest.fail "a thread saw no graph")
        seen)
    pool

(* --------------------------- Profile_store -------------------------- *)

let test_store_roundtrip () =
  let db = Moviedb.Personas.tiny_db () in
  let julie = Moviedb.Personas.julie () in
  let rob = Moviedb.Personas.rob () in
  Profile_store.save db ~user:"Julie" julie;
  Profile_store.save db ~user:"rob" rob;
  Alcotest.(check (list string)) "users" [ "julie"; "rob" ] (Profile_store.users db);
  (match Profile_store.load db ~user:"JULIE" with
  | Ok p ->
      Alcotest.(check string) "julie round-trips" (Profile.to_string julie)
        (Profile.to_string p)
  | Error es -> Alcotest.failf "load errors: %s" (String.concat "; " es));
  match Profile_store.load db ~user:"rob" with
  | Ok p ->
      Alcotest.(check string) "rob round-trips" (Profile.to_string rob)
        (Profile.to_string p)
  | Error es -> Alcotest.failf "load errors: %s" (String.concat "; " es)

let test_store_replace_and_delete () =
  let db = Moviedb.Personas.tiny_db () in
  Profile_store.save db ~user:"u" (Moviedb.Personas.julie ());
  let smaller =
    Profile.of_list [ (Atom.sel "genre" "genre" (Value.Str "comedy"), d 0.5) ]
  in
  Profile_store.save db ~user:"u" smaller;
  (match Profile_store.load db ~user:"u" with
  | Ok p -> Alcotest.(check int) "replaced, not merged" 1 (Profile.cardinal p)
  | Error _ -> Alcotest.fail "load");
  Profile_store.delete db ~user:"u";
  Alcotest.(check (list string)) "deleted" [] (Profile_store.users db);
  match Profile_store.load db ~user:"u" with
  | Ok p -> Alcotest.(check int) "empty after delete" 0 (Profile.cardinal p)
  | Error _ -> Alcotest.fail "load after delete"

let test_store_unknown_user_and_bad_rows () =
  let db = Moviedb.Personas.tiny_db () in
  Profile_store.install db;
  (match Profile_store.load db ~user:"nobody" with
  | Ok p -> Alcotest.(check int) "unknown user empty" 0 (Profile.cardinal p)
  | Error _ -> Alcotest.fail "unknown user should not error");
  (* A hand-corrupted row surfaces as an error, not an exception. *)
  Relal.Database.insert db Profile_store.table_name
    [ Relal.Value.Str "broken"; Relal.Value.Str "((not sql"; Relal.Value.Float 0.5 ];
  match Profile_store.load db ~user:"broken" with
  | Error [ _ ] -> ()
  | _ -> Alcotest.fail "expected one parse error"

let test_store_queryable_and_survives_dump () =
  (* The store is an ordinary table: SQL sees it, and it travels with
     CSV dumps. *)
  let db = Moviedb.Personas.tiny_db () in
  Profile_store.save db ~user:"julie" (Moviedb.Personas.julie ());
  let res =
    Helpers.run db
      "select count(*) as n from profiles p where p.username = 'julie'"
  in
  Alcotest.(check Helpers.value_testable) "sql count"
    (Relal.Value.Int (Profile.cardinal (Moviedb.Personas.julie ())))
    (List.hd res.Relal.Exec.rows).(0);
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "perdb_store_test" in
  Relal.Csv.save_db ~dir db;
  let db2 = Relal.Csv.load_db ~dir in
  match Profile_store.load db2 ~user:"julie" with
  | Ok p ->
      Alcotest.(check string) "profile survives dump/load"
        (Profile.to_string (Moviedb.Personas.julie ()))
        (Profile.to_string p)
  | Error es -> Alcotest.failf "load errors: %s" (String.concat "; " es)

let test_store_index_differential () =
  (* A seeded mix of saves (grow, shrink, reorder), deletes and
     hand-inserted unparseable rows leaves the profiles table indexed; its
     CSV dump reloads indexed too, since dumps declare their indexes.  The
     scan side is a twin built explicitly: a fresh, unindexed profiles
     table of the same schema filled with the dumped rows.  Loads through
     the index and by scan must agree user for user, typed errors
     included, in the same order. *)
  let db = Moviedb.Personas.tiny_db () in
  let pool = Array.of_list (Profile.entries (Moviedb.Personas.julie ())) in
  let users = [| "ann"; "bob"; "cy"; "dee"; "eve" |] in
  let bad_rows =
    [|
      (Relal.Value.Str "((not sql", 0.5);
      (Relal.Value.Str "genre.genre = 'comedy'", 1.5);
      (Relal.Value.Str "genre.genre =", 0.7);
    |]
  in
  let rng = Random.State.make [| 11 |] in
  let bad user =
    let cond, deg = bad_rows.(Random.State.int rng (Array.length bad_rows)) in
    Relal.Database.insert db Profile_store.table_name
      [ Relal.Value.Str user; cond; Relal.Value.Float deg ]
  in
  let save user =
    let picked =
      Array.to_list pool
      |> List.filter (fun _ -> Random.State.bool rng)
      |> List.map (fun (a, _) -> (Random.State.int rng 1000, a))
      |> List.sort compare
      |> List.map (fun (r, a) -> (a, d (0.1 +. (float_of_int (r mod 9) /. 10.))))
    in
    Profile_store.save db ~user (Profile.of_list picked)
  in
  for _ = 1 to 400 do
    let user = users.(Random.State.int rng (Array.length users)) in
    match Random.State.int rng 10 with
    | 0 -> Profile_store.delete db ~user
    | 1 | 2 | 3 | 4 -> bad user
    | _ -> save user
  done;
  (* End on a known mix: every user saved, every other one then broken
     by two bad rows interleaved with the others' rows. *)
  Array.iter save users;
  Array.iteri (fun i user -> if i mod 2 = 0 then bad user) users;
  Array.iteri (fun i user -> if i mod 2 = 0 then bad user) users;
  let has_index db =
    Relal.Table.has_index
      (Relal.Database.table db Profile_store.table_name)
      "username"
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "perdb_index_diff_%d" (Unix.getpid ()))
  in
  Relal.Csv.save_db ~dir db;
  let reloaded = Relal.Csv.load_db ~dir in
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  let db2 = Relal.Database.create () in
  let dumped = Relal.Database.table reloaded Profile_store.table_name in
  Relal.Database.add_table db2 (Relal.Table.schema dumped);
  Relal.Table.iter dumped
    (Relal.Table.insert (Relal.Database.table db2 Profile_store.table_name));
  Alcotest.(check bool) "saved table is indexed" true (has_index db);
  Alcotest.(check bool) "reloaded table is indexed" true (has_index reloaded);
  Alcotest.(check bool) "scan twin is not" false (has_index db2);
  let render = function
    | Ok p -> "ok " ^ Profile.to_string p
    | Error es -> "error " ^ String.concat " | " es
  in
  let outcomes =
    List.map
      (fun user ->
        let indexed = render (Profile_store.load db ~user) in
        Alcotest.(check string) ("load " ^ user) indexed
          (render (Profile_store.load db2 ~user));
        Alcotest.(check string) ("reload " ^ user) indexed
          (render (Profile_store.load reloaded ~user));
        indexed)
      ("nobody" :: Array.to_list users)
  in
  let has prefix = List.exists (String.starts_with ~prefix) outcomes in
  Alcotest.(check bool) "some loads fail, some succeed" true
    (has "error " && has "ok ")

let () =
  Alcotest.run "profile"
    [
      ( "atom",
        [
          Alcotest.test_case "construction" `Quick test_atom_construction;
          Alcotest.test_case "directionality" `Quick test_atom_equal_directionality;
          Alcotest.test_case "validate" `Quick test_atom_validate;
          Alcotest.test_case "of_pred" `Quick test_atom_of_pred;
          QCheck_alcotest.to_alcotest prop_atom_compare;
        ] );
      ( "profile",
        [
          Alcotest.test_case "basics" `Quick test_profile_basics;
          Alcotest.test_case "zero rejected" `Quick test_profile_zero_rejected;
          Alcotest.test_case "duplicates" `Quick test_profile_duplicate_rejected;
          Alcotest.test_case "remove/union" `Quick test_profile_remove_union;
          Alcotest.test_case "text round-trip" `Quick test_profile_text_roundtrip;
          Alcotest.test_case "figure 2 format" `Quick test_profile_figure2_format;
          Alcotest.test_case "parse errors" `Quick test_profile_parse_errors;
          Alcotest.test_case "validate" `Quick test_profile_validate;
          QCheck_alcotest.to_alcotest prop_entries_order;
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          Alcotest.test_case "generated entries order" `Quick
            test_generated_entries_order;
        ] );
      ( "store",
        [
          Alcotest.test_case "round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "replace/delete" `Quick test_store_replace_and_delete;
          Alcotest.test_case "unknown user / bad rows" `Quick
            test_store_unknown_user_and_bad_rows;
          Alcotest.test_case "index = scan after dump" `Quick
            test_store_index_differential;
          Alcotest.test_case "queryable + dumps" `Quick
            test_store_queryable_and_survives_dump;
        ] );
      ( "pgraph",
        [
          Alcotest.test_case "adjacency" `Quick test_pgraph_adjacency;
          Alcotest.test_case "edge order" `Quick test_pgraph_out_edges_merged_order;
          Alcotest.test_case "degree lookup" `Quick test_pgraph_lookup;
          Alcotest.test_case "relations/dot" `Quick test_pgraph_relations_and_dot;
          QCheck_alcotest.to_alcotest prop_pgraph_tied_order;
          Alcotest.test_case "one graph per value" `Quick test_pgraph_lifetime;
          Alcotest.test_case "concurrent first use" `Quick
            test_pgraph_concurrent_first_use;
        ] );
    ]
