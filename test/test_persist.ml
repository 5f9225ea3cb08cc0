(* Persistence: the DDL subset and CSV storage. *)

open Relal

let tmpdir () = Filename.temp_file "perdb" "" |> fun f -> Sys.remove f; f

(* ------------------------------ DDL ------------------------------- *)

let movie_ddl =
  {|
-- the paper's schema, in DDL form
create table theatre (
  tid int primary key,
  name string,
  phone string,
  region string
);
create table movie (mid int primary key, title string, year int);
create table play (
  tid int references theatre(tid),
  mid int references movie(mid),
  date date,
  primary key (tid, mid, date)
);
create table genre (
  mid int references movie(mid),
  genre string,
  primary key (mid, genre)
);
|}

(* Alcotest has no testable for Value.ty; build one locally. *)
let ty_testable =
  Alcotest.testable
    (fun fmt t -> Format.pp_print_string fmt (Value.ty_name t))
    ( = )

let test_ddl_parse_types () =
  let db = Ddl.parse movie_ddl in
  Alcotest.(check int) "four tables" 4 (List.length (Database.tables db));
  Alcotest.(check int) "three fks" 3 (List.length (Database.fks db));
  Alcotest.(check bool) "movie.mid unique" true
    (Schema.is_unique_col (Table.schema (Database.table db "movie")) "mid");
  Alcotest.(check bool) "genre.mid not unique (composite)" false
    (Schema.is_unique_col (Table.schema (Database.table db "genre")) "mid");
  Alcotest.(check bool) "to-one derived from ddl" true
    (Database.join_is_to_one db ~from_:("play", "mid") ~to_:("movie", "mid"));
  Alcotest.(check (option ty_testable)) "date column type" (Some Value.TDate)
    (Schema.col_type (Table.schema (Database.table db "play")) "date")

let test_ddl_unique_and_aliases () =
  let db =
    Ddl.parse
      "create table u (a integer primary key, b varchar unique, c real, d boolean)"
  in
  let s = Table.schema (Database.table db "u") in
  Alcotest.(check bool) "b unique" true (Schema.is_unique_col s "b");
  Alcotest.(check (option ty_testable)) "varchar -> string" (Some Value.TStr)
    (Schema.col_type s "b");
  Alcotest.(check (option ty_testable)) "real -> float" (Some Value.TFloat)
    (Schema.col_type s "c");
  Alcotest.(check (option ty_testable)) "boolean -> bool" (Some Value.TBool)
    (Schema.col_type s "d")

let test_ddl_errors () =
  let expect_err what text =
    Alcotest.(check bool) what true
      (try
         ignore (Ddl.parse text);
         false
       with Ddl.Ddl_error _ -> true)
  in
  expect_err "unknown type" "create table t (a blob)";
  expect_err "duplicate table" "create table t (a int); create table t (a int)";
  expect_err "bad references" "create table t (a int references missing(x))";
  expect_err "trailing garbage" "create table t (a int) extra";
  expect_err "missing paren" "create table t a int";
  expect_err "duplicate column" "create table t (a int, a string)"

let test_ddl_roundtrip () =
  let db = Moviedb.Movie_schema.create () in
  let text = Ddl.to_string db in
  let db2 = Ddl.parse text in
  Alcotest.(check int) "same table count" (List.length (Database.tables db))
    (List.length (Database.tables db2));
  Alcotest.(check int) "same fk count" (List.length (Database.fks db))
    (List.length (Database.fks db2));
  (* Uniqueness (hence join directions) survives. *)
  List.iter
    (fun (r1, a1, r2, a2) ->
      Alcotest.(check bool)
        (Printf.sprintf "to-one %s.%s->%s.%s preserved" r1 a1 r2 a2)
        (Database.join_is_to_one db ~from_:(r1, a1) ~to_:(r2, a2))
        (Database.join_is_to_one db2 ~from_:(r1, a1) ~to_:(r2, a2)))
    Moviedb.Movie_schema.fk_joins

(* ----------------------- index declarations ----------------------- *)

let small_catalog () = Moviedb.Datagen.(generate (scale ~seed:3 40))

let indexes_of db =
  List.map
    (fun t -> (Schema.name (Table.schema t), Table.indexed_columns t))
    (Database.tables db)

let indexes_testable = Alcotest.(list (pair string (list string)))

let remove_dir dir = ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

let write_dump_dir files =
  let dir = tmpdir () in
  Sys.mkdir dir 0o755;
  List.iter
    (fun (name, text) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          output_string oc text))
    files;
  dir

let test_ddl_index_roundtrip () =
  let db = small_catalog () in
  Alcotest.(check bool) "every column indexed" true
    (List.for_all
       (fun t ->
         List.length (Table.indexed_columns t)
         = Schema.arity (Table.schema t))
       (Database.tables db));
  Alcotest.check indexes_testable "parse (to_string db)" (indexes_of db)
    (indexes_of (Ddl.parse (Ddl.to_string db)));
  let dir = tmpdir () in
  Csv.save_db ~dir db;
  let reloaded = Csv.load_db ~dir in
  remove_dir dir;
  Alcotest.check indexes_testable "save_db / load_db" (indexes_of db)
    (indexes_of reloaded);
  (* the rebuilt indexes answer like the saved ones *)
  let q = "select g.mid from genre g where g.genre = 'comedy'" in
  Alcotest.(check bool) "same rows through the index" true
    (Exec.result_equal_list (Engine.run_sql db q) (Engine.run_sql reloaded q))

let test_ddl_index_partial () =
  let db =
    Ddl.parse
      "create table t (a int, b string, c int);\n\
       create index on T (B);\n\
       create index on t (a)"
  in
  Alcotest.(check (list string)) "declared, in schema order" [ "a"; "b" ]
    (Table.indexed_columns (Database.table db "t"));
  Alcotest.(check string) "printed after the tables"
    "create table t (\n\
    \  a int,\n\
    \  b string,\n\
    \  c int\n\
     );\n\
     create index on t (a);\n\
     create index on t (b);\n"
    (Ddl.to_string db)

let bad_index_ddls =
  [
    ("unknown table", "create table t (a int); create index on nosuch (a)");
    ("unknown column", "create table t (a int); create index on t (nosuch)");
    ("no parentheses", "create table t (a int); create index on t a");
    ("trailing input", "create table t (a int); create index on t (a) extra");
  ]

let test_ddl_index_errors () =
  List.iter
    (fun (what, ddl) ->
      Alcotest.(check bool) (what ^ ": Ddl_error") true
        (match Ddl.parse ddl with
        | _ -> false
        | exception Ddl.Ddl_error _ -> true);
      let dir = write_dump_dir [ ("schema.ddl", ddl); ("t.csv", "a\n1\n") ] in
      let loaded = Csv.load_db_r ~dir in
      remove_dir dir;
      match loaded with
      | Error (Csv.Malformed _) -> ()
      | Error e ->
          Alcotest.failf "%s: expected Malformed, got %s" what
            (Csv.load_error_to_string e)
      | Ok _ -> Alcotest.failf "%s: expected Malformed, loaded" what)
    bad_index_ddls

let test_ddl_index_repeated () =
  let ddl =
    "create table t (a int, b int);\n\
     create index on t (a);\n\
     create index on t (a);\n\
     create index on T (A)"
  in
  let _, decls = Ddl.parse_deferred ddl in
  Alcotest.(check (list (pair string string))) "one declaration" [ ("t", "a") ]
    decls;
  Alcotest.(check (list string)) "one index" [ "a" ]
    (Table.indexed_columns (Database.table (Ddl.parse ddl) "t"));
  let dir = write_dump_dir [ ("schema.ddl", ddl); ("t.csv", "a,b\n1,2\n1,3\n") ] in
  let db = Csv.load_db ~dir in
  remove_dir dir;
  let t = Database.table db "t" in
  Alcotest.(check (list string)) "one index after load" [ "a" ]
    (Table.indexed_columns t);
  Alcotest.(check int) "index answers" 2
    (List.length (Table.lookup t "a" (Value.Int 1)))

let test_ddl_no_index_lines () =
  (* A dump without index lines (hand-written, or from before dumps
     declared them) loads as it always did: only FK columns indexed. *)
  let db = small_catalog () in
  let dir = tmpdir () in
  Csv.save_db ~dir db;
  let ddl_path = Filename.concat dir "schema.ddl" in
  let ddl = In_channel.with_open_bin ddl_path In_channel.input_all in
  let stripped =
    String.split_on_char '\n' ddl
    |> List.filter (fun l -> not (String.starts_with ~prefix:"create index" l))
    |> String.concat "\n"
  in
  Alcotest.(check bool) "the dump declared indexes" true (stripped <> ddl);
  Sys.remove (Filename.concat dir Csv.manifest_file);
  Out_channel.with_open_bin ddl_path (fun oc -> output_string oc stripped);
  let loaded = Csv.load_db ~dir in
  remove_dir dir;
  let fk_cols t =
    let name = String.lowercase_ascii (Schema.name (Table.schema t)) in
    let ends =
      List.concat_map
        (fun (fk : Schema.fk) ->
          (if fk.from_table = name then [ fk.from_col ] else [])
          @ if fk.to_table = name then [ fk.to_col ] else [])
        (Database.fks db)
    in
    Array.to_list (Schema.columns (Table.schema t))
    |> List.filter_map (fun c ->
           if List.mem (String.lowercase_ascii c.Schema.cname) ends then
             Some c.Schema.cname
           else None)
  in
  Alcotest.check indexes_testable "exactly the FK columns"
    (List.map
       (fun t -> (Schema.name (Table.schema t), fk_cols t))
       (Database.tables loaded))
    (indexes_of loaded)

(* ------------------------------ CSV ------------------------------- *)

let test_csv_table_roundtrip () =
  let schema =
    Schema.make ~name:"t"
      ~cols:
        [
          ("i", Value.TInt); ("f", Value.TFloat); ("s", Value.TStr);
          ("b", Value.TBool); ("d", Value.TDate);
        ]
      ()
  in
  let t = Table.create schema in
  Table.insert_values t
    [ Value.Int 1; Value.Float 2.5; Value.Str "plain"; Value.Bool true;
      Value.date_of_ymd 2003 7 2 ];
  Table.insert_values t
    [ Value.Int (-7); Value.Float 1e-9; Value.Str "comma, \"quote\"\nnewline";
      Value.Bool false; Value.Null ];
  Table.insert_values t
    [ Value.Null; Value.Null; Value.Str ""; Value.Null; Value.Null ];
  let text = Csv.table_to_string t in
  let t2 = Csv.table_of_string schema text in
  Alcotest.(check int) "row count" (Table.cardinality t) (Table.cardinality t2);
  for i = 0 to Table.cardinality t - 1 do
    let r1 = Table.get t i and r2 = Table.get t2 i in
    Array.iteri
      (fun j v ->
        Alcotest.(check Helpers.value_testable)
          (Printf.sprintf "row %d col %d" i j)
          v r2.(j))
      r1
  done

let test_csv_null_vs_empty_string () =
  let schema = Schema.make ~name:"t" ~cols:[ ("s", Value.TStr) ] () in
  let t = Table.create schema in
  Table.insert_values t [ Value.Str "" ];
  Table.insert_values t [ Value.Null ];
  let t2 = Csv.table_of_string schema (Csv.table_to_string t) in
  Alcotest.(check Helpers.value_testable) "empty string" (Value.Str "") (Table.get t2 0).(0);
  Alcotest.(check Helpers.value_testable) "null" Value.Null (Table.get t2 1).(0)

let test_csv_errors () =
  let schema = Schema.make ~name:"t" ~cols:[ ("i", Value.TInt) ] () in
  let expect_err what text =
    Alcotest.(check bool) what true
      (try
         ignore (Csv.table_of_string schema text);
         false
       with Csv.Csv_error _ -> true)
  in
  expect_err "header mismatch" "wrong\n1\n";
  expect_err "bad int" "i\nnotanint\n";
  expect_err "arity" "i\n1,2\n";
  expect_err "unterminated quote" "i\n\"1\n"

(* The messages the two-pass parser gave for the "errors" cases above,
   byte for byte, plus the row-numbering cases. *)
let test_csv_error_messages () =
  let one = Schema.make ~name:"t" ~cols:[ ("i", Value.TInt) ] () in
  let two =
    Schema.make ~name:"t" ~cols:[ ("i", Value.TInt); ("s", Value.TStr) ] ()
  in
  let message schema text =
    match Csv.table_of_string schema text with
    | _ -> "loaded"
    | exception Csv.Csv_error e -> e
  in
  List.iter
    (fun (schema, text, want) ->
      Alcotest.(check string) (String.escaped text) want (message schema text))
    [
      (one, "wrong\n1\n", "header mismatch for t: expected i, got wrong");
      (one, "i\nnotanint\n", "row 2 of t, column i: bad int field \"notanint\"");
      (one, "i\n1,2\n", "row 2 of t has 2 fields, expected 1");
      (one, "i\n\"1\n", "unterminated quoted field");
      (one, "", "missing header line");
      (one, "\n", "header mismatch for t: expected i, got ");
      (two, "i,s\n1\n", "row 2 of t has 1 fields, expected 2");
      (two, "i,s\nx,a\n", "row 2 of t, column i: bad int field \"x\"");
      (two, "i,s\n1,\"a\n", "unterminated quoted field");
      (two, "i,s\n1,\"a\nb\"\nx\n", "row 3 of t has 1 fields, expected 2");
    ]

let test_db_roundtrip_on_disk () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "perdb_csv_test" in
  let db = Moviedb.Personas.tiny_db () in
  Csv.save_db ~dir db;
  let db2 = Csv.load_db ~dir in
  (* Same cardinalities... *)
  List.iter
    (fun t ->
      let name = Schema.name (Table.schema t) in
      Alcotest.(check int) (name ^ " cardinality") (Table.cardinality t)
        (Table.cardinality (Database.table db2 name)))
    (Database.tables db);
  (* ... and the same query answers, including through the whole
     personalization pipeline. *)
  let q = "select m.title from movie m, directed d, director r where m.mid = d.mid and d.did = r.did and r.name = 'W. Allen'" in
  Alcotest.(check bool) "same query answers" true
    (Exec.result_equal_bag (Engine.run_sql db q) (Engine.run_sql db2 q));
  let outcome, res =
    Perso.Personalize.personalize_sql db2 (Moviedb.Personas.julie ())
      "select mv.title from movie mv, play pl where mv.mid = pl.mid and pl.date = '2/7/2003'"
  in
  Alcotest.(check bool) "personalization works on loaded db" true
    (outcome.Perso.Personalize.selected <> [] && res.Exec.rows <> [])

(* ------------------------ revisions in memory ---------------------- *)

let test_revisions_not_dumped () =
  (* Revisions live in the registry of one catalog in one process: a
     save writes no revision relation, so a dump carries the profiles
     alone and a reloaded catalog counts from 0.  Nothing a revision
     keys (plan-cache and parsed-profile LRU entries) outlives the
     process; a durable store records its own marks. *)
  let db = Moviedb.Personas.tiny_db () in
  Perso.Profile_store.save db ~user:"julie" (Moviedb.Personas.julie ());
  Perso.Profile_store.save db ~user:"julie" (Moviedb.Personas.rob ());
  Alcotest.(check int) "julie at 2" 2
    (Perso.Profile_store.revision db ~user:"julie");
  let dir = tmpdir () in
  Csv.save_db ~dir db;
  let db2 = Csv.load_db ~dir in
  Alcotest.(check (list string))
    "the dump holds no revision relation" []
    (List.filter
       (fun t -> not (Database.mem_table db (Schema.name (Table.schema t))))
       (Database.tables db2)
    |> List.map (fun t -> Schema.name (Table.schema t)));
  Alcotest.(check (list (pair string int)))
    "a reload starts without marks" [] (Perso.Profile_store.revisions db2);
  Alcotest.(check bool) "the profile survives" true
    (match Perso.Profile_store.load db2 ~user:"julie" with
    | Ok p -> Perso.Profile.equal p (Moviedb.Personas.rob ())
    | Error _ -> false)

(* Randomized CSV round-trip over generated tables of every type. *)
let prop_csv_roundtrip =
  let gen_value ty =
    let open QCheck.Gen in
    match ty with
    | Value.TInt -> map (fun i -> Value.Int i) small_signed_int
    | Value.TFloat -> map (fun f -> Value.Float f) (float_range (-1e6) 1e6)
    | Value.TBool -> map (fun b -> Value.Bool b) bool
    | Value.TDate ->
        map2
          (fun m d -> Value.date_of_ymd 2003 (1 + (m mod 12)) (1 + (d mod 28)))
          small_nat small_nat
    | Value.TStr ->
        oneof
          [
            map (fun s -> Value.Str s) (string_size ~gen:printable (0 -- 12));
            oneofl
              [
                Value.Str ""; Value.Str "a,b"; Value.Str "say \"hi\"";
                Value.Str "line\nbreak"; Value.Null;
              ];
          ]
  in
  let tys = [| Value.TInt; Value.TFloat; Value.TStr; Value.TBool; Value.TDate |] in
  let gen_table =
    let open QCheck.Gen in
    list_size (0 -- 20)
      (map (fun xs -> xs) (flatten_l (List.map gen_value (Array.to_list tys))))
  in
  QCheck.Test.make ~name:"CSV round-trip on random tables" ~count:100
    (QCheck.make gen_table)
    (fun rows ->
      let schema =
        Schema.make ~name:"t"
          ~cols:(Array.to_list (Array.mapi (fun i ty -> (Printf.sprintf "c%d" i, ty)) tys))
          ()
      in
      let t = Table.create schema in
      List.iter (fun r -> Table.insert t (Array.of_list r)) rows;
      let t2 = Csv.table_of_string schema (Csv.table_to_string t) in
      Table.cardinality t = Table.cardinality t2
      && List.for_all2
           (fun a b -> List.for_all2 Value.equal a b)
           (List.map Array.to_list (Table.to_list t))
           (List.map Array.to_list (Table.to_list t2)))

(* Rows over all five types, NULL in any column, strings drawn from
   the characters CSV has to escape: the scanner returns them exactly. *)
let prop_csv_roundtrip_hostile =
  let open QCheck.Gen in
  let str =
    string_size ~gen:(oneofl [ 'a'; 'Z'; ' '; ','; '"'; '\r'; '\n' ]) (0 -- 8)
  in
  let nullable g = frequency [ (1, return Value.Null); (5, g) ] in
  let gen_row =
    flatten_l
      [
        nullable (map (fun i -> Value.Int i) int);
        nullable
          (map
             (fun f -> Value.Float (if Float.is_finite f then f else 0.5))
             float);
        nullable (map (fun s -> Value.Str s) str);
        nullable (map (fun b -> Value.Bool b) bool);
        nullable
          (map3
             (fun y m d -> Value.date_of_ymd y m d)
             (1000 -- 9999) (1 -- 12) (1 -- 28));
      ]
  in
  let schema =
    Schema.make ~name:"t"
      ~cols:
        [
          ("i", Value.TInt); ("f", Value.TFloat); ("s", Value.TStr);
          ("b", Value.TBool); ("d", Value.TDate);
        ]
      ()
  in
  let print rows =
    String.concat "\n"
      (List.map (fun r -> String.concat ", " (List.map Value.to_string r)) rows)
  in
  QCheck.Test.make ~name:"CSV round-trip, hostile strings and NULLs"
    ~count:300
    (QCheck.make ~print (list_size (0 -- 12) gen_row))
    (fun rows ->
      let t = Table.create schema in
      List.iter (fun r -> Table.insert t (Array.of_list r)) rows;
      let back = Csv.table_of_string schema (Csv.table_to_string t) in
      let same a b = Value.equal a b && Value.ty_of a = Value.ty_of b in
      List.equal (List.equal same) rows
        (List.map Array.to_list (Table.to_list back)))

let () =
  ignore tmpdir;
  Alcotest.run "persist"
    [
      ( "ddl",
        [
          Alcotest.test_case "parse types" `Quick test_ddl_parse_types;
          Alcotest.test_case "unique/aliases" `Quick test_ddl_unique_and_aliases;
          Alcotest.test_case "errors" `Quick test_ddl_errors;
          Alcotest.test_case "round-trip" `Quick test_ddl_roundtrip;
          Alcotest.test_case "index round-trip" `Quick test_ddl_index_roundtrip;
          Alcotest.test_case "index declarations" `Quick test_ddl_index_partial;
          Alcotest.test_case "index errors" `Quick test_ddl_index_errors;
          Alcotest.test_case "repeated index" `Quick test_ddl_index_repeated;
          Alcotest.test_case "no index lines: FK only" `Quick
            test_ddl_no_index_lines;
        ] );
      ( "revisions",
        [ Alcotest.test_case "not dumped" `Quick test_revisions_not_dumped ] );
      ( "csv",
        [
          Alcotest.test_case "table round-trip" `Quick test_csv_table_roundtrip;
          Alcotest.test_case "null vs empty" `Quick test_csv_null_vs_empty_string;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "error messages" `Quick test_csv_error_messages;
          Alcotest.test_case "db round-trip on disk" `Quick test_db_roundtrip_on_disk;
          QCheck_alcotest.to_alcotest prop_csv_roundtrip;
          QCheck_alcotest.to_alcotest prop_csv_roundtrip_hostile;
        ] );
    ]
