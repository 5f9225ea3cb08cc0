(* Unit tests for the storage layer: values, schemas, tables, catalog. *)

open Relal

let v = Helpers.value_testable

(* ------------------------------ Value ------------------------------ *)

let test_value_compare () =
  Alcotest.(check bool) "int order" true (Value.compare (Int 1) (Int 2) < 0);
  Alcotest.(check bool) "mixed numeric" true
    (Value.compare (Int 1) (Float 1.5) < 0);
  Alcotest.(check bool) "numeric equal across types" true
    (Value.compare (Float 2.0) (Int 2) = 0);
  Alcotest.(check bool) "string order" true
    (Value.compare (Str "a") (Str "b") < 0);
  Alcotest.(check bool) "null first" true (Value.compare Null (Int (-100)) < 0);
  Alcotest.(check bool) "date order" true
    (Value.compare (Value.date_of_ymd 2003 7 1) (Value.date_of_ymd 2003 7 2) < 0)

let test_value_compare_incompatible () =
  Alcotest.check_raises "str vs int"
    (Invalid_argument "Value.compare: incompatible values (string, int)")
    (fun () -> ignore (Value.compare (Str "x") (Int 1)))

let test_value_equal () =
  Alcotest.(check bool) "int/float eq" true (Value.equal (Int 3) (Float 3.));
  Alcotest.(check bool) "null eq null" true (Value.equal Null Null);
  Alcotest.(check bool) "null ne int" false (Value.equal Null (Int 0));
  Alcotest.(check bool) "case-sensitive strings" false
    (Value.equal (Str "A") (Str "a"))

let test_value_hash_consistent () =
  Alcotest.(check bool) "equal values hash equal" true
    (Value.hash (Int 3) = Value.hash (Float 3.))

(* Numbers at the edges of exact int/float identity, in both forms where
   the float exists: 2^53 + 1 has no float, 2^62 − 1 none (the float
   rounds up to 2^62, past int range), and the non-integral floats none
   as ints. *)
let numeric_boundaries =
  let p53 = 1 lsl 53 and p50 = 1 lsl 50 in
  let ints =
    [ 0; p50; -p50; 1_000_000_000_000_000 - 1; 1_000_000_000_000_000 + 1; p53; -p53;
      p53 + 1; -p53 - 1; max_int; min_int ]
  in
  List.concat_map (fun i -> [ Value.Int i; Value.Float (Float.of_int i) ]) ints
  @ List.map
      (fun f -> Value.Float f)
      [ -0.0; 0x1p62; -0x1p62; 0.5; -0.5; 1e15 +. 0.5; 2.5; Float.nan; Float.infinity;
        Float.neg_infinity; 0x1p52 +. 0.5 ]

(* [equal] is an equivalence that [hash] and [compare] agree with, on
   every pair and triple of boundary values. *)
let prop_value_identity =
  let arb = QCheck.make ~print:Value.to_string (QCheck.Gen.oneofl numeric_boundaries) in
  QCheck.Test.make ~name:"equal, hash and compare agree on numbers" ~count:2000
    (QCheck.triple arb arb arb) (fun (a, b, c) ->
      let eq = Value.equal in
      (not (eq a b) || Value.hash a = Value.hash b)
      && eq a b = (Value.compare a b = 0)
      && Value.compare a b = -Value.compare b a
      && ((not (eq a b && eq b c)) || eq a c)
      && eq a a)

let test_value_exact_identity () =
  let p53 = 1 lsl 53 in
  Alcotest.(check bool) "2^53 + 1 is not the float 2^53" false
    (Value.equal (Int (p53 + 1)) (Float (Float.of_int p53)));
  Alcotest.(check bool) "2^53 + 1 is above it" true
    (Value.compare (Int (p53 + 1)) (Float (Float.of_int p53)) > 0);
  Alcotest.(check bool) "2^62 - 1 is below the float 2^62" true
    (Value.compare (Int max_int) (Float 0x1p62) < 0);
  Alcotest.(check bool) "-2^62 is the float -2^62" true
    (Value.equal (Int min_int) (Float (-0x1p62)));
  Alcotest.(check bool) "NaN equals NaN" true (Value.equal (Float Float.nan) (Float Float.nan));
  Alcotest.(check bool) "NaN is below every number" true
    (Value.compare (Float Float.nan) (Int min_int) < 0);
  Alcotest.(check bool) "-0.0 is 0" true (Value.equal (Float (-0.0)) (Int 0))

(* An INT column holding 2^50 as an int and as a float: one DISTINCT
   row, and an index on the column changes no reply. *)
let test_value_int_float_rows () =
  let db = Database.create () in
  Database.add_table db (Schema.make ~name:"t" ~cols:[ ("x", Value.TInt) ] ());
  let p50 = 1 lsl 50 in
  Database.insert db "t" [ Value.Int p50 ];
  Database.insert db "t" [ Value.Float (Float.of_int p50) ];
  let rows sql = Helpers.rows_to_list (Helpers.run db sql) in
  Alcotest.(check int) "one DISTINCT row" 1
    (List.length (rows "select distinct t.x from t"));
  let where = "select t.x from t where t.x = 1125899906842624" in
  let scanned = rows where in
  Alcotest.(check int) "both forms match" 2 (List.length scanned);
  Table.build_index (Database.table db "t") "x";
  Alcotest.(check (list (list v))) "same rows through the index" scanned (rows where)

let test_value_dates () =
  Alcotest.(check v) "iso parse" (Value.date_of_ymd 2003 7 2)
    (Option.get (Value.parse_date "2003-07-02"));
  Alcotest.(check v) "paper format parse" (Value.date_of_ymd 2003 7 2)
    (Option.get (Value.parse_date "2/7/2003"));
  Alcotest.(check (option v)) "garbage" None (Value.parse_date "not-a-date");
  Alcotest.(check (option v)) "impossible date" None (Value.parse_date "2003-02-30");
  Alcotest.check_raises "month 13"
    (Invalid_argument "Value.date_of_ymd: month out of range") (fun () ->
      ignore (Value.date_of_ymd 2003 13 1));
  (* Leap years. *)
  Alcotest.(check bool) "2004-02-29 valid" true
    (Value.parse_date "2004-02-29" <> None);
  Alcotest.(check (option v)) "1900-02-29 invalid" None (Value.parse_date "1900-02-29")

let test_value_to_string () =
  Alcotest.(check string) "string quoting" "'O''Hara'" (Value.to_string (Str "O'Hara"));
  Alcotest.(check string) "int" "42" (Value.to_string (Int 42));
  Alcotest.(check string) "float keeps dot" "2.0" (Value.to_string (Float 2.));
  Alcotest.(check string) "date iso" "'2003-07-02'"
    (Value.to_string (Value.date_of_ymd 2003 7 2));
  Alcotest.(check string) "null" "NULL" (Value.to_string Null);
  Alcotest.(check string) "bool" "TRUE" (Value.to_string (Bool true))

(* A date renders as the [Printf] form [Value] had before its digit
   writer, on any int: four-digit years, negative and five-digit ones. *)
let prop_date_rendering =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (3, int_range 0 99_999_999);
          (1, int_range (-99_999_999) (-1));
          (1, int_range 100_000_000 999_999_999);
          (1, oneofl [ 0; 99_999_999; 100_000_000; -1; max_int; min_int ]);
          (1, int);
        ])
  in
  QCheck.Test.make ~name:"dates render as Printf renders them" ~count:2000
    (QCheck.make ~print:string_of_int gen) (fun d ->
      Value.to_string (Date d)
      = Printf.sprintf "'%04d-%02d-%02d'" (d / 10000) (d / 100 mod 100) (d mod 100))

(* ------------------------------ Schema ------------------------------ *)

let movie_schema () =
  Schema.make ~name:"movie"
    ~cols:[ ("mid", Value.TInt); ("title", Value.TStr); ("year", Value.TInt) ]
    ~key:[ "mid" ] ()

let test_schema_basics () =
  let s = movie_schema () in
  Alcotest.(check string) "name" "movie" (Schema.name s);
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check (option int)) "col index" (Some 1) (Schema.col_index s "title");
  Alcotest.(check (option int)) "case-insensitive" (Some 1) (Schema.col_index s "TITLE");
  Alcotest.(check (option int)) "missing col" None (Schema.col_index s "nope");
  Alcotest.(check bool) "mid unique (single pk)" true (Schema.is_unique_col s "mid");
  Alcotest.(check bool) "title not unique" false (Schema.is_unique_col s "title")

let test_schema_composite_key_not_unique () =
  let s =
    Schema.make ~name:"genre"
      ~cols:[ ("mid", Value.TInt); ("genre", Value.TStr) ]
      ~key:[ "mid"; "genre" ] ()
  in
  Alcotest.(check bool) "composite key column not unique alone" false
    (Schema.is_unique_col s "mid")

let test_schema_unique_constraint () =
  let s =
    Schema.make ~name:"u"
      ~cols:[ ("a", Value.TInt); ("b", Value.TStr) ]
      ~key:[ "a" ] ~unique:[ "b" ] ()
  in
  Alcotest.(check bool) "declared unique" true (Schema.is_unique_col s "b")

let test_schema_validation () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.make: duplicate column t.a") (fun () ->
      ignore (Schema.make ~name:"t" ~cols:[ ("a", Value.TInt); ("A", Value.TStr) ] ()));
  Alcotest.check_raises "key not a column"
    (Invalid_argument "Schema.make: key column z not in table t") (fun () ->
      ignore (Schema.make ~name:"t" ~cols:[ ("a", Value.TInt) ] ~key:[ "z" ] ()))

(* ------------------------------ Table ------------------------------ *)

let test_table_insert_scan () =
  let t = Table.create (movie_schema ()) in
  Table.insert_values t [ Int 1; Str "A"; Int 2000 ];
  Table.insert_values t [ Int 2; Str "B"; Int 2001 ];
  Alcotest.(check int) "cardinality" 2 (Table.cardinality t);
  Alcotest.(check v) "get row" (Str "B") (Table.get t 1).(1);
  let sum = Table.fold t ~init:0 ~f:(fun acc r -> acc + match r.(0) with Int i -> i | _ -> 0) in
  Alcotest.(check int) "fold" 3 sum

let test_table_type_checks () =
  let t = Table.create (movie_schema ()) in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.insert: arity 2, expected 3 in movie") (fun () ->
      Table.insert_values t [ Int 1; Str "A" ]);
  Alcotest.check_raises "wrong type"
    (Invalid_argument "Table.insert: movie.title expects string, got int")
    (fun () -> Table.insert_values t [ Int 1; Int 2; Int 3 ]);
  (* Nulls accepted anywhere; int widens into float column but not vice versa. *)
  Table.insert_values t [ Int 1; Null; Int 2000 ];
  Alcotest.(check int) "null ok" 1 (Table.cardinality t)

let test_table_lookup_scan_vs_index () =
  let t = Table.create (movie_schema ()) in
  for i = 0 to 99 do
    Table.insert_values t [ Int i; Str (if i mod 10 = 0 then "round" else "x"); Int i ]
  done;
  let without_index = Table.lookup t "title" (Str "round") in
  Table.build_index t "title";
  let with_index = Table.lookup t "title" (Str "round") in
  Alcotest.(check int) "scan finds 10" 10 (List.length without_index);
  Alcotest.(check int) "index finds same" 10 (List.length with_index);
  (* Index stays in sync with later inserts. *)
  Table.insert_values t [ Int 100; Str "round"; Int 100 ];
  Alcotest.(check int) "index updated" 11 (List.length (Table.lookup t "title" (Str "round")))

let test_table_clear () =
  let t = Table.create (movie_schema ()) in
  Table.build_index t "mid";
  Table.insert_values t [ Int 1; Str "A"; Int 2000 ];
  Table.clear t;
  Alcotest.(check int) "empty" 0 (Table.cardinality t);
  Alcotest.(check int) "index emptied" 0 (List.length (Table.lookup t "mid" (Int 1)))

(* --------------------------- keyed replace -------------------------- *)

let kv_table indexes =
  let t =
    Table.create
      (Schema.make ~name:"kv" ~cols:[ ("k", Value.TInt); ("v", Value.TInt) ] ())
  in
  List.iter (Table.build_index t) indexes;
  t

let kv k v = [| Value.Int k; Value.Int v |]

let kv_rows t =
  List.map
    (function [| Value.Int k; Value.Int v |] -> (k, v) | _ -> (-1, -1))
    (Table.to_list t)

let test_table_replace_in_place () =
  let t = kv_table [ "k" ] in
  List.iter
    (fun (k, v) -> Table.insert t (kv k v))
    [ (1, 10); (2, 20); (1, 11); (3, 30); (1, 12) ];
  let rows () = kv_rows t in
  let pairs = Alcotest.(list (pair int int)) in
  Table.replace t "k" (Value.Int 1) [ kv 1 7; kv 1 8 ];
  Alcotest.(check pairs) "shrink overwrites in place, compacts the rest"
    [ (1, 7); (2, 20); (1, 8); (3, 30) ]
    (rows ());
  Table.replace t "k" (Value.Int 2) [ kv 2 21; kv 2 22 ];
  Alcotest.(check pairs) "grow appends the extra row"
    [ (1, 7); (2, 21); (1, 8); (3, 30); (2, 22) ]
    (rows ());
  Table.replace t "k" (Value.Int 1) [];
  Alcotest.(check pairs) "empty rows delete the key"
    [ (2, 21); (3, 30); (2, 22) ]
    (rows ());
  Alcotest.(check (array int)) "index follows the compaction" [| 0; 2 |]
    (Table.lookup_ids t "k" (Value.Int 2));
  Alcotest.check_raises "rows must carry the key"
    (Invalid_argument "Table.replace: row with kv.k = 3, expected 2")
    (fun () -> Table.replace t "k" (Value.Int 2) [ kv 2 1; kv 3 1 ]);
  Alcotest.(check pairs) "a rejected replace writes nothing"
    [ (2, 21); (3, 30); (2, 22) ]
    (rows ())

(* A bucket's ids as a list, through the probe closure. *)
let bucket_ids t col v =
  match Table.prober t col with
  | None -> Alcotest.failf "no index on %s" col
  | Some probe ->
      let b = probe v in
      Array.to_list (Array.sub b.Table.ids 0 b.Table.len)

(* A shrinking replace whose freed slots hold three different values:
   under a value index, the compaction shrinks three buckets and shifts
   the ids of the others. *)
let test_table_compaction_buckets () =
  let t = kv_table [ "k"; "v" ] in
  List.iter
    (fun (k, v) -> Table.insert t (kv k v))
    [ (1, 0); (2, 0); (1, 1); (3, 1); (1, 2); (2, 2); (1, 0); (3, 2) ];
  Table.replace t "k" (Value.Int 1) [ kv 1 5 ];
  let rows = kv_rows t in
  Alcotest.(check (list (pair int int))) "rows compacted"
    [ (1, 5); (2, 0); (3, 1); (2, 2); (3, 2) ]
    rows;
  List.iter
    (fun (col, proj) ->
      for x = 0 to 5 do
        let scan =
          List.concat
            (List.mapi (fun i r -> if proj r = x then [ i ] else []) rows)
        in
        let what = Printf.sprintf "%s=%d" col x in
        Alcotest.(check (list int)) (what ^ " bucket") scan
          (bucket_ids t col (Value.Int x));
        Alcotest.(check (option int))
          (what ^ " count")
          (Some (List.length scan))
          (Table.count t col (Value.Int x))
      done)
    [ ("k", fst); ("v", snd) ];
  Alcotest.(check (option (float 0.))) "value fanout: 5 rows over 4 values"
    (Some 1.25) (Table.fanout t "v")

(* Model test: random inserts and replaces on a table (k int, v int,
   s string) with no index, or indexes on k, k and v, or k, v and s.  The
   first rows, keys 0..4, are inserted before the indexes are built, so
   that [k] and [v] get a directory; the ops then write keys -3..9 (into
   and out of its span), as ints, as the floats [k.0], as [Null] and as
   2.5, and [s] is a string or [Null].  The model is the exact physical
   order: the key's j-th slot takes the j-th new row (matched by
   [Value.equal]), leftover slots vanish, extra rows go to the end.
   Every probe value, on every column, must find the rows a scan finds,
   in bucket and count alike, and each index's fanout is its rows over
   their distinct keys.  A hook that raises at a chosen crossing must
   leave rows and indexes untouched. *)
type kv_op = Ins of Value.t * int | Rep of Value.t * int list * int option

exception Hook_fault

let show_op = function
  | Ins (k, v) -> Printf.sprintf "ins %s=%d" (Value.to_string k) v
  | Rep (k, vs, f) ->
      Printf.sprintf "rep %s=[%s]%s" (Value.to_string k)
        (String.concat ";" (List.map string_of_int vs))
        (match f with Some i -> Printf.sprintf " fail@%d" i | None -> "")

(* The written keys, and the values every column is probed with. *)
let kv_keys =
  List.concat_map (fun k -> [ Value.Int k; Value.Float (float_of_int k) ]) (List.init 13 (fun k -> k - 3))
  @ [ Value.Null; Value.Float 2.5 ]

let kv_s v = if v mod 4 = 0 then Value.Null else Value.Str (Printf.sprintf "s%d" (v mod 3))
let kvs k v = [| k; Value.Int v; kv_s v |]

let kvs_table () =
  Table.create
    (Schema.make ~name:"kvs"
       ~cols:[ ("k", Value.TInt); ("v", Value.TInt); ("s", Value.TStr) ]
       ())

let model_replace rows k vs =
  let rec go vs = function
    | [] -> List.map (fun v -> (k, v)) vs
    | (k', _) :: tl when Value.equal k' k -> (
        match vs with v :: vs -> (k, v) :: go vs tl | [] -> go [] tl)
    | r :: tl -> r :: go vs tl
  in
  go vs rows

let kv_ops_arb =
  let open QCheck.Gen in
  let key = oneofl kv_keys in
  let op =
    frequency
      [
        (2, map2 (fun k v -> Ins (k, v)) key (int_bound 5));
        ( 3,
          map3
            (fun k vs f -> Rep (k, vs, f))
            key
            (list_size (int_bound 6) (int_bound 5))
            (opt (int_bound 6)) );
      ]
  in
  QCheck.make
    ~print:(fun (variant, init, ops) ->
      Printf.sprintf "variant %d, %d first rows: %s" variant (List.length init)
        (String.concat ", " (List.map show_op ops)))
    (triple (int_bound 3)
       (list_size (int_range 2 12) (pair (int_bound 4) (int_bound 5)))
       (list_size (int_range 1 40) op))

let prop_replace_model =
  QCheck.Test.make ~name:"keyed replace = list model, index = scan" ~count:300
    kv_ops_arb (fun (variant, init, ops) ->
      let cols = [ ("k", fun (k, _) -> k); ("v", fun (_, v) -> Value.Int v); ("s", fun (_, v) -> kv_s v) ] in
      let indexes = List.filteri (fun i _ -> i < variant) (List.map fst cols) in
      let t = kvs_table () in
      let init = List.map (fun (k, v) -> (Value.Int k, v)) init in
      List.iter (fun (k, v) -> Table.insert t (kvs k v)) init;
      List.iter (Table.build_index t) indexes;
      let probe_values col =
        if col = "s" then [ Value.Null; Value.Str "s0"; Value.Str "s1"; Value.Str "s2"; Value.Str "s3" ]
        else kv_keys
      in
      (* Every probe, through the table and by list scan. *)
      let probes () =
        List.concat_map
          (fun (col, _) ->
            List.map (fun x -> Array.to_list (Table.lookup_ids t col x)) (probe_values col))
          cols
      in
      let scan model proj x =
        List.concat
          (List.mapi (fun i r -> if Value.equal (proj r) x then [ i ] else []) model)
      in
      let scans model =
        List.concat_map (fun (col, proj) -> List.map (scan model proj) (probe_values col)) cols
      in
      let check step model =
        if Table.to_list t <> List.map (fun (k, v) -> kvs k v) model then
          QCheck.Test.fail_reportf "%s: rows differ from the model" step;
        if probes () <> scans model then
          QCheck.Test.fail_reportf "%s: lookup_ids differs from a scan" step;
        List.iter
          (fun col ->
            let proj = List.assoc col cols in
            List.iter
              (fun x ->
                let ids = scan model proj x in
                if bucket_ids t col x <> ids then
                  QCheck.Test.fail_reportf "%s: bucket of %s=%s out of order"
                    step col (Value.to_string x);
                if Table.count t col x <> Some (List.length ids) then
                  QCheck.Test.fail_reportf "%s: count of %s=%s is not %d" step
                    col (Value.to_string x) (List.length ids))
              (probe_values col);
            let keys =
              List.fold_left
                (fun acc r ->
                  let x = proj r in
                  if List.exists (Value.equal x) acc then acc else x :: acc)
                [] model
            in
            if
              Table.fanout t col
              <> Some
                   (float_of_int (List.length model)
                   /. float_of_int (max 1 (List.length keys)))
            then QCheck.Test.fail_reportf "%s: fanout of %s" step col)
          indexes
      in
      check "first rows" init;
      ignore
        (List.fold_left
           (fun model op ->
             let step = show_op op in
             let model =
               match op with
               | Ins (k, v) ->
                   Table.insert t (kvs k v);
                   model @ [ (k, v) ]
               | Rep (k, vs, fail_at) -> (
                   let crossings = ref 0 in
                   let hook () =
                     if Some !crossings = fail_at then raise Hook_fault;
                     incr crossings
                   in
                   let before = probes () in
                   match
                     Table.replace ~hook t "k" k (List.map (kvs k) vs)
                   with
                   | () ->
                       if !crossings <> List.length vs then
                         QCheck.Test.fail_reportf "%s: %d hook crossings" step
                           !crossings;
                       model_replace model k vs
                   | exception Hook_fault ->
                       if probes () <> before then
                         QCheck.Test.fail_reportf "%s: a raising hook moved the index" step;
                       model)
             in
             check step model;
             model)
           init ops);
      true)

(* ----------------------------- Database ----------------------------- *)

let test_database_catalog () =
  let db = Moviedb.Movie_schema.create () in
  Alcotest.(check int) "eight tables" 8 (List.length (Database.tables db));
  Alcotest.(check bool) "mem" true (Database.mem_table db "MOVIE");
  Alcotest.(check bool) "not mem" false (Database.mem_table db "nope");
  Alcotest.(check int) "seven fks" 7 (List.length (Database.fks db))

let test_database_duplicate_table () =
  let db = Database.create () in
  Database.add_table db (movie_schema ());
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Database.add_table: duplicate table movie") (fun () ->
      Database.add_table db (movie_schema ()))

let test_database_fk_validation () =
  let db = Database.create () in
  Database.add_table db (movie_schema ());
  Alcotest.(check bool) "unknown table rejected" true
    (try
       Database.add_fk db ~from_:("movie", "mid") ~to_:("nope", "x");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "type mismatch rejected" true
    (try
       Database.add_fk db ~from_:("movie", "title") ~to_:("movie", "mid");
       false
     with Invalid_argument _ -> true)

let test_join_cardinality () =
  let db = Moviedb.Movie_schema.create () in
  (* play.mid -> movie.mid: movie.mid is a single-column key, so to-one. *)
  Alcotest.(check bool) "play->movie to-one" true
    (Database.join_is_to_one db ~from_:("play", "mid") ~to_:("movie", "mid"));
  (* movie.mid -> genre.mid: genre's key is composite, so to-many. *)
  Alcotest.(check bool) "movie->genre to-many" false
    (Database.join_is_to_one db ~from_:("movie", "mid") ~to_:("genre", "mid"));
  Alcotest.(check bool) "movie->directed to-one" true
    (Database.join_is_to_one db ~from_:("movie", "mid") ~to_:("directed", "mid"));
  Alcotest.(check bool) "movie->cast to-many" false
    (Database.join_is_to_one db ~from_:("movie", "mid") ~to_:("cast", "mid"));
  Alcotest.(check bool) "cast->actor to-one" true
    (Database.join_is_to_one db ~from_:("cast", "aid") ~to_:("actor", "aid"))

let () =
  Alcotest.run "relal-core"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "compare incompatible" `Quick test_value_compare_incompatible;
          Alcotest.test_case "equal" `Quick test_value_equal;
          Alcotest.test_case "hash" `Quick test_value_hash_consistent;
          Alcotest.test_case "exact int/float identity" `Quick test_value_exact_identity;
          Alcotest.test_case "int and float rows of one number" `Quick
            test_value_int_float_rows;
          QCheck_alcotest.to_alcotest prop_value_identity;
          Alcotest.test_case "dates" `Quick test_value_dates;
          QCheck_alcotest.to_alcotest prop_date_rendering;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "composite key" `Quick test_schema_composite_key_not_unique;
          Alcotest.test_case "unique constraint" `Quick test_schema_unique_constraint;
          Alcotest.test_case "validation" `Quick test_schema_validation;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert/scan" `Quick test_table_insert_scan;
          Alcotest.test_case "type checks" `Quick test_table_type_checks;
          Alcotest.test_case "lookup scan vs index" `Quick test_table_lookup_scan_vs_index;
          Alcotest.test_case "clear" `Quick test_table_clear;
          Alcotest.test_case "replace in place" `Quick test_table_replace_in_place;
          Alcotest.test_case "compaction shrinks buckets" `Quick
            test_table_compaction_buckets;
          QCheck_alcotest.to_alcotest prop_replace_model;
        ] );
      ( "database",
        [
          Alcotest.test_case "catalog" `Quick test_database_catalog;
          Alcotest.test_case "duplicate table" `Quick test_database_duplicate_table;
          Alcotest.test_case "fk validation" `Quick test_database_fk_validation;
          Alcotest.test_case "join cardinality" `Quick test_join_cardinality;
        ] );
    ]
