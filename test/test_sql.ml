(* Lexer, parser, printer: unit tests plus a generator-based print→parse
   round-trip property. *)

open Relal

(* ------------------------------ Lexer ------------------------------ *)

let test_lexer_basic () =
  let toks = Sql_lexer.tokenize "SELECT a.b, 'it''s' <> 3.5 <= >= < > != ()" in
  let open Sql_lexer in
  Alcotest.(check int) "token count" 16 (List.length toks);
  Alcotest.(check bool) "keyword lowered" true (List.hd toks = KW "select");
  Alcotest.(check bool) "string unescaped" true
    (List.exists (function STRING "it's" -> true | _ -> false) toks);
  Alcotest.(check bool) "ne from !=" true
    (List.filter (function NE -> true | _ -> false) toks |> List.length = 2)

let test_lexer_numbers () =
  let open Sql_lexer in
  (match tokenize "12 3.5 0.81 1e3" with
  | [ INT 12; FLOAT a; FLOAT b; FLOAT c; EOF ] ->
      Alcotest.(check (float 1e-9)) "3.5" 3.5 a;
      Alcotest.(check (float 1e-9)) "0.81" 0.81 b;
      Alcotest.(check (float 1e-9)) "1e3" 1000. c
  | _ -> Alcotest.fail "unexpected tokenization")

let test_lexer_errors () =
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (Sql_lexer.tokenize "select 'oops");
       false
     with Sql_lexer.Lex_error _ -> true);
  Alcotest.(check bool) "illegal char" true
    (try
       ignore (Sql_lexer.tokenize "select #");
       false
     with Sql_lexer.Lex_error _ -> true);
  (* An overflowing literal would print back as [inf], a column name. *)
  List.iter
    (fun sql ->
      Alcotest.(check bool)
        (Printf.sprintf "non-finite literal in %S" sql)
        true
        (try
           ignore (Sql_parser.parse sql);
           false
         with Sql_lexer.Lex_error _ -> true))
    [
      "select m.title from movie m where m.rating < 1e400";
      "select m.title from movie m where m.rating > 1.5e309";
      "select 99999999999999999999 as n from movie m";
    ]

(* A [-] before a digit is a literal's sign: every finite number the
   printer writes reads back as itself and prints again the same, the
   extremes and negative zero included. *)
let test_lexer_negative_literals () =
  List.iter
    (fun v ->
      let pred = Sql_ast.P_cmp (Eq, S_attr (Sql_ast.attr "a" "x"), S_const v) in
      let printed = Sql_print.pred_to_string pred in
      let parsed = Sql_parser.parse_pred printed in
      Alcotest.(check string) printed printed (Sql_print.pred_to_string parsed);
      match (v, parsed) with
      | Value.Float f, P_cmp (Eq, _, S_const (Value.Float f')) ->
          Alcotest.(check bool) (printed ^ " bit for bit") true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))
      | _, P_cmp (Eq, _, S_const v') ->
          Alcotest.(check bool) (printed ^ " value") true (Value.equal v v')
      | _ -> Alcotest.failf "%s: not a comparison" printed)
    Value.
      [
        Int 0; Int 1; Int (-1); Int min_int; Int max_int; Float 0.; Float 1.;
        Float (-1.); Float (-0.); Float (-1.5); Float (-1e-05); Float (-0.5);
      ];
  let open Sql_lexer in
  (match tokenize "m.year > -5 and -.5 < 1e-5" with
  | [ IDENT "m"; DOT; IDENT "year"; GT; INT (-5); KW "and"; FLOAT a; LT; FLOAT b; EOF ] ->
      Alcotest.(check (float 0.)) "-.5" (-0.5) a;
      Alcotest.(check (float 0.)) "1e-5" 1e-5 b
  | _ -> Alcotest.fail "unexpected tokenization");
  (* a dash before anything else is still no token *)
  List.iter
    (fun text ->
      Alcotest.(check bool) (Printf.sprintf "%S refused" text) true
        (match tokenize text with _ -> false | exception Lex_error _ -> true))
    [ "a - 5"; "-a"; "--5"; "-."; "- .5" ]

(* ------------------------------ Parser ------------------------------ *)

let parse = Sql_parser.parse

let test_parse_simple () =
  let q = parse "select mv.title from movie mv, play pl where mv.mid = pl.mid" in
  Alcotest.(check int) "two from items" 2 (List.length q.Sql_ast.from);
  Alcotest.(check bool) "not distinct" false q.Sql_ast.distinct;
  Alcotest.(check (list string)) "output names" [ "title" ]
    (Sql_ast.select_output_names q)

let test_parse_precedence () =
  let q = parse "select a.x from t a where a.x = 1 and a.y = 2 or a.z = 3" in
  (match q.Sql_ast.where with
  | Sql_ast.P_or [ P_and [ _; _ ]; _ ] -> ()
  | p -> Alcotest.failf "AND should bind tighter: %s" (Sql_print.pred_to_string p));
  let q2 = parse "select a.x from t a where a.x = 1 and (a.y = 2 or a.z = 3)" in
  match q2.Sql_ast.where with
  | Sql_ast.P_and [ _; P_or [ _; _ ] ] -> ()
  | p -> Alcotest.failf "parens respected: %s" (Sql_print.pred_to_string p)

let test_parse_not () =
  let q = parse "select a.x from t a where not a.x = 1" in
  match q.Sql_ast.where with
  | Sql_ast.P_not (P_cmp (Eq, _, _)) -> ()
  | _ -> Alcotest.fail "NOT parsed"

let test_parse_group_having_order () =
  let q =
    parse
      "select t.title, count(*) as n from plays t group by t.title having \
       count(*) >= 2 and min(t.year) > 1990 order by n desc, t.title asc limit 5"
  in
  Alcotest.(check bool) "distinct off" false q.Sql_ast.distinct;
  Alcotest.(check int) "group by one col" 1 (List.length q.Sql_ast.group_by);
  Alcotest.(check bool) "having parsed" true (q.Sql_ast.having <> None);
  Alcotest.(check int) "two order keys" 2 (List.length q.Sql_ast.order_by);
  Alcotest.(check (option int)) "limit" (Some 5) q.Sql_ast.limit

let test_parse_union_all_derived () =
  let q =
    parse
      "select t.title from ((select m.title from movie m) union all (select \
       m.title from movie m where m.year = 2000)) t group by t.title having \
       count(*) >= 2"
  in
  match q.Sql_ast.from with
  | [ Sql_ast.F_derived (C_union_all [ _; _ ], "t") ] -> ()
  | _ -> Alcotest.fail "derived union-all FROM"

let test_parse_doi_aggregate () =
  let q =
    parse
      "select t.title, degree_of_conjunction(t.doi, t.pref) as doi from temp t \
       group by t.title order by doi desc"
  in
  match q.Sql_ast.select with
  | [ _; Sql_ast.Sel_agg (A_doi_conj (a, b), "doi") ] ->
      Alcotest.(check string) "doi col" "doi" a.Sql_ast.col;
      Alcotest.(check string) "pref col" "pref" b.Sql_ast.col
  | _ -> Alcotest.fail "degree_of_conjunction parsed"

let test_parse_const_select_items () =
  let q = parse "select m.title, 0.81 as doi, 3 as pref from movie m" in
  match q.Sql_ast.select with
  | [ Sql_ast.Sel_attr _; Sel_const (Value.Float f, "doi"); Sel_const (Value.Int 3, "pref") ]
    ->
      Alcotest.(check (float 1e-9)) "const float" 0.81 f
  | _ -> Alcotest.fail "const select items"

let test_parse_bare_columns () =
  let q = parse "select title from movie where year = 2000" in
  match q.Sql_ast.select with
  | [ Sql_ast.Sel_attr (a, None) ] -> Alcotest.(check string) "bare tv" "" a.Sql_ast.tv
  | _ -> Alcotest.fail "bare column"

let test_parse_errors () =
  List.iter
    (fun sql ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" sql)
        true
        (try
           ignore (parse sql);
           false
         with Sql_parser.Parse_error _ -> true))
    [
      "select from movie";
      "select m.title from";
      "select m.title from movie m where";
      "select m.title from (select m.title from movie m)";
      (* derived without alias *)
      "select m.title from movie m trailing junk = 1";
      "select m.title from movie m limit x";
    ]

let test_parse_trailing_semicolon () =
  ignore (parse "select m.title from movie m;");
  Alcotest.(check pass) "semicolon tolerated" () ()

(* --------------------------- Print→parse --------------------------- *)

(* Structural equality modulo nothing: the printer must re-parse to the
   exact same AST for bound-style queries. *)
let roundtrip_case name sql =
  Alcotest.test_case name `Quick (fun () ->
      let q = parse sql in
      let printed = Sql_print.query_to_string q in
      let q2 = parse printed in
      if q <> q2 then
        Alcotest.failf "round-trip mismatch:\n%s\n---\n%s" printed
          (Sql_print.query_to_string q2);
      (* Pretty printer must also re-parse. *)
      let q3 = parse (Sql_print.query_to_pretty q) in
      if q <> q3 then Alcotest.failf "pretty round-trip mismatch for %s" name)

let roundtrip_cases =
  [
    roundtrip_case "spj" "select mv.title from movie mv, play pl where mv.mid = pl.mid and pl.date = '2003-07-02'";
    roundtrip_case "distinct or"
      "select distinct mv.title from movie mv, genre gn where mv.mid = gn.mid and (gn.genre = 'comedy' or gn.genre = 'thriller')";
    roundtrip_case "not" "select m.title from movie m where not m.year = 2000";
    roundtrip_case "union having"
      "select t.title from ((select m.title from movie m) union all (select m.title from movie m where m.year = 1999)) t group by t.title having count(*) >= 2";
    roundtrip_case "rank"
      "select t.title as title, degree_of_conjunction(t.doi, t.pref) as doi from ((select m.title as title, 0.81 as doi, 0 as pref from movie m)) t group by t.title order by doi desc";
    roundtrip_case "comparisons"
      "select m.title from movie m where m.year >= 1990 and m.year <= 2000 and m.title <> 'X' and m.year < 2005 and m.year > 1900";
    roundtrip_case "limit" "select m.title from movie m order by m.title asc limit 10";
    roundtrip_case "quoting" "select m.title from movie m where m.title = 'O''Hara''s luck'";
    roundtrip_case "nested bool"
      "select m.title from movie m where (m.year = 1 or m.year = 2) and (m.year = 3 or m.year = 4 and m.title = 'x')";
  ]

(* Generator-based round-trip over random predicate trees. *)
let gen_pred =
  let open QCheck.Gen in
  let attr_g = map2 Sql_ast.attr (oneofl [ "a"; "b" ]) (oneofl [ "x"; "y"; "z" ]) in
  let scalar_g =
    oneof
      [
        map (fun a -> Sql_ast.S_attr a) attr_g;
        map (fun i -> Sql_ast.S_const (Value.Int i)) small_signed_int;
        map (fun s -> Sql_ast.S_const (Value.Str s)) (oneofl [ "v"; "it's"; "" ]);
      ]
  in
  let cmp_g = oneofl [ Sql_ast.Eq; Ne; Lt; Le; Gt; Ge ] in
  let leaf = map3 (fun op a b -> Sql_ast.P_cmp (op, a, b)) cmp_g scalar_g scalar_g in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun p -> Sql_ast.P_not p) (self (n - 1)));
            ( 2,
              map
                (fun ps -> Sql_ast.P_and ps)
                (list_size (2 -- 3) (self (n / 2))) );
            ( 2,
              map
                (fun ps -> Sql_ast.P_or ps)
                (list_size (2 -- 3) (self (n / 2))) );
          ])
    3

let prop_pred_roundtrip =
  QCheck.Test.make ~name:"pred print→parse round-trip" ~count:300
    (QCheck.make gen_pred)
    (fun p ->
      let s = Sql_print.pred_to_string p in
      Sql_parser.parse_pred s = p)

(* ----------------------- Kernels vs. references ----------------------- *)

(* The definitions the one-pass lexer and printers replaced, kept as
   reference implementations: each kernel must agree with its reference
   on every input. *)
module Ref = struct
  open Sql_ast

  (* The reserved words the lexer recognises as [KW]. *)
  let keywords =
    [
      "select"; "distinct"; "from"; "where"; "and"; "or"; "not"; "group"; "by";
      "having"; "order"; "asc"; "desc"; "limit"; "union"; "all"; "as"; "true";
      "false"; "null";
    ]

  let is_keyword w = List.mem (String.lowercase_ascii w) keywords

  let value_to_string = function
    | Value.Null -> "NULL"
    | Int i -> string_of_int i
    | Float f ->
        let s = Printf.sprintf "%.12g" f in
        if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
        then s
        else s ^ ".0"
    | Str s ->
        let buf = Buffer.create (String.length s + 2) in
        Buffer.add_char buf '\'';
        String.iter
          (fun c ->
            if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
          s;
        Buffer.add_char buf '\'';
        Buffer.contents buf
    | Bool b -> if b then "TRUE" else "FALSE"
    | Date d ->
        Printf.sprintf "'%04d-%02d-%02d'" (d / 10000) (d / 100 mod 100) (d mod 100)

  let attr_to_string (a : attr) =
    if a.tv = "" then a.col else a.tv ^ "." ^ a.col

  let cmp_to_string = function
    | Eq -> "="
    | Ne -> "<>"
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">="

  let scalar_to_string = function
    | S_attr a -> attr_to_string a
    | S_const v -> value_to_string v

  (* Precedence: OR(1) < AND(2) < NOT/atom(3).  Parenthesize a child that
     binds looser than its context; children of AND/OR are printed at one
     level above the operator's own so that a directly nested same-operator
     node keeps its parentheses and the parse→print→parse trip is exact
     (the parser would otherwise flatten it). *)
  let rec pred_prec ctx p =
    match p with
    | P_true -> "TRUE"
    | P_false -> "FALSE"
    | P_cmp (op, a, b) ->
        scalar_to_string a ^ " " ^ cmp_to_string op ^ " " ^ scalar_to_string b
    | P_not p -> "NOT " ^ pred_prec 3 p
    | P_and ps ->
        let s = String.concat " and " (List.map (pred_prec 3) ps) in
        if ctx > 2 then "(" ^ s ^ ")" else s
    | P_or ps ->
        let s = String.concat " or " (List.map (pred_prec 2) ps) in
        if ctx > 1 then "(" ^ s ^ ")" else s

  let pred_to_string p = pred_prec 0 p

  let agg_to_string = function
    | A_count_star -> "count(*)"
    | A_count a -> "count(" ^ attr_to_string a ^ ")"
    | A_sum a -> "sum(" ^ attr_to_string a ^ ")"
    | A_min a -> "min(" ^ attr_to_string a ^ ")"
    | A_max a -> "max(" ^ attr_to_string a ^ ")"
    | A_avg a -> "avg(" ^ attr_to_string a ^ ")"
    | A_doi_conj (a, b) ->
        "degree_of_conjunction(" ^ attr_to_string a ^ ", " ^ attr_to_string b ^ ")"

  let hscalar_to_string = function
    | H_agg a -> agg_to_string a
    | H_const v -> value_to_string v

  let rec having_prec ctx h =
    match h with
    | H_cmp (op, a, b) ->
        hscalar_to_string a ^ " " ^ cmp_to_string op ^ " " ^ hscalar_to_string b
    | H_and hs ->
        let s = String.concat " and " (List.map (having_prec 3) hs) in
        if ctx > 2 then "(" ^ s ^ ")" else s
    | H_or hs ->
        let s = String.concat " or " (List.map (having_prec 2) hs) in
        if ctx > 1 then "(" ^ s ^ ")" else s

  let having_to_string h = having_prec 0 h

  let select_item_to_string = function
    | Sel_attr (a, None) -> attr_to_string a
    | Sel_attr (a, Some al) -> attr_to_string a ^ " as " ^ al
    | Sel_const (v, al) -> value_to_string v ^ " as " ^ al
    | Sel_agg (a, al) -> agg_to_string a ^ " as " ^ al

  let order_key_to_string = function
    | O_attr a -> attr_to_string a
    | O_alias s -> s
    | O_agg a -> agg_to_string a

  let rec query_to_string (q : query) =
    let b = Buffer.create 256 in
    Buffer.add_string b "select ";
    if q.distinct then Buffer.add_string b "distinct ";
    Buffer.add_string b
      (String.concat ", " (List.map select_item_to_string q.select));
    Buffer.add_string b " from ";
    Buffer.add_string b (String.concat ", " (List.map from_item_to_string q.from));
    (match q.where with
    | P_true -> ()
    | w ->
        Buffer.add_string b " where ";
        Buffer.add_string b (pred_to_string w));
    (match q.group_by with
    | [] -> ()
    | gs ->
        Buffer.add_string b " group by ";
        Buffer.add_string b (String.concat ", " (List.map attr_to_string gs)));
    (match q.having with
    | None -> ()
    | Some h ->
        Buffer.add_string b " having ";
        Buffer.add_string b (having_to_string h));
    (match q.order_by with
    | [] -> ()
    | os ->
        Buffer.add_string b " order by ";
        Buffer.add_string b
          (String.concat ", "
             (List.map
                (fun (k, d) ->
                  order_key_to_string k ^ match d with Asc -> " asc" | Desc -> " desc")
                os)));
    (match q.limit with
    | None -> ()
    | Some n -> Buffer.add_string b (" limit " ^ string_of_int n));
    Buffer.contents b

  and from_item_to_string = function
    | F_rel r -> if r.alias = r.rel then r.rel else r.rel ^ " " ^ r.alias
    | F_derived (c, alias) -> "(" ^ compound_to_string c ^ ") " ^ alias

  and compound_to_string = function
    | C_single q -> query_to_string q
    | C_union_all cs ->
        String.concat " union all "
          (List.map (fun c -> "(" ^ compound_to_string c ^ ")") cs)

  (* --- pretty (indented) rendering --- *)

  let indent n = String.make (2 * n) ' '

  let rec pretty_query depth (q : query) =
    let b = Buffer.create 512 in
    let pad = indent depth in
    Buffer.add_string b (pad ^ "select ");
    if q.distinct then Buffer.add_string b "distinct ";
    Buffer.add_string b
      (String.concat ", " (List.map select_item_to_string q.select));
    Buffer.add_string b ("\n" ^ pad ^ "from ");
    Buffer.add_string b
      (String.concat (",\n" ^ pad ^ "     ")
         (List.map (pretty_from_item depth) q.from));
    (match q.where with
    | P_true -> ()
    | w -> Buffer.add_string b ("\n" ^ pad ^ "where " ^ pretty_pred depth w));
    (match q.group_by with
    | [] -> ()
    | gs ->
        Buffer.add_string b
          ("\n" ^ pad ^ "group by "
          ^ String.concat ", " (List.map attr_to_string gs)));
    (match q.having with
    | None -> ()
    | Some h -> Buffer.add_string b ("\n" ^ pad ^ "having " ^ having_to_string h));
    (match q.order_by with
    | [] -> ()
    | os ->
        Buffer.add_string b
          ("\n" ^ pad ^ "order by "
          ^ String.concat ", "
              (List.map
                 (fun (k, d) ->
                   order_key_to_string k
                   ^ match d with Asc -> " asc" | Desc -> " desc")
                 os)));
    (match q.limit with
    | None -> ()
    | Some n -> Buffer.add_string b ("\n" ^ pad ^ "limit " ^ string_of_int n));
    Buffer.contents b

  and pretty_from_item depth = function
    | F_rel r -> if r.alias = r.rel then r.rel else r.rel ^ " " ^ r.alias
    | F_derived (c, alias) ->
        "(\n" ^ pretty_compound (depth + 1) c ^ "\n" ^ indent depth ^ ") " ^ alias

  and pretty_compound depth = function
    | C_single q -> pretty_query depth q
    | C_union_all cs ->
        String.concat ("\n" ^ indent depth ^ "union all\n")
          (List.map
             (fun c ->
               indent depth ^ "(\n"
               ^ pretty_compound (depth + 1) c
               ^ "\n" ^ indent depth ^ ")")
             cs)

  and pretty_pred depth p =
    (* Disjunctions of conjunctions (the SQ shape) read better one disjunct
       per line. *)
    match p with
    | P_and ps when List.exists (function P_or _ -> true | _ -> false) ps ->
        String.concat (" and\n" ^ indent depth ^ "      ")
          (List.map
             (function P_or _ as p -> pretty_pred depth p | p -> pred_prec 3 p)
             ps)
    | P_and ps -> String.concat " and " (List.map (pred_prec 3) ps)
    | P_or ps when List.length ps > 1 ->
        "(" ^ String.concat ("\n" ^ indent depth ^ "   or ")
                (List.map (pred_prec 2) ps)
        ^ ")"
    | p -> pred_to_string p

  let query_to_pretty q = pretty_query 0 q
end

(* Identifiers: keywords in random case, near misses of keywords (a
   prefix, a character appended or swapped), and random words. *)
let gen_word =
  let open QCheck.Gen in
  let ident_char =
    oneof [ char_range 'a' 'z'; char_range 'A' 'Z'; char_range '0' '9'; return '_' ]
  in
  let random_case w =
    map
      (fun flips ->
        String.mapi
          (fun i c -> if List.nth flips (i mod 8) then Char.uppercase_ascii c else c)
          w)
      (list_repeat 8 bool)
  in
  let keyword = oneofl Ref.keywords in
  frequency
    [
      (3, keyword >>= random_case);
      ( 2,
        map2 (fun k c -> k ^ String.make 1 c) keyword ident_char >>= random_case );
      ( 2,
        map2
          (fun k n -> String.sub k 0 (max 1 (min n (String.length k - 1))))
          keyword (int_range 1 8) );
      ( 1,
        map3
          (fun k i c ->
            (* never the first character: a digit cannot start a word *)
            let i = 1 + (i mod (String.length k - 1)) in
            String.mapi (fun j x -> if j = i then c else x) k)
          keyword small_nat ident_char );
      ( 2,
        map2
          (fun c rest -> String.make 1 c ^ rest)
          (oneof [ char_range 'a' 'z'; char_range 'A' 'Z'; return '_' ])
          (string_size ~gen:ident_char (int_range 0 10)) );
    ]

let prop_keyword_switch =
  QCheck.Test.make ~name:"keyword switch = List.mem over keywords" ~count:2000
    (QCheck.make ~print:Fun.id gen_word)
    (fun w ->
      let lw = String.lowercase_ascii w in
      let expected =
        if Ref.is_keyword w then Sql_lexer.KW lw else Sql_lexer.IDENT lw
      in
      Sql_lexer.tokenize w = [ expected; Sql_lexer.EOF ])

let gen_float =
  let open QCheck.Gen in
  oneof
    [
      oneofl
        [ Float.nan; Float.neg Float.nan; Float.infinity; Float.neg_infinity;
          0.; -0.; 1.; -1.; 0.5; 1e15; 1e16; -1e16; Float.max_float;
          Float.min_float; Float.epsilon ];
      (* integral floats near 1e15-1e16, where %.12g switches to an exponent *)
      map2
        (fun i frac -> (1e15 *. float_of_int i) +. frac)
        (int_range (-12) 12) (oneofl [ 0.; 0.5; 1.; 999.; 12345. ]);
      (* subnormals *)
      map (fun k -> Float.ldexp 1. (-1022 - k)) (int_range 1 52);
      map (fun x -> Int64.float_of_bits (Int64.of_int x)) (int_range 1 1_000_000);
      map (fun i -> float_of_int i /. 100.) int;
      map Int64.float_of_bits ui64;
    ]

let gen_bytes =
  let open QCheck.Gen in
  string_size
    ~gen:(oneof [ return '\''; char_range '\x80' '\xff'; char_range 'a' 'c'; char ])
    (int_range 0 12)

let gen_value =
  let open QCheck.Gen in
  frequency
    [
      (4, map (fun f -> Value.Float f) gen_float);
      (3, map (fun s -> Value.Str s) gen_bytes);
      (2, map (fun i -> Value.Int i) (oneof [ int; small_signed_int ]));
      (1, map (fun d -> Value.Date d) (oneof [ int_range 0 99991231; int ]));
      (1, map (fun b -> Value.Bool b) bool);
      (1, return Value.Null);
    ]

let prop_value_printer =
  QCheck.Test.make ~name:"Value.to_string / add_to_buffer = sprintf printer"
    ~count:5000
    (QCheck.make ~print:Ref.value_to_string gen_value)
    (fun v ->
      let expected = Ref.value_to_string v in
      let b = Buffer.create 1 in
      Buffer.add_string b "x";
      Value.add_to_buffer b v;
      Value.to_string v = expected && Buffer.contents b = "x" ^ expected)

(* Random whole statements: derived tables, UNION ALL, HAVING, ORDER BY,
   LIMIT, aliases, and float constants anywhere a constant goes. *)
let gen_query =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "t1"; "movie"; "doi" ] in
  let attr_g = map2 Sql_ast.attr (oneofl [ ""; "a"; "t1" ]) (oneofl [ "x"; "title" ]) in
  let scalar_g =
    oneof
      [ map (fun a -> Sql_ast.S_attr a) attr_g; map (fun v -> Sql_ast.S_const v) gen_value ]
  in
  let cmp_g = oneofl [ Sql_ast.Eq; Ne; Lt; Le; Gt; Ge ] in
  let pred_g =
    fix
      (fun self n ->
        let leaf =
          frequency
            [
              (6, map3 (fun op a b -> Sql_ast.P_cmp (op, a, b)) cmp_g scalar_g scalar_g);
              (1, oneofl [ Sql_ast.P_true; P_false ]);
            ]
        in
        if n = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map (fun p -> Sql_ast.P_not p) (self (n - 1)));
              (2, map (fun ps -> Sql_ast.P_and ps) (list_size (0 -- 3) (self (n / 2))));
              (2, map (fun ps -> Sql_ast.P_or ps) (list_size (0 -- 3) (self (n / 2))));
            ])
      3
  in
  let agg_g =
    oneof
      [
        return Sql_ast.A_count_star;
        map (fun a -> Sql_ast.A_count a) attr_g;
        map (fun a -> Sql_ast.A_sum a) attr_g;
        map (fun a -> Sql_ast.A_min a) attr_g;
        map (fun a -> Sql_ast.A_max a) attr_g;
        map (fun a -> Sql_ast.A_avg a) attr_g;
        map2 (fun a b -> Sql_ast.A_doi_conj (a, b)) attr_g attr_g;
      ]
  in
  let hscalar_g =
    oneof [ map (fun a -> Sql_ast.H_agg a) agg_g; map (fun v -> Sql_ast.H_const v) gen_value ]
  in
  let having_g =
    fix
      (fun self n ->
        let leaf = map3 (fun op a b -> Sql_ast.H_cmp (op, a, b)) cmp_g hscalar_g hscalar_g in
        if n = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map (fun hs -> Sql_ast.H_and hs) (list_size (1 -- 3) (self (n / 2))));
              (1, map (fun hs -> Sql_ast.H_or hs) (list_size (1 -- 3) (self (n / 2))));
            ])
      2
  in
  let item_g =
    oneof
      [
        map2 (fun a al -> Sql_ast.Sel_attr (a, al)) attr_g (opt name);
        map2 (fun v al -> Sql_ast.Sel_const (v, al)) gen_value name;
        map2 (fun g al -> Sql_ast.Sel_agg (g, al)) agg_g name;
      ]
  in
  let order_g =
    pair
      (oneof
         [
           map (fun a -> Sql_ast.O_attr a) attr_g;
           map (fun s -> Sql_ast.O_alias s) name;
           map (fun g -> Sql_ast.O_agg g) agg_g;
         ])
      (oneofl [ Sql_ast.Asc; Desc ])
  in
  fix
    (fun self depth ->
      let compound_g =
        fix
          (fun comp n ->
            if n = 0 then map (fun q -> Sql_ast.C_single q) (self (depth - 1))
            else
              frequency
                [
                  (2, map (fun q -> Sql_ast.C_single q) (self (depth - 1)));
                  (1, map (fun cs -> Sql_ast.C_union_all cs) (list_size (2 -- 3) (comp (n - 1))));
                ])
          1
      in
      let from_g =
        if depth = 0 then
          map2 (fun r al -> Sql_ast.F_rel { rel = r; alias = Option.value al ~default:r }) name (opt name)
        else
          frequency
            [
              (2, map2 (fun r al -> Sql_ast.F_rel { rel = r; alias = Option.value al ~default:r }) name (opt name));
              (1, map2 (fun c al -> Sql_ast.F_derived (c, al)) compound_g name);
            ]
      in
      let* distinct = bool in
      let* select = list_size (1 -- 3) item_g in
      let* from = list_size (1 -- 2) from_g in
      let* where = pred_g in
      let* group_by = list_size (0 -- 2) attr_g in
      let* having = opt having_g in
      let* order_by = list_size (0 -- 2) order_g in
      let+ limit = opt small_nat in
      Sql_ast.query ~distinct ~group_by ?having ~order_by ?limit ~select ~from ~where ())
    2

let prop_query_printer =
  QCheck.Test.make ~name:"one-buffer printers = concatenating printers" ~count:1000
    (QCheck.make ~print:Ref.query_to_string gen_query)
    (fun q ->
      let flat = Ref.query_to_string q in
      Sql_print.query_to_string q = flat
      && Sql_print.query_to_key q = flat
      && Sql_print.query_to_pretty q = Ref.query_to_pretty q
      && Sql_print.pred_to_string q.Sql_ast.where = Ref.pred_to_string q.Sql_ast.where
      && Option.map Sql_print.having_to_string q.Sql_ast.having
         = Option.map Ref.having_to_string q.Sql_ast.having)

let () =
  Alcotest.run "sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "negative literals" `Quick test_lexer_negative_literals;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "not" `Quick test_parse_not;
          Alcotest.test_case "group/having/order" `Quick test_parse_group_having_order;
          Alcotest.test_case "union all derived" `Quick test_parse_union_all_derived;
          Alcotest.test_case "doi aggregate" `Quick test_parse_doi_aggregate;
          Alcotest.test_case "const select items" `Quick test_parse_const_select_items;
          Alcotest.test_case "bare columns" `Quick test_parse_bare_columns;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "trailing semicolon" `Quick test_parse_trailing_semicolon;
        ] );
      ("roundtrip", roundtrip_cases @ [ QCheck_alcotest.to_alcotest prop_pred_roundtrip ]);
      ( "kernels",
        List.map QCheck_alcotest.to_alcotest
          [ prop_keyword_switch; prop_value_printer; prop_query_printer ] );
    ]
