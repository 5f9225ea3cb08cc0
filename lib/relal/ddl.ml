exception Ddl_error of string

let err fmt = Format.kasprintf (fun s -> raise (Ddl_error s)) fmt

(* Strip "--" comments, then reuse the SQL lexer. *)
let strip_comments s =
  let b = Buffer.create (String.length s) in
  let lines = String.split_on_char '\n' s in
  List.iter
    (fun line ->
      let cut =
        let n = String.length line in
        let rec go i =
          if i + 1 >= n then n
          else if line.[i] = '-' && line.[i + 1] = '-' then i
          else go (i + 1)
        in
        go 0
      in
      Buffer.add_string b (String.sub line 0 cut);
      Buffer.add_char b '\n')
    lines;
  Buffer.contents b

type state = { mutable toks : Sql_lexer.token list }

let peek st = match st.toks with [] -> Sql_lexer.EOF | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let ident st what =
  match peek st with
  | Sql_lexer.IDENT s ->
      advance st;
      s
  | t -> err "expected %s (at %s)" what (Format.asprintf "%a" Sql_lexer.pp_token t)

let expect_ident st word =
  let s = ident st ("keyword " ^ word) in
  if s <> word then err "expected %s, got %s" word s

let expect st tok what = if peek st = tok then advance st else err "expected %s" what

let accept st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

let accept_ident st word =
  match peek st with
  | Sql_lexer.IDENT s when s = word ->
      advance st;
      true
  | _ -> false

let ty_of_name = function
  | "int" | "integer" -> Value.TInt
  | "float" | "real" | "double" -> Value.TFloat
  | "string" | "text" | "varchar" -> Value.TStr
  | "bool" | "boolean" -> Value.TBool
  | "date" -> Value.TDate
  | t -> err "unknown column type %s" t

type coldef = {
  cd_name : string;
  cd_ty : Value.ty;
  cd_pk : bool;
  cd_unique : bool;
  cd_ref : (string * string) option;
}

let parse_coldef st =
  let name = ident st "column name" in
  let ty = ty_of_name (ident st "column type") in
  let pk = ref false and uniq = ref false and reference = ref None in
  let continue_ = ref true in
  while !continue_ do
    if accept_ident st "primary" then begin
      expect_ident st "key";
      pk := true
    end
    else if accept_ident st "unique" then uniq := true
    else if accept_ident st "references" then begin
      let t = ident st "referenced table" in
      expect st Sql_lexer.LPAREN "'('";
      let c = ident st "referenced column" in
      expect st Sql_lexer.RPAREN "')'";
      reference := Some (t, c)
    end
    else continue_ := false
  done;
  { cd_name = name; cd_ty = ty; cd_pk = !pk; cd_unique = !uniq; cd_ref = !reference }

type statement =
  | Create_table of string * coldef list * string list
  | Create_index of string * string

let parse_table st =
  let tname = ident st "table name" in
  expect st Sql_lexer.LPAREN "'('";
  let cols = ref [] in
  let table_pk = ref [] in
  let finished = ref false in
  while not !finished do
    (* Either a table-level primary key or a column definition. *)
    (if accept_ident st "primary" then begin
       expect_ident st "key";
       expect st Sql_lexer.LPAREN "'('";
       let rec keys acc =
         let c = ident st "key column" in
         if accept st Sql_lexer.COMMA then keys (c :: acc) else List.rev (c :: acc)
       in
       table_pk := keys [];
       expect st Sql_lexer.RPAREN "')'"
     end
     else cols := parse_coldef st :: !cols);
    if not (accept st Sql_lexer.COMMA) then begin
      expect st Sql_lexer.RPAREN "')' or ','";
      finished := true
    end
  done;
  Create_table (tname, List.rev !cols, !table_pk)

(* The lexer has no ';', so scripts are pre-split on ';' by
   [parse_deferred]. *)
let parse_statement st =
  expect_ident st "create";
  let stmt =
    if accept_ident st "index" then begin
      expect_ident st "on";
      let t = ident st "table name" in
      expect st Sql_lexer.LPAREN "'('";
      let c = ident st "index column" in
      expect st Sql_lexer.RPAREN "')'";
      Create_index (t, c)
    end
    else begin
      expect_ident st "table";
      parse_table st
    end
  in
  (match peek st with
  | Sql_lexer.EOF -> ()
  | t ->
      let what =
        match stmt with
        | Create_table (t, _, _) -> "table " ^ t
        | Create_index (t, c) -> Printf.sprintf "index on %s (%s)" t c
      in
      err "trailing input after %s (%s)" what
        (Format.asprintf "%a" Sql_lexer.pp_token t));
  stmt

let add_table db fks tname cols table_pk =
  let key =
    if table_pk <> [] then table_pk
    else List.filter_map (fun c -> if c.cd_pk then Some c.cd_name else None) cols
  in
  let unique =
    List.filter_map (fun c -> if c.cd_unique then Some c.cd_name else None) cols
  in
  let schema =
    try
      Schema.make ~name:tname
        ~cols:(List.map (fun c -> (c.cd_name, c.cd_ty)) cols)
        ~key ~unique ()
    with Invalid_argument e -> err "%s" e
  in
  (try Database.add_table db schema with Invalid_argument e -> err "%s" e);
  List.iter
    (fun c ->
      match c.cd_ref with
      | Some (t, rc) -> fks := (tname, c.cd_name, t, rc) :: !fks
      | None -> ())
    cols

let check_index db (t, c) =
  match Database.find_table db t with
  | None -> err "create index: unknown table %s" t
  | Some tbl ->
      if not (Schema.mem_col (Table.schema tbl) c) then
        err "create index: unknown column %s.%s" t c

let parse_deferred text =
  let db = Database.create () in
  let statements =
    String.split_on_char ';' (strip_comments text)
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let fks = ref [] and indexes = ref [] in
  List.iter
    (fun stmt ->
      let toks =
        try Sql_lexer.tokenize stmt
        with Sql_lexer.Lex_error (e, _) -> err "lexical error: %s" e
      in
      match parse_statement { toks } with
      | Create_table (tname, cols, table_pk) -> add_table db fks tname cols table_pk
      | Create_index (t, c) ->
          if not (List.mem (t, c) !indexes) then indexes := (t, c) :: !indexes)
    statements;
  (* Register foreign keys and check index declarations after all tables
     exist, so forward references between statements are legal. *)
  List.iter
    (fun (t1, c1, t2, c2) ->
      try Database.add_fk db ~from_:(t1, c1) ~to_:(t2, c2)
      with Invalid_argument e -> err "%s" e)
    (List.rev !fks);
  let indexes = List.rev !indexes in
  List.iter (check_index db) indexes;
  (db, indexes)

let parse text =
  let db, indexes = parse_deferred text in
  List.iter (fun (t, c) -> Table.build_index (Database.table db t) c) indexes;
  db

let to_string db =
  let b = Buffer.create 512 in
  let fks = Database.fks db in
  List.iter
    (fun t ->
      let s = Table.schema t in
      Buffer.add_string b (Printf.sprintf "create table %s (\n" (Schema.name s));
      let cols = Array.to_list (Schema.columns s) in
      let single_pk = match s.Schema.key with [ k ] -> Some k | _ -> None in
      let col_lines =
        List.map
          (fun c ->
            let name = String.lowercase_ascii c.Schema.cname in
            let fk =
              List.find_opt
                (fun f ->
                  f.Schema.from_table = String.lowercase_ascii (Schema.name s)
                  && f.Schema.from_col = name)
                fks
            in
            Printf.sprintf "  %s %s%s%s%s" name
              (Value.ty_name c.Schema.cty)
              (if single_pk = Some name then " primary key" else "")
              (if List.mem name s.Schema.unique then " unique" else "")
              (match fk with
              | Some f ->
                  Printf.sprintf " references %s(%s)" f.Schema.to_table
                    f.Schema.to_col
              | None -> ""))
          cols
      in
      let constraint_lines =
        match s.Schema.key with
        | [] | [ _ ] -> []
        | ks -> [ Printf.sprintf "  primary key (%s)" (String.concat ", " ks) ]
      in
      Buffer.add_string b (String.concat ",\n" (col_lines @ constraint_lines));
      Buffer.add_string b "\n);\n")
    (Database.tables db);
  List.iter
    (fun t ->
      List.iter
        (fun c ->
          Buffer.add_string b
            (Printf.sprintf "create index on %s (%s);\n"
               (Schema.name (Table.schema t))
               (String.lowercase_ascii c)))
        (Table.indexed_columns t))
    (Database.tables db);
  Buffer.contents b
