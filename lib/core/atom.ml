open Relal

type selection = {
  s_rel : string;
  s_att : string;
  s_op : Sql_ast.cmp_op;
  s_val : Value.t;
}

type join = {
  j_from_rel : string;
  j_from_att : string;
  j_to_rel : string;
  j_to_att : string;
}

type t = Sel of selection | Join of join

let lc = String.lowercase_ascii

let sel ?(op = Sql_ast.Eq) rel att v =
  Sel { s_rel = lc rel; s_att = lc att; s_op = op; s_val = v }

let join (r1, a1) (r2, a2) =
  Join { j_from_rel = lc r1; j_from_att = lc a1; j_to_rel = lc r2; j_to_att = lc a2 }

let reverse_join j =
  {
    j_from_rel = j.j_to_rel;
    j_from_att = j.j_to_att;
    j_to_rel = j.j_from_rel;
    j_to_att = j.j_from_att;
  }

let equal a b =
  match (a, b) with
  | Sel s1, Sel s2 ->
      s1.s_rel = s2.s_rel && s1.s_att = s2.s_att && s1.s_op = s2.s_op
      && Value.equal s1.s_val s2.s_val
  | Join j1, Join j2 -> j1 = j2
  | _ -> false

(* [String.compare (Value.to_string (Str a)) (Value.to_string (Str b))]
   without printing: walk both printed literals byte by byte as they
   would be written (each quote doubled, then the closing quote; the
   shared opening quote is skipped).  [da]/[db]: the doubled half of a
   quote is due next.  A stream past its end reads as -1, below every
   byte, so a prefix sorts first as in [String.compare]. *)
let compare_str_literals a b =
  let la = String.length a and lb = String.length b in
  let quote = Char.code '\'' in
  let byte s l i d =
    if d || i = l then quote
    else if i < l then Char.code (String.unsafe_get s i)
    else -1
  in
  let rec go i da j db =
    let ca = byte a la i da and cb = byte b lb j db in
    if ca <> cb then Int.compare ca cb
    else if ca < 0 then 0
    else
      go
        (if da then i else i + 1)
        ((not da) && i < la && ca = quote)
        (if db then j else j + 1)
        ((not db) && j < lb && cb = quote)
  in
  go 0 false 0 false

(* Selection values order by their printed form, so a profile's entry
   order (and everything printed from it) is the text's order. *)
let compare_values v1 v2 =
  match (v1, v2) with
  | Value.Str a, Value.Str b -> compare_str_literals a b
  | _ -> String.compare (Value.to_string v1) (Value.to_string v2)

let compare a b =
  match (a, b) with
  | Sel _, Join _ -> -1
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
          else compare_values s1.s_val s2.s_val
  | Join j1, Join j2 -> Stdlib.compare j1 j2

(* Consistent with [compare]: atoms it orders equal print alike, so a
   selection hashes its value's printed form (only a date prints like
   another constructor's value: the string of its text). *)
let hash = function
  | Join j -> Hashtbl.hash j
  | Sel s -> (
      match s.s_val with
      | Value.Str x -> Hashtbl.hash x
      | Value.Int i -> Hashtbl.hash i
      | Value.Date _ as d ->
          let p = Value.to_string d in
          Hashtbl.hash (String.sub p 1 (String.length p - 2))
      | v -> Hashtbl.hash (Value.to_string v))

let cmp_str = function
  | Sql_ast.Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let to_string = function
  | Sel s ->
      Printf.sprintf "%s.%s %s %s" (String.uppercase_ascii s.s_rel) s.s_att
        (cmp_str s.s_op) (Value.to_string s.s_val)
  | Join j ->
      Printf.sprintf "%s.%s = %s.%s"
        (String.uppercase_ascii j.j_from_rel)
        j.j_from_att
        (String.uppercase_ascii j.j_to_rel)
        j.j_to_att

let pp fmt a = Format.pp_print_string fmt (to_string a)

let validate db t =
  let check_col rel att =
    match Database.find_table db rel with
    | None -> Error (Printf.sprintf "unknown relation %s" rel)
    | Some tbl -> (
        match Schema.col_type (Table.schema tbl) att with
        | None -> Error (Printf.sprintf "unknown attribute %s.%s" rel att)
        | Some ty -> Ok ty)
  in
  match t with
  | Sel s -> (
      match check_col s.s_rel s.s_att with
      | Error e -> Error e
      | Ok ty -> (
          match Value.ty_of s.s_val with
          | None -> Ok () (* NULL comparisons allowed *)
          | Some vty -> (
              if Value.compatible ty vty then Ok ()
              else
                match s.s_val with
                | Value.Str d when ty = Value.TDate ->
                    (* The binder coerces the string, and refuses it if
                       it does not parse. *)
                    if Option.is_some (Value.parse_date d) then Ok ()
                    else
                      Error
                        (Printf.sprintf "selection %s: string %S is not a valid date"
                           (to_string t) d)
                | _ ->
                    Error
                      (Printf.sprintf "selection %s: %s column vs %s value"
                         (to_string t) (Value.ty_name ty) (Value.ty_name vty)))))
  | Join j -> (
      match (check_col j.j_from_rel j.j_from_att, check_col j.j_to_rel j.j_to_att) with
      | Error e, _ | _, Error e -> Error e
      | Ok t1, Ok t2 ->
          if Value.compatible t1 t2 then Ok ()
          else
            Error
              (Printf.sprintf "join %s: %s vs %s" (to_string t) (Value.ty_name t1)
                 (Value.ty_name t2)))

let of_pred = function
  | Sql_ast.P_cmp (op, S_attr a, S_const v) when a.tv <> "" ->
      Ok (Sel { s_rel = a.tv; s_att = a.col; s_op = op; s_val = v })
  | Sql_ast.P_cmp (op, S_const v, S_attr a) when a.tv <> "" ->
      let flip = function
        | Sql_ast.Eq -> Sql_ast.Eq
        | Ne -> Ne
        | Lt -> Gt
        | Le -> Ge
        | Gt -> Lt
        | Ge -> Le
      in
      Ok (Sel { s_rel = a.tv; s_att = a.col; s_op = flip op; s_val = v })
  | Sql_ast.P_cmp (Eq, S_attr a, S_attr b) when a.tv <> "" && b.tv <> "" ->
      Ok
        (Join
           { j_from_rel = a.tv; j_from_att = a.col; j_to_rel = b.tv; j_to_att = b.col })
  | p -> Error ("not an atomic condition: " ^ Relal.Sql_print.pred_to_string p)

type error = Syntax of string | Not_atomic of string

let of_parsed s =
  match Sql_parser.parse_pred s with
  | exception Sql_parser.Parse_error e -> Error (Syntax e)
  | exception Sql_lexer.Lex_error (e, _) -> Error (Syntax e)
  | p -> Result.map_error (fun e -> Not_atomic e) (of_pred p)

(* The grammar [to_string] prints, read in place: [REL.att op literal]
   and [REL.att = REL.att], blanks between tokens as the lexer skips
   them.  Each step takes exactly the token the lexer would, or raises
   [Exit] and leaves the text to the parser: a keyword, a literal on
   the left, parentheses, every error.  Where the lexer would read a
   longer token (a float's [.] or [e] after the digits, a doubled
   quote), bytes are left after the condition, which is [Exit] too. *)
let rec skip s i =
  if i < String.length s && Sql_lexer.is_blank (String.unsafe_get s i) then
    skip s (i + 1)
  else i

(* The lexer's identifier bytes as a table: one load per byte scanned. *)
let ident_byte =
  String.init 256 (fun c -> if Sql_lexer.is_ident_char (Char.chr c) then 'y' else 'n')

(* The end of the identifier at [i]; [i] when none starts there. *)
let ident_end s i =
  let n = String.length s in
  if i < n && Sql_lexer.is_ident_start (String.unsafe_get s i) then begin
    let j = ref (i + 1) in
    while
      !j < n
      && String.unsafe_get ident_byte (Char.code (String.unsafe_get s !j)) = 'y'
    do
      incr j
    done;
    !j
  end
  else i

let lower_sub s i j =
  let b = Bytes.create (j - i) in
  for k = i to j - 1 do
    Bytes.unsafe_set b (k - i) (Char.lowercase_ascii (String.unsafe_get s k))
  done;
  Bytes.unsafe_to_string b

(* The identifier at [i], lower-cased, ending at [j]: a name, never a
   keyword. *)
let name s i j =
  if j = i then raise Exit;
  let w = lower_sub s i j in
  if Sql_lexer.is_keyword w then raise Exit;
  w

(* The start of the column after a relation name ending at [i].  (A
   dot before a digit starts a number to the lexer; no identifier
   starts with a digit, so [name] refuses the column then.) *)
let column_start s i =
  let i = skip s i in
  if i < String.length s && s.[i] = '.' then skip s (i + 1) else raise Exit

let decode s =
  let n = String.length s in
  let i = skip s 0 in
  let j = ident_end s i in
  let rel = name s i j in
  let i = column_start s j in
  let j = ident_end s i in
  let att = name s i j in
  let i = skip s j in
  if i >= n then raise Exit;
  let next = if i + 1 < n then s.[i + 1] else ' ' in
  let op, width =
    match (s.[i], next) with
    | '=', _ -> (Sql_ast.Eq, 1)
    | '<', '=' -> (Le, 2)
    | '<', '>' -> (Ne, 2)
    | '<', _ -> (Lt, 1)
    | '>', '=' -> (Ge, 2)
    | '>', _ -> (Gt, 1)
    | '!', '=' -> (Ne, 2)
    | _ -> raise Exit
  in
  let i = skip s (i + width) in
  if i >= n then raise Exit;
  let stop = ref n in
  let sel v = Sel { s_rel = rel; s_att = att; s_op = op; s_val = v } in
  let atom =
    if s.[i] = '\'' then begin
      match String.index_from_opt s (i + 1) '\'' with
      | Some j ->
          stop := j + 1;
          sel (Value.Str (String.sub s (i + 1) (j - i - 1)))
      | None -> raise Exit
    end
    else if Sql_lexer.is_digit s.[i] then begin
      let j = ref (i + 1) in
      while !j < n && Sql_lexer.is_digit s.[!j] do
        incr j
      done;
      let j = !j in
      stop := j;
      match int_of_string_opt (String.sub s i (j - i)) with
      | Some v -> sel (Value.Int v)
      | None -> raise Exit
    end
    else begin
      let j = ident_end s i in
      if j = i then raise Exit;
      stop := j;
      match lower_sub s i j with
      | "true" -> sel (Value.Bool true)
      | "false" -> sel (Value.Bool false)
      | "null" -> sel Value.Null
      | w when Sql_lexer.is_keyword w || op <> Sql_ast.Eq -> raise Exit
      | to_rel ->
          let i = column_start s j in
          let j = ident_end s i in
          let to_att = name s i j in
          stop := j;
          Join
            { j_from_rel = rel; j_from_att = att; j_to_rel = to_rel; j_to_att = to_att }
    end
  in
  if skip s !stop <> n then raise Exit;
  atom

let of_string s = match decode s with a -> Ok a | exception Exit -> of_parsed s
