type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | STAR
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | EOF

exception Lex_error of string * int

(* The reserved words recognised as [KW].  A string [match] compiles to
   a search on the word's bytes, with no polymorphic compare per keyword;
   test_sql checks it against a list of the same words. *)
let is_keyword = function
  | "select" | "distinct" | "from" | "where" | "and" | "or" | "not" | "group"
  | "by" | "having" | "order" | "asc" | "desc" | "limit" | "union" | "all"
  | "as" | "true" | "false" | "null" ->
      true
  | _ -> false

let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  (* A digit, or a dot and a digit, starts a number at [j]. *)
  let number_at j =
    j < n && (is_digit s.[j] || (s.[j] = '.' && j + 1 < n && is_digit s.[j + 1]))
  in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if is_blank c then incr i
    else if c = '(' then (emit LPAREN; incr i)
    else if c = ')' then (emit RPAREN; incr i)
    else if c = ',' then (emit COMMA; incr i)
    else if c = '.' && not (number_at !i) then (emit DOT; incr i)
    else if c = '*' then (emit STAR; incr i)
    else if c = '=' then (emit EQ; incr i)
    else if c = '<' then begin
      if !i + 1 < n && s.[!i + 1] = '=' then (emit LE; i := !i + 2)
      else if !i + 1 < n && s.[!i + 1] = '>' then (emit NE; i := !i + 2)
      else (emit LT; incr i)
    end
    else if c = '>' then begin
      if !i + 1 < n && s.[!i + 1] = '=' then (emit GE; i := !i + 2)
      else (emit GT; incr i)
    end
    else if c = '!' && !i + 1 < n && s.[!i + 1] = '=' then (emit NE; i := !i + 2)
    else if c = '\'' then begin
      let buf = Buffer.create 16 in
      let start = !i in
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= n then raise (Lex_error ("unterminated string literal", start));
        if s.[!i] = '\'' then
          if !i + 1 < n && s.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf s.[!i];
          incr i
        end
      done;
      emit (STRING (Buffer.contents buf))
    end
    else if number_at !i || (c = '-' && number_at (!i + 1)) then begin
      (* A sign is read with its digits, so [min_int] reads back. *)
      let start = !i in
      if c = '-' then incr i;
      let is_float = ref false in
      while !i < n && (is_digit s.[!i] || s.[!i] = '.' || s.[!i] = 'e' || s.[!i] = 'E'
                      || ((s.[!i] = '+' || s.[!i] = '-') && !i > start
                          && (s.[!i - 1] = 'e' || s.[!i - 1] = 'E'))) do
        if s.[!i] = '.' || s.[!i] = 'e' || s.[!i] = 'E' then is_float := true;
        incr i
      done;
      let text = String.sub s start (!i - start) in
      if !is_float then
        match float_of_string_opt text with
        (* An overflowing literal such as 1e400 would print back as
           [inf], which re-parses as a column name. *)
        | Some f when Float.is_finite f -> emit (FLOAT f)
        | _ -> raise (Lex_error ("bad numeric literal " ^ text, start))
      else
        match int_of_string_opt text with
        | Some v -> emit (INT v)
        | None -> raise (Lex_error ("bad integer literal " ^ text, start))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      let word = String.lowercase_ascii (String.sub s start (!i - start)) in
      if is_keyword word then emit (KW word) else emit (IDENT word)
    end
    else raise (Lex_error (Printf.sprintf "illegal character %C" c, !i))
  done;
  emit EOF;
  List.rev !toks

let pp_token fmt = function
  | IDENT s -> Format.fprintf fmt "IDENT(%s)" s
  | INT i -> Format.fprintf fmt "INT(%d)" i
  | FLOAT f -> Format.fprintf fmt "FLOAT(%g)" f
  | STRING s -> Format.fprintf fmt "STRING(%s)" s
  | KW s -> Format.fprintf fmt "KW(%s)" s
  | LPAREN -> Format.pp_print_string fmt "("
  | RPAREN -> Format.pp_print_string fmt ")"
  | COMMA -> Format.pp_print_string fmt ","
  | DOT -> Format.pp_print_string fmt "."
  | STAR -> Format.pp_print_string fmt "*"
  | EQ -> Format.pp_print_string fmt "="
  | NE -> Format.pp_print_string fmt "<>"
  | LT -> Format.pp_print_string fmt "<"
  | LE -> Format.pp_print_string fmt "<="
  | GT -> Format.pp_print_string fmt ">"
  | GE -> Format.pp_print_string fmt ">="
  | EOF -> Format.pp_print_string fmt "EOF"
