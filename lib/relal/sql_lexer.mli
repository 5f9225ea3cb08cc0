(** Tokenizer for the SQL subset.

    Keywords are case-insensitive; identifiers are lower-cased (the whole
    engine is case-insensitive, like the paper's Oracle prototype).
    String literals use single quotes with [''] escaping.  A [-] directly
    before a digit, or before a dot and a digit, is the sign of a numeric
    literal (there is no arithmetic), so every finite number
    {!Value.to_string} prints reads back. *)

type token =
  | IDENT of string  (** lower-cased identifier *)
  | INT of int
  | FLOAT of float
  | STRING of string  (** unescaped contents *)
  | KW of string  (** lower-cased keyword, e.g. "select" *)
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
(** Message and byte offset. *)

val is_keyword : string -> bool
(** A lower-cased word the lexer reads as [KW], not [IDENT]. *)

val is_blank : char -> bool
(** A byte the lexer skips between tokens. *)

val is_ident_start : char -> bool
val is_ident_char : char -> bool
(** The bytes that start and continue an identifier. *)

val is_digit : char -> bool

val tokenize : string -> token list
(** @raise Lex_error on an illegal character, an unterminated string, or
    a numeric literal out of range (an integer past [max_int], a float
    that overflows to infinity). *)

val pp_token : Format.formatter -> token -> unit
