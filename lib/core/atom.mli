(** Atomic query elements — the vocabulary of stored preferences (§3.1).

    An atomic user preference attaches a degree of interest to either:
    - an {b atomic selection}: an (equality, in the paper's scope)
      condition between a relation's attribute and a value, e.g.
      [GENRE.genre = 'comedy'];
    - an {b atomic join}: a {e directed} equality between two relation
      attributes, e.g. [MOVIE.mid = PLAY.mid].  Direction matters: the
      left side names the relation already present in a query, so the
      same schema join may be stored twice with different degrees, once
      per direction (Figure 2, rows 3–4).

    Atoms are schema-level objects (relation names, not tuple variables);
    the integration step instantiates them with tuple variables. *)

type selection = {
  s_rel : string;  (** relation name *)
  s_att : string;  (** attribute name *)
  s_op : Relal.Sql_ast.cmp_op;  (** [Eq] throughout the paper's scope *)
  s_val : Relal.Value.t;
}

type join = {
  j_from_rel : string;
  j_from_att : string;
  j_to_rel : string;
  j_to_att : string;
}
(** Directed: [j_from_rel] is the side assumed already in the query. *)

type t = Sel of selection | Join of join

val sel :
  ?op:Relal.Sql_ast.cmp_op -> string -> string -> Relal.Value.t -> t
(** [sel "genre" "genre" (Str "comedy")]; [op] defaults to [Eq].
    Names are lower-cased. *)

val join : string * string -> string * string -> t
(** [join ("movie","mid") ("play","mid")] is the directed join
    MOVIE.mid=PLAY.mid (movie side already in the query). *)

val reverse_join : join -> join
(** The opposite direction. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val validate : Relal.Database.t -> t -> (unit, string) result
(** Check the atom against a catalog: relations and attributes exist,
    selection value type-compatible with the column (a string against a
    date column must parse as a date, as {!Relal.Binder} requires), join
    ends type-compatible. *)

val hash : t -> int
(** Consistent with {!compare}: atoms it orders equal hash alike. *)

val to_string : t -> string
(** SQL-condition syntax: [GENRE.genre = 'comedy'],
    [MOVIE.mid = PLAY.mid]. *)

val pp : Format.formatter -> t -> unit

val of_pred : Relal.Sql_ast.pred -> (t, string) result
(** Interpret a single comparison predicate (with relation names in tuple
    variable position) as an atom — the profile text format's reader.
    Attribute-vs-constant becomes [Sel]; attribute-vs-attribute becomes a
    [Join] directed left-to-right. *)

type error =
  | Syntax of string  (** the lexer's or the parser's message *)
  | Not_atomic of string  (** {!of_pred}'s message *)

val of_string : string -> (t, error) result
(** Decode condition text: on every input, the atom or error of
    [of_pred (Sql_parser.parse_pred s)], with the parser's exceptions
    as [Syntax].  Never raises.  The grammar {!to_string} prints
    ([REL.att op literal], [REL.att = REL.att]) is read in place, one
    pass over the bytes with no token list; any other text (a float, a
    doubled quote, a literal on the left, parentheses, keywords, every
    error) goes to the parser.  The profile readers
    ({!Profile.parse_line}, {!Profile_store.load}) decode with it. *)
