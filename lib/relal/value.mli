(** Typed atomic values stored in relations and appearing in queries.

    The engine is dynamically typed at the row level (a row is an array of
    [Value.t]) but statically checked by the binder: every column has a
    declared {!ty} and comparisons must be between compatible types. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of int  (** days encoded as [yyyymmdd]; ordered chronologically *)

type ty = TInt | TFloat | TStr | TBool | TDate

val ty_of : t -> ty option
(** [ty_of v] is [None] for [Null], otherwise the value's type. *)

val ty_name : ty -> string
(** Lower-case SQL-ish name ("int", "float", "string", "bool", "date"). *)

val compatible : ty -> ty -> bool
(** Can values of these types be compared?  Equal types are compatible,
    and so are [TInt]/[TFloat] (numeric widening). *)

val compare : t -> t -> int
(** Total order used by ORDER BY and DISTINCT.  [Null] sorts first;
    numbers compare exactly by the number they stand for, across
    [Int]/[Float] too; NaN sorts below every other number.  Comparing
    other mixed types raises [Invalid_argument] (the binder prevents it
    for well-typed queries).  [compare a b = 0] exactly when [equal a b]. *)

val equal : t -> t -> bool
(** SQL-style equality except that [Null] equals [Null] (the engine uses
    two-valued logic; the personalization framework never relies on
    three-valued NULL semantics).  [Int x] equals [Float y] exactly when
    [y] is an integer in int range and [Float.to_int y = x]; NaN equals
    NaN, [-0.0] equals [0.0]: [equal] is an equivalence relation. *)

val hash : t -> int
(** Equal values hash alike (a float equal to an int as that int). *)

val int_key : t -> int
(** [int_key v] is [k] when [v] equals [Int k] ([Int k] itself, or an
    integral [Float] in int range) and [k > min_int]; [min_int] for every
    other value, [Int min_int] included.  Equal values get equal keys,
    and two values with one key other than [min_int] are equal: indexes
    and joins address int keys by it, and leave the values at [min_int]
    to a hash. *)

val date_of_ymd : int -> int -> int -> t
(** [date_of_ymd y m d] builds a [Date].  @raise Invalid_argument on an
    impossible month/day. *)

val parse_date : string -> t option
(** Accepts ["YYYY-MM-DD"] and the paper's ["D/M/YYYY"] format. *)

val to_string : t -> string
(** SQL literal syntax: strings and dates quoted (a quote inside a string
    doubled), others bare; a float prints as [Printf "%.12g"] with ".0"
    appended when that reads as an integer. *)

val add_to_buffer : Buffer.t -> t -> unit
(** [to_string] written into a buffer. *)

val pp : Format.formatter -> t -> unit
(** Formatter version of {!to_string}. *)
