(** User profiles: atomic preferences with degrees of interest (§3.1).

    A profile is a set of [(atom, degree)] pairs — Figure 2 of the paper.
    Zero-valued preferences are rejected (the paper: "in practice,
    zero-valued preferences are not stored in a user profile").  The same
    schema join may appear twice, once per direction, with different
    degrees.

    Profiles have a line-oriented text format mirroring Figure 2:
    {v
    # Julie
    [ THEATRE.tid = PLAY.tid, 1 ]
    [ GENRE.genre = 'comedy', 0.9 ]
    v}
    Blank lines and [#] comments are ignored.  A line may hold several
    entries, so the lines of {!to_string} joined by spaces (the wire
    form of [PROFILE SAVE]) read back as the same profile.

    A profile value also carries a slot for its personalization graph
    ({!Pgraph}), filled by the first {!Pgraph.of_profile} on that value
    and reused by every later selection against it.  Every function
    that returns a profile returns a value whose slot is empty, so a
    derived profile never sees its parent's graph. *)

type t

val empty : t
(** The slot of this one shared value may be filled, always with the
    empty graph. *)

val of_list : (Atom.t * Degree.t) list -> t
(** @raise Invalid_argument on a duplicate atom or a zero degree. *)

val add : t -> Atom.t -> Degree.t -> t
(** Functional update; replaces the degree if the atom is present.
    @raise Invalid_argument on a zero degree. *)

val remove : t -> Atom.t -> t

val find : t -> Atom.t -> Degree.t option

val equal : t -> t -> bool
(** Semantic equality: the same atoms with equal degrees.  The graph
    slot takes no part; use this, never structural [=], [compare] or
    [Hashtbl.hash], on profiles. *)

val entries : t -> (Atom.t * Degree.t) list
(** In decreasing order of degree (ties: atom order). *)

val selections : t -> (Atom.selection * Degree.t) list
val joins : t -> (Atom.join * Degree.t) list

val size : t -> int
(** Number of atomic {e selections} — the paper's notion of profile size
    in the Figure 6 experiment. *)

val cardinal : t -> int
(** Total number of entries (selections + joins). *)

val union : t -> t -> t
(** Right-biased merge. *)

val validate : Relal.Database.t -> t -> (unit, string list) result
(** Validate every atom against the catalog ({!Atom.validate}); collects
    all errors, in entry order.  A profile that passes binds wherever its
    atoms are integrated: [PROFILE SAVE] refuses one that does not. *)

(** {1 Text format} *)

val to_string : t -> string

val parse_line : string -> ((Atom.t * Degree.t) option, string) result
(** One line of the text format: [None] for a blank or comment line.
    Never raises. *)

val entry_lines : string -> string list
(** Cut a line of entries ("[ a, 0.9 ] [ b, 1 ]") into one {!parse_line}
    line per entry, trimmed and closed with [" ]"].  An entry ends at
    the first [']'] outside a quoted literal, so a literal may hold
    [']'], [','] and [''].  {!of_string} cuts each line with it, and the
    server a [PROFILE SAVE]'s entries. *)

val of_string : string -> (t, string) result
(** Parse the text format; errors carry the offending line. *)

val load : string -> (t, string) result
(** Read a profile file. *)

val save : string -> t -> unit

val pp : Format.formatter -> t -> unit

(** {1 The personalization graph's slot} *)

type adjacency = (string, (Atom.t * Degree.t) list) Hashtbl.t
(** The representation of {!Pgraph.t}: for each relation, every edge
    leaving it, selections and joins merged in the order
    {!Pgraph.out_edges} returns.  Never mutated once stored. *)

val adjacency : t -> build:(t -> adjacency) -> adjacency
(** The graph stored with this value; on the first call, [build t] is
    run and its result published with [Atomic.set].  Threads racing on
    an empty slot may each build (the graphs are equal, the last store
    stays); none blocks and none raises.  Called by {!Pgraph.of_profile}
    only: building waits for the first selection, so loading a profile
    costs nothing extra. *)
