(** The personalization graph (§3.1).

    A directed graph over the database schema with relation, attribute and
    value nodes; selection edges (attribute → value) and join edges
    (attribute → attribute), labelled with the user's degrees of interest.
    Only edges the user cares about exist — the graph {e is} the profile,
    organised for traversal.

    The representation is adjacency by relation: the preference-selection
    algorithm repeatedly asks "which atomic elements leave relation R?",
    i.e. all selection edges on R's attributes and all join edges whose
    source attribute belongs to R, in decreasing order of degree (the
    order §5.2's expansion step consumes them in).  Only that merged
    list is stored, one per relation; the other readers below derive
    from it.

    The graph lives with the profile value it was built from
    ({!Profile.adjacency}): the first {!of_profile} on a value builds it,
    and every later selection against the same value (a reused
    in-process profile, an LRU-held parsed profile) reads it back.  The
    build is one pass over {!Profile.entries}, already in decreasing
    degree: each edge goes onto the front of its relation's list, runs
    of one degree taken last first, each run's joins before its
    selections.  No partition, sort or merge. *)

type t

val of_profile : Profile.t -> t
(** The profile's graph, built on the first call for this value and
    returned as is (physically the same) afterwards.  Safe to call from
    several threads at once. *)

val out_selections : t -> string -> (Atom.selection * Degree.t) list
(** Selection edges on attributes of the given relation, decreasing
    degree. *)

val out_joins : t -> string -> (Atom.join * Degree.t) list
(** Join edges leaving the given relation, decreasing degree. *)

val out_edges : t -> string -> (Atom.t * Degree.t) list
(** All edges leaving the relation (selections and joins merged),
    decreasing degree — exactly the candidate composable elements for a
    path currently ending at that relation.  Among equal degrees,
    selections come before joins, and each kind is in the reverse of
    {!Profile.entries}' order.  A lookup: no sorting or merging. *)

val join_degree : t -> Atom.join -> Degree.t option
(** Degree of a specific directed join edge, if stored. *)

val selection_degree : t -> Atom.selection -> Degree.t option

val relations : t -> string list
(** Relations with at least one outgoing edge. *)

val edge_count : t -> int

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering (relation boxes, value ovals, degree-labelled
    edges) — Figure 3 of the paper, for documentation and debugging.
    Relations are visited in name order: every selection edge first,
    then every join edge. *)
