(** The Preference Selection algorithm (§5.2, Figure 5).

    Best-first traversal of the personalization graph: a queue of
    candidate paths ordered by decreasing degree of interest (FIFO among
    ties, favouring shorter paths) is seeded with the atomic elements
    adjacent to the query graph; join paths are expanded outward, and
    selection paths are emitted while the interest criterion keeps
    holding.  Pruning follows the paper exactly:

    (i) a candidate expanding into a relation already on its path, or
    into a relation of the query, is a cycle — dropped;
    (ii) candidates conflicting with the query are dropped;
    (iii) semantic relatedness is a client-supplied filter (the prototype,
    like the paper's, works at the syntactic level — pass [?related]);
    (iv) expansion of a join stops at the first composable element whose
    extension fails the criterion (elements are consumed in decreasing
    degree order, so the rest must fail too).

    Theorem 1 (emission in decreasing degree order) and Theorem 2
    (completeness w.r.t. the criterion) hold for prefix-monotone criteria
    and are verified in the test suite against {!Brute}.

    Each step reads a relation's out-edges from the graph stored with
    the profile ({!Pgraph.of_profile}), and tests the criterion in O(1)
    against running aggregates of the selected degrees
    ({!Criteria.admits}), with the same boolean as the list definition
    {!Criteria.accepts}. *)

type stats = {
  mutable pops : int;  (** queue removals *)
  mutable pushes : int;  (** queue insertions (selections + joins) *)
  mutable expansions : int;  (** join paths expanded *)
  mutable discarded_conflicts : int;
  mutable discarded_cycles : int;
  mutable max_queue : int;
}

val fresh_stats : unit -> stats

val select :
  ?stats:stats ->
  ?gov:Relal.Governor.t ->
  ?related:(Path.t -> bool) ->
  Relal.Database.t ->
  Pgraph.t ->
  Qgraph.t ->
  Criteria.t ->
  Path.t list
(** [select db g qg ci] returns the set [P_K] of transitive selections
    related to (and not conflicting with) the query, in decreasing order
    of degree of interest, cut off by the criterion.  [?related] further
    restricts output (e.g. a semantic-level filter); it defaults to
    accepting every syntactically related path.  [?gov] charges one unit
    per frontier expansion and polls the deadline per pop.
    @raise Relal.Governor.Exhausted when the armed budget runs out. *)
