(** Semantic-level relatedness of preferences (§5, §8).

    The paper distinguishes syntactic relatedness (derivable from the
    schema — what {!Select.select} computes) from {e semantic}
    relatedness, which "needs additional knowledge about the data": a
    preference for W. Allen is semantically related to a query about
    comedies only if Allen actually directed comedies; a preference for
    M. Tarkowski is semantically {e conflicting} with that query — if
    conjunctively combined, no results will be returned.  The paper
    leaves the semantic level as future work but designs the selection
    algorithm to accept it as a filter (its [related] hook).

    This module supplies that knowledge from the database instance
    itself: a candidate preference is {e instance-related} to the query
    when the conjunction of the query's qualification and the
    preference's condition is satisfiable on the current data —
    established by a LIMIT-1 probe query.  Semantically conflicting
    preferences (unsatisfiable conjunctions) are exactly the ones the
    probe rejects.

    Syntactically related preferences are a superset of semantically
    related ones, so plugging {!instance_related} into
    [Select.select ~related] only filters the algorithm's output — its
    ordering and completeness guarantees are untouched. *)

val probe_query :
  Relal.Database.t -> Qgraph.t -> Path.t -> Relal.Sql_ast.query
(** The LIMIT-1 satisfiability probe for a candidate preference: the
    FROM and WHERE of its partial query ({!Integrate.partial}, no
    mandatory preferences) — the original qualification with the
    instantiated preference condition added conjunctively — projecting
    a single constant, without DISTINCT or the query's GROUP BY and
    HAVING. *)

val instance_related : Relal.Database.t -> Qgraph.t -> Path.t -> bool
(** [instance_related db qg path]: does any row satisfy the query's
    qualification together with [path]'s condition?  Intended as the
    [related] argument of {!Select.select}. *)
