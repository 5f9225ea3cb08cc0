(** Top-N delivery of personalized results with early termination —
    the paper's §8 future-work item "the delivery of top-N results in
    order of the estimated degree of interest", implemented in the spirit
    of Fagin's threshold algorithm over the MQ partial queries.

    MQ executes one partial query per optional preference and ranks rows
    by the conjunctive degree of the preferences they satisfy.  For a
    top-N request it is wasteful to run all K partials: processing them
    in decreasing degree order, after the first [i] partials
    - a row never seen so far can score at most
      [conj(d_{i+1}, …, d_K)] (it can only satisfy the rest), and
    - a seen row's score can rise at most to
      [conj(satisfied ∪ remaining)].
    When the N-th best {e confirmed} score dominates both bounds, the
    remaining partials cannot change the top-N set and execution stops.

    Rows must satisfy at least [l] preferences to qualify (rows below the
    threshold score as unqualified until enough partials have matched
    them, exactly like MQ's [HAVING count( * ) >= L]).

    The partial queries are MQ's own ({!Integrate.partial}), credited
    row by row through {!Integrate.accumulate}; a random-access probe is
    the same partial at LIMIT 1 with the projection pinned to the row.
    The rows come back in {!Integrate.sort_ranked} order. *)

type stats = {
  partials_total : int;
  partials_executed : int;  (** how many partial queries actually ran *)
  rows_tracked : int;  (** distinct candidate rows materialized *)
  random_probes : int;
      (** LIMIT-1 membership probes used to complete the exact scores of
          the top rows after an early stop (Fagin-style random access) *)
}

type result = {
  rows : (Relal.Value.t array * Degree.t) list;
      (** the top rows with their estimated degrees, best first; at most
          [n] entries *)
  stats : stats;
}

val top_n :
  ?l:int ->
  n:int ->
  Relal.Database.t ->
  Qgraph.t ->
  mandatory:Integrate.instantiated list ->
  optional:Integrate.instantiated list ->
  unit ->
  result
(** [top_n ~n db qg ~mandatory ~optional ()] returns the [n] rows of the
    personalized query with the highest degree of interest, executing
    partial queries lazily.  [l] defaults to 1.  The optional list must
    be in decreasing degree order (as produced by {!Select.select} and
    {!Integrate.instantiate}).

    Equivalent to executing the full ranked MQ query and keeping the
    first [n] rows — an equivalence the test suite checks — but
    executing only as many partials as the bounds require. *)
