(** Query evaluation.

    The executor consumes {e bound} queries (see {!Binder.bind}) and
    produces materialized results.  Two strategies are available:

    - [`Auto] (default): per-table selection pushdown, greedy join
      ordering over the equi-join conjuncts, residual predicates applied
      as soon as their tuple variables are joined.  Each join step picks
      its access path: an unfiltered base table indexed on a join column
      is probed with an index-nested loop; a filtered base table is
      probed the same way, checking its local predicates on each match,
      when |current| × the join column's index fanout is smaller than
      its filtered cardinality, and hash-joined otherwise.  A probe that
      stands in for a hash join emits that hash join's row order, so
      the access path never changes a reply.  For DISTINCT queries
      whose qualification contains disjunctions — the shape the SQ
      integration method produces (paper §6) — the qualification is split
      into DNF branches, each executed as a conjunctive plan over the
      tuple variables it references.  The branches project, one after
      another, straight into the tail (below), whose DISTINCT keeps each
      row's first occurrence across all of them; this is semantically
      equivalent under DISTINCT and avoids the cross-product blow-up a
      naive evaluation of SQ's FROM list would suffer.
      [`Auto] runs MQ (paper §6), ranked or not, in one pass; see
      {!streams_mq} for the shape.  Each partial query's joined view
      streams straight into one table of groups (key, latest partial,
      count, running product of 1 − degree): no partial's rows are
      projected into a list, no derived table is materialized, and
      nothing is grouped twice.  The reply is the generic path's, rows,
      order and degree bits alike, because the pass keeps its order
      contract:
      - the union emits the last partial's rows first (r_K @ … @ r_1),
        and groups come out in first-seen order over those rows;
      - [DEGREE_OF_CONJUNCTION] multiplies (1 − d) over a group's rows
        newest-first, that is partial 1's row first, and skips repeated
        preference ids;
      - ORDER BY is a stable sort.
      It charges and polls the governor as the generic path does (each
      partial's joined rows, a poll per joined row, then the union's
      rows) and crosses the same chaos points.  Every other query,
      every other GROUP BY included, takes the generic path unchanged.
    - [`Naive]: textbook semantics — cross product of the FROM list,
      filter, then the same post-pipeline.  Exponential; used as the test
      oracle on small data.  It materializes MQ's derived table and
      groups it.

    Post-pipeline (both strategies): GROUP BY / aggregates (including
    [DEGREE_OF_CONJUNCTION]) / HAVING, or the plain projection; then the
    tail.  Every query ends in the same tail, whichever path produced
    its rows (grouping, the projection, each DNF branch, MQ's one pass):
    DISTINCT as rows arrive, keeping each row's first occurrence, then a
    stable ORDER BY, then LIMIT. *)

exception Exec_error of string

type result = { cols : string array; rows : Value.t array list }
(** Output column names (SELECT order) and rows. *)

module Row_tbl : Hashtbl.S with type key = Value.t array
(** Hash tables keyed by a whole row, under {!Value.equal} and
    {!Value.hash}: the executor's DISTINCT and GROUP BY tables. *)

val run :
  ?strategy:[ `Auto | `Naive ] ->
  ?gov:Governor.t ->
  Database.t ->
  Sql_ast.query ->
  result
(** Evaluate a bound query.  [?gov] meters this call alone: the batch
    loops check it cooperatively, and row production is charged at every
    operator output (joins, filters, projection).  The projection charges
    the rows it projects once, before DISTINCT or LIMIT drops any: a DNF
    query charges each branch's joined rows, as that branch run alone
    would, and nothing for their union; MQ's one pass charges the union's
    rows, as the generic path does.  The governor is passed down the
    evaluator, not set process-wide, so runs on concurrent threads each
    charge their own governor.
    @raise Governor.Exhausted when the armed budget is exceeded;
    @raise Chaos.Injected under armed fault injection;
    @raise Exec_error on internal violations (which indicate an unbound
    query or an engine bug). *)

val streams_mq : Sql_ast.query -> bool
(** Does [run ~strategy:`Auto] evaluate this bound query in one pass?
    It does for exactly the shape MQ integration ([Integrate.mq]) builds:
    - FROM is one derived UNION ALL of DISTINCT conjunctive partial
      queries (base tables only, no OR, no GROUP BY, HAVING, ORDER BY or
      LIMIT), each projecting the same number of attributes, then a
      constant degree (a finite number) and a constant preference id,
      the ids pairwise distinct;
    - the outer query, neither DISTINCT nor limited and without WHERE,
      groups by exactly the projected attributes, in order;
    - it selects projected attributes, [count( * )] and
      [DEGREE_OF_CONJUNCTION] over the degree and id columns, has no
      HAVING or one comparison of such an aggregate with a constant
      ([count( * ) >= L], [DEGREE_OF_CONJUNCTION > d]), and orders by
      output names only (if at all).
    Anything else falls back to the generic path. *)

val result_equal_bag : result -> result -> bool
(** Bag equality of rows (column names ignored); the test oracle's notion
    of equivalence for unordered queries. *)

val result_equal_list : result -> result -> bool
(** Ordered row-list equality (for ORDER BY tests). *)

val sort_rows : result -> result
(** Rows sorted lexicographically — normalization helper for comparing
    unordered results. *)

val pp_result : ?max_rows:int -> Format.formatter -> result -> unit
(** Column-aligned textual table; prints at most [max_rows] rows
    (default 20) followed by an ellipsis line. *)
