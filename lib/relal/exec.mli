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
      its filtered cardinality, and hash-joined otherwise.  The hash
      join builds on the smaller input (the left one on a tie), a
      chained table in two int arrays (a head per slot, a next link per
      build row), and emits probe rows ascending, each with its
      matching build rows descending.  On a single key whose build
      values are all ints ({!Value.int_key}) in a {!Table.dense} span,
      which one pass over them finds out, the slots are the key values:
      a chain holds one key's rows, and a probe reads its slot with no
      hash and no comparison; other build sides, and joins on several
      keys, hash.  The index-nested loop walks each index bucket
      ({!Table.bucket}) from its end: current rows ascending, each with
      its matching base rows descending; it sums the buckets' lengths
      first and writes its output at that size.  A probe
      that stands in for a hash join emits that hash join's row order,
      so the access path never changes a reply.  For DISTINCT queries
      whose qualification contains disjunctions — the shape the SQ
      integration method produces (paper §6) — the qualification is split
      into at most {!max_branches} DNF branches, each executed as a
      conjunctive plan over the tuple variables it references.  The
      branches project, one after another, straight into the tail
      (below), whose DISTINCT keeps each row's first occurrence across
      all of them; this is semantically equivalent under DISTINCT and
      avoids the cross-product blow-up a naive evaluation of SQ's FROM
      list would suffer.
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
      A DISTINCT block whose own WHERE pins its output to constants —
      every attribute the output reads (and, for a DNF branch, every
      ORDER BY attribute) has a conjunct [attr = constant] — has at most
      one distinct row.  Each MQ partial, the generic path's DISTINCT
      blocks without grouping or aggregates, and each DNF branch of
      that shape are therefore evaluated as a depth-first search over
      the join loop's own plan (the same pushdown, [Scan] crossings and
      join order), which stops at the first complete joined row.  Each
      step reaches its candidates through the access path the loop
      would use: an index probe (bucket from its end) where the loop
      runs an index-nested loop; for a filtered table, index probes
      until the probes made × the index fanout reach its filtered
      cardinality, then a hash table on its filtered view; otherwise a
      hash table on the step's input, built once on first arrival
      (chains from their last row); a cartesian step walks its source
      in row order.  So a search that finds nothing does no more work
      than the join.  The row it returns carries the stored values of
      the first complete row it reaches, driving rows in order and each
      step's candidates in its access path's order.  Under a pin,
      stored values equal as values can differ in form ([3] and [3.0]
      in an INT column): the reply carries the form of that first row,
      which can differ from the one [`Naive], following the FROM order,
      keeps.
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

val max_branches : int
(** 4,096: the most DNF branches {!run} splits a DISTINCT disjunction
    into.  A longer one stays a residual filter on one join of the whole
    FROM list, which can take seconds; [Integrate.sq] builds no more. *)

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
    rows, as the generic path does.  A pinned DISTINCT block (above)
    polls once per candidate its search meets, charges each prefix it
    extends by one source's row as one joined row, and crosses a step's
    chaos points when it first reaches the step ([Join_probe] for an
    index, [Join_build] then [Join_probe] for a hash table, none for a
    cartesian step); its one row or none is then charged as the block's
    projection, as a joined view is.  The governor is passed down the
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
