(** Preference integration (§6): build the personalized query.

    Given the original query [Q], the selected preferences [P_K] (in
    decreasing degree order), the number [M] of mandatory preferences and
    the requirement [L] on the remaining [K−M], two equivalent
    constructions are offered:

    - {b SQ} (single query): one qualification — the original one, AND
      the conjunction of the mandatory conditions, AND the disjunction of
      all [C(K−M, L)] conjunctions of [L] optional conditions.
      Conjunctions containing pairwise-conflicting conditions are
      excluded (§6(a)) — never built, since the enumeration prunes a
      prefix at its first conflicting pair; repeated conditions are
      removed; the result uses [SELECT DISTINCT].
    - {b MQ} (multiple queries): one partial query per optional
      preference ([Q] AND mandatory AND that preference, [SELECT
      DISTINCT], plus constant columns [doi] — the preference's degree —
      and [pref] — its index), combined with [UNION ALL] in a derived
      table, grouped by the original projection, kept when
      [count( * ) >= L] — or, alternatively, when
      [DEGREE_OF_CONJUNCTION(doi, pref) > d] — and optionally ranked by
      that aggregate, descending (the paper's result-ranking mechanism).

    Both are built from one shape, the {e partial query} ({!partial}):
    [Q], [SELECT DISTINCT], joined with the tuple variables of the
    mandatory preferences and one optional preference and qualified by
    their conditions; SQ and MQ's degenerate case use the same FROM and
    WHERE construction with a disjunction, or nothing, in place of the
    optional preference.  Repeated conditions and tuple variables are
    removed, and the conflict-free test of §6(a) is one function.  The
    part shared by every query built for one [Q] and mandatory set —
    [Q]'s FROM and conditions with the mandatory ones, repeats removed —
    is built once per {!sq}, {!mq} or {!accumulate} call, so MQ's
    construction is linear in [K − M].

    Tuple variables (§6(b)): each preference path is instantiated once
    with fresh tuple variables; a path prefix whose joins are all to-one
    is shared between paths (sharing is forced there), and variables
    branch at the first to-many join — "as close as possible to the start
    of the paths".

    The §8 extensions run the same partial queries one at a time
    instead of as one MQ query: {!Negative} through {!accumulate},
    which maps each row to the degrees it satisfied, and returns rows in
    {!sort_ranked} order; {!Semantic} probes one at LIMIT 1.  Top-N
    delivery needs neither: it is the prefix of executed ranked MQ
    ({!Personalize.top_n}). *)

type instantiated = {
  path : Path.t;
  index : int;  (** position in [P_K]; the MQ [pref] identifier *)
  pred : Relal.Sql_ast.pred;
      (** the transitive condition over concrete tuple variables *)
  trefs : Relal.Sql_ast.table_ref list;
      (** table refs the condition introduces beyond the query's own *)
}

val instantiate :
  Relal.Database.t -> Qgraph.t -> Path.t list -> instantiated list
(** Allocate tuple variables for each selected path (with forced sharing
    of to-one prefixes) and render its condition.

    Variables are allocated in list order of the paths, and along each
    path in join order.  A new variable over relation [R] is named by the
    first of [b], [b1], [b2], … that is neither a tuple variable of [Q]
    nor allocated earlier in the call, where [b] is the first two letters
    of [R], lower-cased; a join on a to-one prefix already instantiated
    reuses that prefix's variable instead.  The call takes time linear in
    the variables it allocates.

    Each condition is bound over the query's variable it starts from and
    the variables it introduces ({!Relal.Binder.bind_pred_over}): a
    profile atom naming an unknown table or column, comparing unlike
    types or holding an unparsable date raises {!Relal.Binder.Bind_error}
    with the text binding the personalized query would give, and a date
    string becomes a date.  So every query {!sq} and {!mq} build from a
    bound [Q] is bound by construction: it runs as built
    ({!Personalize.execute}), with no second bind. *)

val split_mandatory :
  m:[ `Count of int | `Min_degree of float ] ->
  'a list ->
  ('a -> Degree.t) ->
  'a list * 'a list
(** Split a degree-decreasing preference list into (mandatory, optional):
    [`Count m] takes the top [m]; [`Min_degree d] takes the prefix with
    degree ≥ [d] (e.g. 1.0 for the paper's "degree equal to 1 means
    mandatory" criterion). *)

val sq_max_visits : int
(** 1,000,000: the most steps {!sq}'s enumeration takes, a step being a
    pair of optional preferences its conflict matrix decides (none at
    L < 2) or a prefix it forms.  The matrix holds at most 2 MB; 10{^6}
    steps took 31 ms over 40 preferences at L = 11 (x86-64 Xeon). *)

val sq :
  Relal.Database.t ->
  Qgraph.t ->
  mandatory:instantiated list ->
  optional:instantiated list ->
  l:int ->
  Relal.Sql_ast.query
(** The SQ personalized query.  [l = 0] yields [Q] AND the mandatory
    conditions.  A backtracking walk over the conflict matrix of the
    optional preferences, computed once, extends each conflict-free
    prefix only by a later preference that conflicts with none of its
    members: conflict-free combinations only are built, in the
    lexicographic order of positions.  The optional tuple variables join
    FROM in order of first occurrence over them.  A mandatory pair that
    conflicts makes the qualification [FALSE], and so does an [l] whose
    every combination conflicts (the empty disjunction).
    @raise Qgraph.Not_conjunctive if the projection is not
    attribute-only (the ladder then runs the plain query).
    @raise Invalid_argument if [l] is negative or exceeds the number of
    optional preferences ({!Personalize} clamps it).
    @raise Relal.Governor.Exhausted, typed [Resource_exhausted] by
    {!Error}, when there are more than {!Relal.Exec.max_branches}
    conflict-free conjunctions (the most the executor splits into
    branches; a larger disjunction would run as one residual filter), or
    when the enumeration passes {!sq_max_visits} steps.  The degradation
    ladder then retries under halved K and L, and then runs the plain
    query.  (SQ was refused past 100,000 combinations, conflicting ones
    included; 4,097 and more ran through that residual filter.) *)

val mq :
  ?rank:bool ->
  Relal.Database.t ->
  Qgraph.t ->
  mandatory:instantiated list ->
  optional:instantiated list ->
  l:[ `At_least of int | `Min_doi of float ] ->
  unit ->
  Relal.Sql_ast.query
(** The MQ personalized query.  [rank] (default [true]) adds the
    [DEGREE_OF_CONJUNCTION] output column and the descending ORDER BY.
    With no optional preferences (or [`At_least 0]) the result degrades
    to [Q] AND the mandatory conditions, as in SQ.
    @raise Qgraph.Not_conjunctive as {!sq} does.
    @raise Invalid_argument on an [`At_least] as {!sq} does on [l]. *)

val partial :
  ?select:Relal.Sql_ast.select_item list ->
  ?limit:int ->
  Qgraph.t ->
  mandatory:instantiated list ->
  instantiated ->
  Relal.Sql_ast.query
(** [partial qg ~mandatory inst]: the partial query of [inst] — [Q]
    AND the mandatory conditions AND [inst]'s condition, [SELECT
    DISTINCT], without [Q]'s ORDER BY.  [select] (default: [Q]'s
    projection) replaces the projection, [limit] adds a LIMIT.  MQ's
    branches project [doi] and [pref] through [select]. *)

val dedup_conjuncts : Relal.Sql_ast.pred list -> Relal.Sql_ast.pred list
(** Keep the first of the conditions that print the same
    ({!Relal.Sql_print.pred_to_string}), in order — "any repeated
    conditions are removed" (§6).  Each element is one key: the
    conjuncts of an [AND] element are not compared one by one. *)

(** {2 Ranked evaluation of partial queries} *)

val accumulate :
  Relal.Database.t ->
  Qgraph.t ->
  mandatory:instantiated list ->
  instantiated list ->
  Degree.t list Relal.Exec.Row_tbl.t
(** Run each preference's {!partial} query, in list order, and map
    every row returned to the degrees of the preferences it satisfied,
    the latest first. *)

val sort_ranked :
  score:('a -> float) -> row:('a -> Relal.Value.t array) -> 'a list -> 'a list
(** The ranked order: descending score, ties broken by the row's printed
    values. *)
