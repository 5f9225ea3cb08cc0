(** End-to-end query personalization (§4): the two-phase pipeline
    — preference selection then preference integration — behind one
    call.

    Parameters follow the paper: an interest criterion determining [K]
    (how many top preferences affect the query), a criterion for [M]
    (how many of those are mandatory) and the requirement [L] on the
    remaining [K−M] (a count, or a minimum degree of interest per result
    row).  The {!Context} submodule derives parameter sets from a query
    context (device, desired latency), the §4 discussion. *)

type params = {
  k : Criteria.t;  (** interest criterion bounding the selection *)
  m : [ `Count of int | `Min_degree of float ];
      (** mandatory split; the paper's example: degree = 1 means
          mandatory *)
  l : [ `At_least of int | `Min_doi of float ];
      (** requirement on optional preferences *)
  method_ : [ `SQ | `MQ ];  (** integration approach (§6) *)
  rank : bool;  (** rank results by estimated degree (MQ only) *)
}

val default_params : params
(** K: top 5; M: none; L: at least 1; MQ with ranking — sensible
    interactive defaults. *)

type outcome = {
  selected : Path.t list;  (** [P_K], decreasing degree *)
  mandatory : Integrate.instantiated list;
  optional : Integrate.instantiated list;
  personalized : Relal.Sql_ast.query;
  selection_stats : Select.stats;
}

val integrate_selected :
  ?params:params ->
  Relal.Database.t ->
  Qgraph.t ->
  stats:Select.stats ->
  Path.t list ->
  outcome
(** The integration half of {!personalize}: instantiate the given
    selected paths against the query graph, split mandatory/optional,
    and build the rewritten query.  Exposed so {!Perso_cache} can run
    the pipeline on the query it already bound for its key, and so
    tracing can time integration apart from selection; given equal
    [selected], the resulting [personalized] query is byte-identical to
    a cold {!personalize} run. *)

val personalize :
  ?params:params ->
  ?related:(Path.t -> bool) ->
  ?gov:Relal.Governor.t ->
  Relal.Database.t ->
  Profile.t ->
  Relal.Sql_ast.query ->
  outcome
(** Bind the query, run preference selection against the profile's
    personalization graph, and integrate.  The input query must be a
    conjunctive SPJ query ({!Qgraph.Not_conjunctive} otherwise).
    [related] is the selection algorithm's relatedness filter — pass
    [Semantic.instance_related db qg] for semantic-level selection (the
    facade builds the query graph itself, so the curried form
    [fun p -> Semantic.instance_related db (Qgraph.of_query db q) p]
    with a pre-bound [q] is the usual shape).  [gov] meters the
    best-first selection loop; @raise Relal.Governor.Exhausted when its
    budget runs out. *)

val execute :
  ?strategy:[ `Auto | `Naive | `Cost ] ->
  ?gov:Relal.Governor.t ->
  Relal.Database.t ->
  outcome ->
  Relal.Exec.result
(** Run the personalized query.  With [rank = true] the result carries a
    final [doi] column and rows arrive most-interesting first.  [gov]
    meters execution (see {!Relal.Exec.run}). *)

val personalize_sql :
  ?params:params ->
  Relal.Database.t ->
  Profile.t ->
  string ->
  outcome * Relal.Exec.result
(** Convenience: parse SQL text, personalize, execute. *)

(** {1 Resilient entry points}

    The raising API above fails on the first problem.  The [_r] variants
    instead walk a degradation ladder: full personalization, then halved
    K/L, then the plain unpersonalized query — recording each step taken
    and why — and return a typed {!Error.t} only when even the plain
    query cannot run (or the failure is one degradation cannot fix, such
    as a parse or storage error).  Transient injected faults
    ({!Relal.Chaos}) are retried with bounded backoff at every rung. *)

type degradation =
  | Reduced of { params : params; cause : Error.t }
      (** retried with these weaker parameters because of [cause] *)
  | Unpersonalized of { cause : Error.t }
      (** personalization abandoned; the original query ran plain *)

type run = {
  outcome : outcome option;
      (** [None] when the answer is unpersonalized *)
  result : Relal.Exec.result;
  degradations : degradation list;  (** ladder steps, in order taken *)
}

val halve_params : params -> params
(** One rung down: Top-K halves (min 1), degree thresholds move halfway
    towards 1, the L requirement weakens by half. *)

val personalize_r_with :
  ?params:params ->
  ?budget:Relal.Governor.budget ->
  compute:(params:params -> gov:Relal.Governor.t option -> outcome) ->
  Relal.Database.t ->
  Relal.Sql_ast.query ->
  (run, Error.t) result
(** The degradation ladder generalized over how an outcome is produced:
    [compute] is invoked once per rung with that rung's parameters and
    governor (it may raise; raises are classified and degraded exactly
    as in {!personalize_r}), and the final unpersonalized rung runs [q]
    plain against [db].  This is how {!Perso_cache} reuses the ladder —
    consulting the cache on the full-strength rung — without a
    dependency cycle.  Never raises. *)

val personalize_r :
  ?params:params ->
  ?budget:Relal.Governor.budget ->
  ?related:(Path.t -> bool) ->
  Relal.Database.t ->
  Profile.t ->
  Relal.Sql_ast.query ->
  (run, Error.t) result
(** Personalize and execute under [budget] (each ladder rung gets a
    fresh governor), degrading instead of failing where possible.
    Never raises. *)

val personalize_sql_r :
  ?params:params ->
  ?budget:Relal.Governor.budget ->
  ?related:(Path.t -> bool) ->
  Relal.Database.t ->
  Profile.t ->
  string ->
  (run, Error.t) result
(** {!personalize_r} on SQL text; parse and bind failures are typed
    errors, not exceptions. *)

val degradation_to_string : degradation -> string
(** One-line human description, e.g. ["reduced personalization (K: top
    2, L: 0) after resource exhausted: ..."]. *)

val top_n :
  ?strategy:[ `Auto | `Naive | `Cost ] ->
  n:int ->
  Relal.Database.t ->
  outcome ->
  Relal.Exec.result
(** Top-N delivery in order of estimated degree of interest (§8 future
    work): execute and keep the [n] highest-ranked rows.  Requires an
    outcome produced with [rank = true]. *)

(** Context-driven parameter policies (§4): "if the user sends a request
    using her mobile phone, then the system may decide to consider a few
    top preferences; when the user switches to her computer, then the
    system may decide to consider all her preferences." *)
module Context : sig
  type device = Mobile | Desktop | Voice

  type t = {
    device : device;
    latency_budget_ms : float option;
        (** tighter budgets mean fewer preferences *)
  }

  val params_for : t -> params
  (** Mobile: top 3, L ≥ 1; Desktop: top 10, L ≥ 1; Voice: top 2 with
      min-degree 0.5 (short, high-confidence answers).  A latency budget
      under 50 ms halves K. *)
end
