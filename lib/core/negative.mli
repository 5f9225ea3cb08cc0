(** Negative preferences — dislikes (§8: "extending our model in order to
    encompass more types of preferences, such negative and soft ones").

    A negative preference is stored exactly like a positive one — an
    atomic condition with a degree — but in a separate {e dislike}
    profile, and its degree reads as {e strength of aversion}: 1 means
    "must not have" (a hard veto), smaller values penalize without
    excluding.

    Everything upstream is reused unchanged: dislikes live on their own
    personalization graph, and the {e same} best-first selection
    algorithm extracts the top dislikes relevant to a query (transitive
    composition dampens them along join paths just like interests).
    Integration differs: negative conditions cannot be conjoined into the
    qualification (that would {e require} the disliked property) nor
    simply negated (NOT over a to-many join means "some genre differs",
    not "no genre matches"), so they are evaluated as partial queries
    ({!Integrate.accumulate} over {!Integrate.partial}, likes and
    dislikes each) and combined at ranking time:

    [score(row) = conj(satisfied likes) · (1 − conj(satisfied dislikes))]

    — a row matching dislikes of combined strength 1 is vetoed outright.
    This keeps the model's semantics (conjunctive combination on both
    sides) and needs no new engine machinery. *)

type scored_row = {
  row : Relal.Value.t array;
  positive : Degree.t;  (** conj of satisfied likes *)
  penalty : float;  (** conj of satisfied dislikes; 0 when none *)
  score : float;  (** positive · (1 − penalty) *)
}

val rank :
  ?l:int ->
  Relal.Database.t ->
  Qgraph.t ->
  likes:Integrate.instantiated list ->
  dislikes:Integrate.instantiated list ->
  unit ->
  scored_row list
(** Execute the positive and negative partial queries and return the
    qualifying rows (at least [l] likes satisfied, default 1; penalty
    < 1) ranked by {!scored_row.score} in {!Integrate.sort_ranked}
    order.  With [dislikes = \[\]] this returns MQ's ranked rows and
    degrees. *)

type outcome = {
  liked : Path.t list;  (** selected positive preferences *)
  disliked : Path.t list;  (** selected negative preferences *)
  rows : scored_row list;
}

val personalize :
  ?k:Criteria.t ->
  ?k_neg:Criteria.t ->
  ?l:int ->
  Relal.Database.t ->
  likes:Profile.t ->
  dislikes:Profile.t ->
  Relal.Sql_ast.query ->
  outcome
(** Full pipeline with a dislike profile: select top likes (criterion
    [k], default top 5) and top dislikes ([k_neg], default top 5), then
    {!rank}. *)
