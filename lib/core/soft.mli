(** Soft preferences (§8; §2's "price near $20").

    The paper's stored preferences are {e hard} constraints — satisfied
    or not.  A soft preference targets a {e numeric} attribute and awards
    partial satisfaction by closeness: reaching the attribute through a
    join path (transitively damped, like any preference), a row whose
    value [v] lies within [tolerance] of [target] satisfies the
    preference to degree

    [weight · path_degree · max(0, 1 − |v − target| / tolerance)].

    Soft conditions cannot be integrated as WHERE predicates without
    losing their gradual nature, so — like {!Negative} — they are
    evaluated as partial queries ({!Integrate.partial}) that
    additionally project the target attribute, and their per-row degrees
    join the hard preferences' degrees ({!Integrate.accumulate}) inside
    the usual conjunctive combination [1 − Π(1−dᵢ)] at ranking time.  A row reached several times through a
    to-many path (e.g. several screenings) takes its {e best} closeness. *)

type t = {
  path : Path.t;
      (** join-only path from a query tuple variable to the relation
          holding the attribute (length 0 for a query relation itself) *)
  att : string;  (** numeric attribute of the path's end relation *)
  target : float;
  tolerance : float;  (** > 0; values at distance ≥ tolerance score 0 *)
  weight : Degree.t;  (** interest in a perfectly matching value *)
}

val make :
  path:Path.t ->
  att:string ->
  target:float ->
  tolerance:float ->
  weight:Degree.t ->
  (t, string) result
(** Validates: the path must not end in a selection, tolerance must be
    positive. *)

val closeness : t -> float -> float
(** The closeness kernel [max(0, 1 − |v − target| / tolerance)] alone,
    before weight and path damping. *)

val row_degrees :
  Relal.Database.t -> Qgraph.t -> t -> (Relal.Value.t array * Degree.t) list
(** Execute the soft preference's partial query: each qualifying result
    row of the original query paired with its (best) soft degree; rows
    scoring 0 are omitted. *)

val rank :
  ?l:int ->
  Relal.Database.t ->
  Qgraph.t ->
  likes:Integrate.instantiated list ->
  soft:t list ->
  unit ->
  (Relal.Value.t array * Degree.t) list
(** Ranked rows combining hard likes and soft preferences: a row
    qualifies with at least [l] (default 1) satisfied preferences of
    either kind, and scores the conjunctive combination of all its hard
    degrees and non-zero soft degrees.  Rows come back in
    {!Integrate.sort_ranked} order.  With [soft = \[\]] this returns
    MQ's ranked rows and degrees. *)
