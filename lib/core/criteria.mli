(** Interest criteria (§5.1, Table 1).

    A criterion [CI] decides how many top preferences are selected: the
    algorithm keeps admitting the next-best candidate [P] while
    [CI(PK ∪ {P})] holds.  The four expressions of Table 1:

    - [Top_r r] — at most [r] preferences ([t <= r]);
    - [Above d] — only preferences with degree of interest greater than
      [d] ([d_t > d]);
    - [Disj_above d] — preferences whose {e disjunction} has degree
      greater than [d] ([(d_1+…+d_t)/t > d]);
    - [Conj_above d] — preferences whose {e conjunction} has degree
      greater than [d] ([1 − Π(1−d_i) > d]).

    The best-first algorithm's early-stop argument requires the criterion
    to be {e prefix-monotone} over degree-decreasing sequences: once it
    fails it must keep failing.  The first three expressions are; the
    conjunctive one is monotone in the {e opposite} direction (adding
    preferences only raises the conjunction degree), so under the
    algorithm's stop rule it acts as an all-or-nothing gate on the first
    candidate.  {!prefix_monotone} reports which regime a criterion is
    in; the property is exercised in tests. *)

type t =
  | Top_r of int
  | Above of Degree.t
  | Disj_above of Degree.t
  | Conj_above of Degree.t

val top_r : int -> t
(** @raise Invalid_argument if negative. *)

val above : float -> t
val disj_above : float -> t
val conj_above : float -> t

val holds : t -> Degree.t list -> bool
(** [holds c degrees] — evaluate [CI] on a set of selected preferences
    given as their degrees in decreasing order. *)

val accepts : t -> current:Degree.t list -> Degree.t -> bool
(** [accepts c ~current d] = [holds c (current @ [d])]: would admitting a
    candidate with degree [d] keep the criterion satisfied?  [current]
    must be the degrees already selected, decreasing. *)

(** {1 Running aggregates}

    {!Select.select} tests every popped candidate, and every extension
    it prunes, against the preferences selected so far.  Building
    [current @ [d]] for each test costs O(K); an {!acc} keeps the
    selected degrees' count, sum and product of [(1 − dᵢ)] instead, so
    each test is O(1). *)

type acc

val acc_empty : acc
(** No preference selected. *)

val acc_push : acc -> Degree.t -> acc
(** One more selected degree; push them in selection (decreasing)
    order. *)

val admits : t -> acc -> Degree.t -> bool
(** [admits c a d = accepts c ~current d] when [a] is {!acc_empty}
    pushed with [current] in order — the same boolean bit for bit, since
    the sum is folded left to right from [0.] and the product from [1.]
    exactly as {!Degree.disj} and {!Degree.conj} fold, then closed over
    [d] as [(sum + d) / (n + 1)] and [1 − prod·(1 − d)]. *)

val prefix_monotone : t -> bool
(** Whether failure is permanent along a degree-decreasing sequence. *)

val expansion_prunable : t -> bool
(** Whether the algorithm's expansion-time pruning (§5.2 rule (iv)) is
    sound for this criterion.  Rule (iv) rejects a candidate extension by
    evaluating [CI] against the preferences selected {e so far}; that
    rejection is only permanent when the criterion cannot start accepting
    again as the selected set grows.  [Top_r] (the count only grows) and
    [Above] (depends on the candidate alone) qualify; [Disj_above] does
    not — the running average {e rises} as more high-degree preferences
    are selected, so a candidate rejected during expansion may become
    acceptable by the time it would pop (the paper's Theorem 2 implicitly
    assumes this away).  For non-prunable criteria {!Select.select} skips
    rule (iv) and relies on pop-time checks, which are always sound. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
