(** Differential and metamorphic oracles over the personalization core.

    Differential (the paper's theorems, at ~10× the scale of the unit
    suite): Theorem 1 — {!Perso.Select} emits paths in decreasing
    degree order; Theorem 2 — for prefix-monotone criteria its output
    matches the brute-force enumerator {!Perso.Brute} degree-for-degree.

    Metamorphic (no ground truth needed, only relations between runs):
    {ul
    {- {b raise-rank}: raising the degree of a selected preference
       never demotes that preference's best path in the emission order;}
    {- {b K-prefix}: enlarging Top-K only appends — [top_r k] is a
       prefix of [top_r k'] for [k < k'];}
    {- {b delete-unselected}: removing a preference that contributed no
       top-K path leaves the top-K unchanged (as multisets of
       (condition, degree));}
    {- {b subset}: with every preference optional and "at least one"
       required, personalized answers are a sub-multiset of the plain
       query's answers;}
    {- {b cache}: the same (profile-edit, query) sequence driven cold
       and through the plan cache yields byte-identical personalized SQL
       and result rows, repeat consults are served as cache hits, and
       the first consult after an edit recomputes ({!cache_checks}).}} *)

type check = { name : string; ok : bool; detail : string }

type report = {
  cases : int;
  movies : int;
  selections : int;
  checks : check list;  (** in deterministic order *)
}

val run :
  ?movies:int -> ?selections:int -> ?cases:int -> seed:int -> unit -> report
(** Default scale: [movies = 1200], [selections = 120] — 10× the
    setting of [test_select.ml] — over [cases = 2] generated
    (database, profile, query) triples derived from [seed]. *)

val cache_checks :
  movies:int -> selections:int -> int -> string -> check list
(** [cache_checks ~movies ~selections seed tag]: the plan-cache
    relation alone, at a scale reduced from the given one (each step
    costs a cold pipeline, two cache consults and three executions).
    Drives a seeded single-preference edit sequence — adds, removals,
    retunes, the occasional join retune — through {!Perso.Perso_cache},
    saving each edit to {!Perso.Profile_store} (the invalidation
    signal), and checks byte-identical personalized SQL and rows
    against cold runs, [Hit] service on repeat consults, and a [Miss]
    on the first consult after every effective save (the
    ["cache-exercised"] check, whose detail reads
    ["recomputed=R edits=E over N steps"]).  Exposed separately so the
    unit suite can sweep it across many seeds. *)

val all_ok : report -> bool
val failures : report -> check list
