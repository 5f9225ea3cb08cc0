(** Cheap structural byte estimate for cached personalization outcomes.

    Replaces the plan cache's [Obj.reachable_words] accounting (exact
    but a generic heap walk, once ~20% of a patched consult) with a typed
    constructor-priced walk over the outcome.  Sharing-naive by design;
    calibrated to stay within 2× of the exact measure on representative
    outcomes (pinned by the unit test in [test_cache.ml]). *)

val entry_bytes : key:string -> Personalize.outcome -> int
(** Estimated heap bytes of one cache entry: the key string and the
    personalization outcome (selected paths, instantiated-preference
    handles, the personalized query AST, selection stats). *)

val outcome_words : key:string -> Personalize.outcome -> int
(** Same estimate in 64-bit words. *)
