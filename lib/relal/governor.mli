(** Query governor: cooperative resource budgets for query evaluation.

    A {!budget} bounds a single request — a wall-clock deadline, a cap on
    rows produced by the executor (intermediate join/filter output plus
    final projection), and a cap on best-first expansions in preference
    selection.  Arming a budget with {!start} yields a governor that the
    executor's batch loops and the selection frontier loop feed with
    cheap cooperative checks ({!poll}, {!add_rows}, {!add_expansion});
    when any bound is crossed the governor raises {!Exhausted} carrying
    partial-progress statistics, so callers get "what was done so far"
    instead of a query that runs forever.

    The result-returning entry points ({!Perso.Personalize}'s [_r]
    functions) translate {!Exhausted} into the typed
    [Resource_exhausted] error; the degradation ladder retries under
    smaller personalization parameters before giving up. *)

type budget = {
  deadline_ms : float option;  (** wall-clock limit from {!start} *)
  max_rows : int option;  (** rows produced across operators *)
  max_expansions : int option;  (** best-first expansions in selection *)
}

val unlimited : budget
(** No bounds; a governor over it never raises. *)

val is_unlimited : budget -> bool

type progress = {
  exhausted : string;  (** which bound tripped: "deadline" | "rows" | "expansions" (empty in a snapshot) *)
  rows_produced : int;
  expansions : int;
  elapsed_ms : float;
}

exception Exhausted of progress

type t
(** An armed budget: start time plus mutable counters. *)

val start : budget -> t
(** Arm a budget now.  The deadline clock starts here. *)

val set_clock : (unit -> float) -> unit
(** Replace the process-wide clock (seconds, [Unix.gettimeofday]-like)
    that governors arm and poll against.  Deterministic simulation sets
    a virtual clock here so deadlines inside the whole engine trip on
    simulated time; restore with [set_clock real_clock] afterwards. *)

val real_clock : unit -> float
(** The default wall clock ([Unix.gettimeofday]). *)

val poll : t -> unit
(** Cooperative check; reads the clock every 64th call.
    @raise Exhausted past the deadline. *)

val add_rows : t -> int -> unit
(** Record [n] rows produced, then check bounds.  A batch-sized [n]
    (>= the poll stride) checks the deadline immediately rather than on
    the amortized stride — a single call can announce a huge product
    about to be materialized.
    @raise Exhausted over [max_rows] or past the deadline. *)

val add_expansion : t -> unit
(** Record one frontier expansion, then check bounds.
    @raise Exhausted over [max_expansions] or past the deadline. *)

val check_deadline : t -> unit
(** Immediate (non-amortized) deadline check. *)

val progress : ?exhausted:string -> t -> progress
(** Snapshot of the counters so far. *)

val elapsed_ms : t -> float

val pp_progress : Format.formatter -> progress -> unit

val progress_to_string : progress -> string
(** ["<what> after <n> rows, <m> expansions, <t> ms"]. *)
