(** Seeded cooperative scheduler with virtual time.

    A simulation is a set of tasks multiplexed on the one real thread.
    Tasks are ordinary OCaml functions that suspend through effect
    handlers at every concurrency primitive — {!yield}, {!sleep},
    {!lock}/{!unlock}, {!wait}/{!signal}, {!join} — and at each
    suspension the scheduler consults a seeded {!Putil.Rng} to pick
    which runnable task (or which lock/condvar waiter) goes next.  Same
    seed, same program ⇒ the identical interleaving, trace, and
    verdict; an adversarial interleaving found at seed [s] replays from
    [s] forever.

    Time is {!Vclock} virtual time: it advances only when every task is
    blocked, jumping to the earliest pending timer.  Pure computation is
    instantaneous, so deadline and drain behavior depends only on
    the scenario's explicit time steps — never on machine speed.

    Invariant probes registered with {!add_probe} run before every
    scheduling decision; a probe (or any task) calls {!fail} to abort
    the run with a verdict.  If no task is runnable, no timer is
    pending, and unfinished tasks remain, the run fails with a deadlock
    report — lost wakeups become first-class bugs.

    All task-side primitives must be called from inside {!run};
    elsewhere they raise. *)

type task
type mutex
type cond

exception Failed of string
(** An invariant violation or crash aborting the simulation. *)

type outcome = {
  result : (unit, string) result;
      (** [Ok ()] iff the main function returned and every spawned task
          finished. *)
  steps : int;  (** scheduling decisions taken *)
  vnow : float;  (** final virtual time, seconds *)
  trace : string;  (** one line per scheduling event *)
  digest : string;  (** MD5 of the trace — the bit-reproducibility witness *)
}

val run : ?max_steps:int -> seed:int -> (unit -> unit) -> outcome
(** Run [main] as the root task until quiescence.  Exceeding
    [max_steps] (default [1_000_000]) fails the run — a livelock
    backstop. *)

(* ------------------------ task-side primitives ----------------------- *)

val spawn : ?name:string -> (unit -> unit) -> task
val join : task -> unit
val yield : unit -> unit

val sleep : float -> unit
(** Block for the given virtual seconds. *)

val now : unit -> float
(** Current virtual time, seconds. *)

val mutex_create : unit -> mutex
val lock : mutex -> unit

val unlock : mutex -> unit
(** @raise Failed when the caller does not hold the mutex. *)

val cond_create : unit -> cond
val wait : cond -> mutex -> unit
val signal : cond -> unit
val broadcast : cond -> unit

val fail : string -> 'a
(** Abort the whole simulation with an invariant-violation verdict. *)

val add_probe : (unit -> unit) -> unit
(** Register an invariant check to run before every scheduling
    decision (typically calls {!fail} on violation). *)

val trace_note : string -> unit
(** Append an application-level event to the trace (and digest). *)
