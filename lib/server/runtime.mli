(** Concurrency substrate the server core is written against.

    The primitives the serving stack needs from the operating system —
    the clock, sleeping, mutexes and condition variables — are collected
    in one signature so the same server logic can run on two substrates:

    - {!Threads}: real [Mutex]/[Condition]/[Thread.delay]/
      [Unix.gettimeofday], used in production ({!Server} instantiates
      {!Server_core.Make} with it);
    - [Perso_sim.Sim_runtime.R]: a seeded single-threaded cooperative
      scheduler with a virtual clock, used by deterministic simulation
      so an entire serve/call session replays bit-for-bit from a seed.

    Creating threads is not part of the substrate: the server core runs
    every request on the thread that submitted it, and the callers (the
    socket layer's connection threads, the simulation's client tasks)
    bring their own.

    This generalizes the injectable-clock pattern already used by
    [Relal.Chaos.retry] ([?sleep]) and [Relal.Governor.set_clock] from
    "inject one function" to "inject the whole substrate". *)

module type S = sig
  type mutex
  type cond

  val now : unit -> float
  (** Seconds, [Unix.gettimeofday]-like. *)

  val sleep : float -> unit
  (** Sleep for the given number of seconds. *)

  val mutex_create : unit -> mutex
  val lock : mutex -> unit
  val unlock : mutex -> unit
  val cond_create : unit -> cond

  val wait : cond -> mutex -> unit
  (** Atomically release the mutex and wait; the mutex is held again
      when [wait] returns.  Standard condition-variable semantics:
      callers must re-check their predicate in a loop. *)

  val signal : cond -> unit
  val broadcast : cond -> unit
end

module Threads : S with type mutex = Mutex.t and type cond = Condition.t
(** The production substrate: real mutexes and condition variables, and
    the real clock. *)
