(** {!Perso_server.Runtime.S} over the {!Sched} cooperative scheduler.

    Instantiating [Server_core.Make (Sim_runtime.R)] inside a
    {!Sched.run} gives a server whose locks, condition variables,
    clock, and sleeps are all simulated, called from simulated client
    tasks — every run is a pure function of the scheduler seed. *)

module R : Perso_server.Runtime.S
