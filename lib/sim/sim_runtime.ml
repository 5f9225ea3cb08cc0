(* The virtual concurrency substrate: {!Perso_server.Runtime.S}
   implemented on the ambient {!Sched} simulation, so
   [Server_core.Make (Sim_runtime.R)] runs the production admission /
   drain / ledger code single-threaded under seeded interleavings and
   virtual time. *)

module R : Perso_server.Runtime.S = struct
  type mutex = Sched.mutex
  type cond = Sched.cond

  let now = Sched.now
  let sleep = Sched.sleep
  let mutex_create = Sched.mutex_create
  let lock = Sched.lock
  let unlock = Sched.unlock
  let cond_create = Sched.cond_create
  let wait = Sched.wait
  let signal = Sched.signal
  let broadcast = Sched.broadcast
end
