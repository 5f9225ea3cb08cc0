module type S = sig
  type mutex
  type cond

  val now : unit -> float
  val sleep : float -> unit
  val mutex_create : unit -> mutex
  val lock : mutex -> unit
  val unlock : mutex -> unit
  val cond_create : unit -> cond
  val wait : cond -> mutex -> unit
  val signal : cond -> unit
  val broadcast : cond -> unit
end

module Threads = struct
  type mutex = Mutex.t
  type cond = Condition.t

  let now = Unix.gettimeofday
  let sleep = Thread.delay
  let mutex_create () = Mutex.create ()
  let lock = Mutex.lock
  let unlock = Mutex.unlock
  let cond_create () = Condition.create ()
  let wait = Condition.wait
  let signal = Condition.signal
  let broadcast = Condition.broadcast
end
