(** Virtual time for the deterministic scheduler.

    Time never flows on its own: it is a number that {!advance} moves
    forward to the earliest pending timer when every task is blocked.
    Pure computation therefore takes zero virtual time — only explicit
    sleeps (and whatever the scenario's [Advance] steps inject) make
    deadlines and drain budgets progress, which is
    what makes runs bit-reproducible. *)

type 'a t

val create : unit -> 'a t

val now : 'a t -> float
(** Current virtual time, seconds since simulation start. *)

val park : 'a t -> float -> 'a -> unit
(** Schedule a waiter to be released at an absolute virtual time. *)

val advance : 'a t -> 'a list
(** Jump [now] to the earliest pending timer and pop every waiter due
    at (or before) the new time, in park order.  [[]] iff no timers are
    pending; [now] is unchanged in that case. *)

val pending : 'a t -> int
(** Number of parked waiters. *)
