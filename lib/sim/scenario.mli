(** Random client-fleet scenarios over the simulated server.

    A scenario is a list of {!step}s replayed by a driver task inside a
    {!Sched} simulation: requests are dispatched to per-client tasks
    that call the server core's [submit] (so admission, queueing and
    the slot hand-off to the oldest queued request all execute under
    seeded interleavings), [Advance] moves virtual time (tripping queue-expiry
    deadlines and the drain budget), [Chaos_on]/
    [Chaos_off] toggle {!Relal.Chaos} fault windows, and [Drain] begins
    a graceful shutdown mid-traffic.

    Every run is audited against the server's invariants:
    {ul
    {- exactly one reply per dispatched request (none lost, none
       duplicated — "no reply after shed");}
    {- the HEALTH ledger balances: [submits = accepted +
       shed_queue_full + shed_draining_admission] and [accepted =
       completed_ok + completed_err + shed_expired + shed_at_stop],
       with an empty queue and zero in-flight after stop, and
       client-observed successes equal to [completed_ok];}
    {- rwlock exclusion (a writer never overlaps a reader) and the
       slot cap ([in_flight <= workers]), probed at every scheduling
       decision;}
    {- the drain bound: [stop] finishes within [drain_ms] plus a small
       bounded tail of virtual time;}
    {- no deadlock and no task crash (enforced by {!Sched}).}}

    The step list has an exact textual round-trip ({!steps_to_string} /
    {!steps_of_string}) so a shrunk failing scenario replays from a
    command line. *)

type req =
  | Run_sql of int  (** index into the seed-derived query pool *)
  | Pers of int  (** personalize query [i] as user "u<cid>" *)
  | Save of int  (** index into the profile-entry variants *)
  | Load  (** PROFILE LOAD *)
  | Health_probe  (** control-plane HEALTH, bypasses the queue *)

type step =
  | Request of { cid : int; req : req; deadline_ms : int option }
  | Advance of int  (** advance virtual time by [ms] *)
  | Chaos_on of { cseed : int; permille : int }
  | Chaos_off
  | Drain  (** request_stop + begin_drain, as SHUTDOWN does *)

val generate : seed:int -> step list
(** The scenario deterministically derived from [seed]: 2–4 clients,
    12–45 steps, occasionally draining mid-traffic and submitting after
    the drain. *)

val step_to_string : step -> string
val steps_to_string : step list -> string

val steps_of_string : string -> (step list, string) result
(** Exact inverse of {!steps_to_string}. *)

type failure = { invariant : string; detail : string }

type result = {
  verdict : (unit, failure) Stdlib.result;
  digest : string;
      (** MD5 over the scheduler trace, per-step outcomes, and the
          final HEALTH snapshot — the bit-reproducibility witness *)
  sched_steps : int;
  vnow : float;  (** final virtual time, seconds *)
  n_steps : int;
}

val run : seed:int -> step list -> result
(** Simulate the steps under scheduler seed [seed] (which also derives
    the query pool).  Restores the process-global Governor clock and
    Chaos sleep/arm state on exit. *)

val run_seed : seed:int -> result
(** [run ~seed (generate ~seed)]. *)

val shrink : seed:int -> step list -> failure -> step list
(** Minimize a failing step list, preserving the failing invariant. *)
