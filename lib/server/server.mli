(** The concurrent personalization server.

    One process serves many clients over a Unix-domain socket (and
    optionally TCP) with the line protocol of {!Protocol}.  The
    architecture is a classic bounded system:

    {v
    acceptor ──► connection threads ──► [workers] slots, else bounded FIFO queue
                      │                        │                        │
                      │   queue full /         │  expired while         │ per-request
                      │   draining: shed       │  queued: shed          │ Governor budget
                      ▼                        ▼                        ▼
                 ERR overloaded           ERR overloaded          result / typed error
    v}

    - {b Admission control}: each data-plane request runs on its own
      connection thread, holding one of [workers] slots, so at most
      [workers] requests run at once.  With every slot taken it waits in
      a FIFO queue of at most [queue_capacity] requests until a
      finishing request hands it its slot.  When the queue is full, or
      the server is draining, the request is rejected {e immediately}
      with a typed [Overloaded] error — the server never queues
      unboundedly.  A request whose deadline elapses while it waits in
      the queue is shed when it gets its slot, without doing any work.
    - {b Budgets}: client [DEADLINE-MS]/[MAX-ROWS]/[MAX-EXPANSIONS]
      headers are capped by the server's configured limits and armed as
      a {!Relal.Governor} budget per request.
    - {b Per-request storage faults}: a [PERSONALIZE] whose profile
      load fails is served the plain query (with a [NOTE]), and a
      [PROFILE SAVE] that fails returns its typed error.  A fault
      affects only the request that meets it: the next request tries
      the store again.
    - {b Isolation}: profiles live in per-user shards, each behind its
      own {!Rwlock}.  [PROFILE SAVE] holds only the user's shard write
      lock, and [PERSONALIZE] holds that shard's read lock while it
      loads the profile and personalizes.  Queries read the main
      catalog without a lock: nothing writes it while serving.
    - {b Bounded reads}: each connection reads through its own chunk
      buffer; a request line longer than {!Protocol.max_line_bytes} is
      answered with one [ERR parse] and the connection is closed.
    - {b Graceful drain}: {!request_stop} (wired to SIGTERM by the CLI
      and to the [SHUTDOWN] command) stops admission; {!stop} waits up
      to [drain_ms] for queued and in-flight work, sheds whatever is
      still queued, waits for what is still running, merges the
      shards' profiles back into the catalog, and joins every thread.

    Control-plane commands ([HEALTH], [PING], [SHUTDOWN], [QUIT]) are
    answered on the connection thread without queueing, so the server
    stays observable exactly when it is saturated. *)

type config = Server_core.config
(** Fields are documented at {!Server_core.config}. *)

val default_config : socket_path:string -> config
(** 4 slots, queue of 64, 5 s deadline cap, 1M rows, 10k expansions,
    2 s drain, no TCP, profiles in memory. *)

type t

val start : config -> Relal.Database.t -> t
(** Bind the sockets, then create the core (opening the shard stores
    and moving the catalog's profiles into the shards), then spawn the
    acceptor thread.  A socket file at [socket_path] that accepts a
    connection belongs to a live server: the start is refused with
    {!Perso.Error.Typed} [(Usage _)] naming the path, and that server
    keeps serving.  A socket file whose connect is refused is stale and
    is replaced.  A socket path or TCP port the listener cannot bind or
    listen on (a missing directory, a port another process holds)
    raises {!Perso.Error.Typed} [(Usage _)] naming it, and leaves no
    socket file behind.  Either refusal comes before the stores open,
    so it creates no store root and exports no profile.  A start that
    the store refuses (recovery, the root's rule, the export) closes
    its listeners and leaves no socket file either.  The database is shared — the server takes ownership
    of coordinating access to it. *)

val request_stop : t -> unit
(** Flag the server to drain (idempotent, safe from a signal handler's
    thread context).  Admission stops at the next check; use {!stop} or
    {!wait} to complete the shutdown. *)

val draining : t -> bool

type drain_outcome = Server_core.drain_outcome = {
  drained : bool;  (** queue and in-flight hit zero within [drain_ms] *)
  shed_at_stop : int;  (** requests still queued when the deadline passed *)
}

val stop : t -> drain_outcome
(** Drain and finalize: wait up to [drain_ms] for in-flight work, shed
    the rest with [Overloaded] errors, merge the profiles back, close the
    sockets and join every server thread.  Idempotent — later calls
    return the first outcome. *)

val wait : t -> drain_outcome
(** Block until something requests a stop ([SHUTDOWN] command, signal
    handler calling {!request_stop}), then {!stop}.  What the CLI's
    [serve] runs after {!start}. *)

val health : t -> (string * string) list
(** The counters the [HEALTH] command reports, as ordered pairs, among
    them [state], [queue_depth], [in_flight], [workers],
    [queue_capacity], [accepted], [completed_ok], [completed_err],
    [shed_queue_full], [shed_expired], [shed_draining] and the store,
    cache and profile-LRU counters.  Every data-plane request
    the server ever saw is accounted: with [shed_draining] split into
    its admission-time part [d_a] (rejected while draining) and its
    stop-time part [d_s] (= {!drain_outcome}.[shed_at_stop], queued requests
    flushed when the drain deadline passed),
    [arrivals = accepted + shed_queue_full + d_a] and
    [accepted = completed_ok + completed_err + shed_expired + d_s +
    queue_depth + in_flight]. *)
