(** Transport-independent server core.

    Everything the personalization server does apart from sockets —
    admission control over [workers] request slots and a bounded queue,
    budget capping, profile access under the shard rwlocks, graceful
    drain with the strict HEALTH counter ledger — lives here,
    as a functor over the {!Runtime.S} concurrency substrate.  The core
    creates no threads: every admitted request runs on the thread that
    submitted it.

    {!Server} instantiates it with {!Runtime.Threads} and adds the
    Unix-socket/TCP front end; the deterministic simulation harness
    ([Perso_sim]) instantiates it with a seeded cooperative scheduler
    and a virtual clock, so the very same admission / drain / ledger
    code paths replay bit-for-bit from a seed.

    Ledger invariants (audited by [test_server.ml] and [Perso_sim]):
    {ul
    {- [arrivals = accepted + shed_queue_full + shed_draining'] where
       [shed_draining'] counts admission-time sheds;}
    {- [accepted = completed_ok + completed_err + shed_expired +
       shed_at_stop + queue_depth + in_flight], with [queue_depth] and
       [in_flight] both 0 after {!Make.stop} returns;}
    {- [pers_ok + pers_err = cache_hit + cache_miss + cache_bypass]:
       every completed PERSONALIZE reply is accounted exactly once by
       outcome and exactly once by where its plan came from
       ({!Perso.Perso_cache.source}; [Bypass] covers a disabled cache,
       unpersonalized replies after a failed profile load, degraded-rung
       answers, and pre-personalization failures such as parse
       errors).}}

    A storage fault degrades or fails only the request that meets it:
    a [PERSONALIZE] whose profile load fails is answered with the plain
    query's rows and a [NOTE unpersonalized: profile load failed: ...],
    and a [PROFILE SAVE] that fails returns the typed error it raised.
    No state carries one request's fault over to the next.

    Slot cap (audited by [Perso_sim]): [in_flight <= workers] at every
    instant, drains included. *)

type config = {
  socket_path : string;  (** Unix-domain socket to listen on *)
  tcp_port : int option;  (** also listen on 127.0.0.1:port *)
  workers : int;  (** request slots: requests running at once (>= 1) *)
  queue_capacity : int;  (** admission-queue bound (>= 1) *)
  deadline_ms : float option;  (** server-side cap on request deadlines *)
  max_rows : int option;  (** cap on rows-produced budgets *)
  max_expansions : int option;  (** cap on selection-expansion budgets *)
  drain_ms : float;  (** graceful-shutdown drain deadline *)
  cache : bool;  (** personalization plan cache on the serve path *)
  cache_entries : int;  (** LRU entry bound (split across shards) *)
  cache_mb : float;  (** LRU byte bound (approximate accounting) *)
  shards : int;
      (** user-id shards for the profile store ({!Sharded_store}): a
          PROFILE SAVE takes only its shard's write lock, so queries and
          saves for other users keep flowing *)
  store_dir : string option;
      (** durable profile tier: a log-structured {!Perso_store.Store}
          root with one store per shard ([--store disk:DIR]), the
          server's one way to persist profiles.  [None] (the default)
          keeps profiles in memory: they last until the server stops.
          A committed root (it holds [SHARDS]) is authoritative — crash
          recovery replays its WALs and the catalog's profile rows are
          ignored; a root never made is made from them, complete or not
          at all ({!Sharded_store.Make.create}) *)
  replicas : int;
      (** a vestige of the deleted replicated tier, kept so existing
          callers still compile: must be 1 ({!Sharded_store.Make.create}
          raises [Invalid_argument] otherwise) *)
  profile_lru_entries : int;
      (** hot parsed-profile LRU entry bound, split across shards
          ({!Profile_lru}); [0] disables it *)
}

val default_config : socket_path:string -> config
(** Cache on, 512 entries, 32 MiB, 1 shard, in-memory store,
    512 hot-profile LRU entries. *)

type reply =
  | R_rows of { notes : string list; result : Relal.Exec.result }
  | R_message of string
  | R_error of Perso.Error.t

type drain_outcome = { drained : bool; shed_at_stop : int }

val mutate_drop_completed_ok : bool ref
(** Test-only fault: when [true], successful completions are dropped
    from the ledger.  The simulation suite arms this to prove its
    invariant audits catch ledger bugs (mutation testing).  Never set
    in production. *)

val max_profile_entries : int
(** The most entries one PROFILE SAVE may carry (4,096).  A larger save is
    refused with a typed [Error.Profile] before it takes a shard lock, so
    the stored profile and its revision stay as they were. *)

val cap_budget : config -> Protocol.header -> Relal.Governor.budget
(** Client-requested budgets capped by the server's own limits. *)

module Make (_ : Runtime.S) : sig
  type t

  val create : config -> Relal.Database.t -> t
  (** Validate the config and open the profile store: the catalog's
      profiles relation moves into the shards until {!stop} merges it
      back.  No sockets, no threads. *)

  val submit : t -> Protocol.header -> Protocol.command -> reply
  (** Admission (shed when draining or the queue is full), then the
      reply.  An admitted request always runs on the calling thread,
      holding one of [workers] slots.  It takes a slot at once when one
      is free and nothing is queued; otherwise the caller waits in the
      FIFO queue until the request that frees a slot hands it over, or
      until {!stop} sheds it.  Slots are taken only at admission and
      handed over, never added, so at most [workers] requests run at
      once.  The socket front end, the simulation and the benchmarks
      all admit through this one path. *)

  val health : t -> (string * string) list
  val request_stop : t -> unit
  val stop_requested : t -> bool
  val begin_drain : t -> unit
  val draining : t -> bool
  val stopped : t -> bool

  val stop : ?on_quiesced:(unit -> unit) -> t -> drain_outcome
  (** Drain (bounded by [drain_ms]), shed the requests still queued with
      typed [Overloaded] replies, wait for the requests still running to
      finish, run [on_quiesced] (the socket layer's teardown hook), then
      merge the shards' profiles back into the catalog and close the
      durable stores ({!Sharded_store.Make.merge_back}).  Idempotent:
      later calls return the first outcome. *)

  val lock_states : t -> (int * bool) list
  (** [(active_readers, writer_active)] of each profile shard's rwlock,
      in shard order.  Every element must satisfy the same exclusion
      invariant; the simulation audits them all. *)

  val slots : t -> int * int
  (** [(in_flight, workers)], read without taking the core's mutex, the
      way {!lock_states} reads the rwlocks: the slot-cap probe of the
      simulation's invariant audit ([in_flight <= workers]). *)
end
