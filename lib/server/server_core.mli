(** Transport-independent server core.

    Everything the personalization server does apart from sockets —
    admission control over a bounded queue, the fixed worker pool,
    budget capping, breaker-gated profile access under the rwlock,
    graceful drain with the strict HEALTH counter ledger — lives here,
    as a functor over the {!Runtime.S} concurrency substrate.

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
       breaker-degraded unpersonalized replies, degraded-rung answers,
       and pre-personalization failures such as parse errors).}} *)

type config = {
  socket_path : string;
  tcp_port : int option;
  workers : int;
  queue_capacity : int;
  deadline_ms : float option;
  max_rows : int option;
  max_expansions : int option;
  drain_ms : float;
  breaker_threshold : int;
  breaker_cooldown_ms : float;
  dump_dir : string option;
  cache : bool;  (** personalization plan cache on the serve path *)
  cache_entries : int;  (** LRU entry bound (split across shards) *)
  cache_mb : float;  (** LRU byte bound (approximate accounting) *)
  shards : int;
      (** user-id shards for the profile store ({!Sharded_store}): a
          PROFILE SAVE takes only its shard's write lock, so queries and
          saves for other users keep flowing *)
  store_dir : string option;
      (** durable profile tier: a log-structured {!Perso_store.Store}
          root with one store per shard ([--store disk:DIR]).  [None]
          (the default) keeps profiles purely in memory.  On open, a
          non-empty store is authoritative — crash recovery replays its
          WALs and the catalog's profile rows are ignored *)
  replicas : int;
      (** members per shard replica set ({!Perso_store.Replica},
          [--replicas N]): every save ships to N byte-identical copies;
          recovery scrubs, salvages, and fails over among them.  [1]
          (the default) is the plain single-copy store *)
  profile_lru_entries : int;
      (** hot parsed-profile LRU entry bound, split across shards
          ({!Profile_lru}); [0] disables it *)
}

val default_config : socket_path:string -> config
(** Cache on, 512 entries, 32 MiB, 1 shard, in-memory store,
    1 replica, 512 hot-profile LRU entries. *)

type reply =
  | R_rows of { notes : string list; result : Relal.Exec.result }
  | R_message of string
  | R_error of Perso.Error.t

type drain_outcome = {
  drained : bool;
  shed_at_stop : int;
  dump : (string, string) result option;
}

val mutate_drop_completed_ok : bool ref
(** Test-only fault: when [true], successful completions are dropped
    from the ledger.  The simulation suite arms this to prove its
    invariant audits catch ledger bugs (mutation testing).  Never set
    in production. *)

val max_profile_entries : int
(** The most entries one PROFILE SAVE may carry (4,096).  A larger save is
    refused with a typed [Error.Profile] before it touches the breaker or
    a shard lock, so the stored profile and its revision stay as they
    were. *)

val cap_budget : config -> Protocol.header -> Relal.Governor.budget
(** Client-requested budgets capped by the server's own limits. *)

module Make (_ : Runtime.S) : sig
  type t

  val create : config -> Relal.Database.t -> t
  (** Validate the config and start the worker pool.  No sockets. *)

  val submit : t -> Protocol.header -> Protocol.command -> reply
  (** Admission (shed when draining or the queue is full), then block
      until a worker answers the job's one-shot mailbox. *)

  val submit_inline : t -> Protocol.header -> Protocol.command -> reply
  (** {!submit}, except that a job admitted while nothing is queued and
      fewer than [workers] jobs are in flight runs on the calling thread,
      holding a worker slot, instead of going through the queue.  The
      slot bound, shedding, deadlines, drain and the ledger are
      {!submit}'s: workers take queued jobs only while a slot is free.
      The socket front end uses this; the simulation drives {!submit}. *)

  val health : t -> (string * string) list
  val request_stop : t -> unit
  val stop_requested : t -> bool
  val begin_drain : t -> unit
  val draining : t -> bool
  val stopped : t -> bool

  val stop : ?on_quiesced:(unit -> unit) -> t -> drain_outcome
  (** Drain (bounded by [drain_ms]), flush the queue with typed
      [Overloaded] replies, join the workers, run [on_quiesced] (the
      socket layer's teardown hook), then take the optional crash-safe
      dump.  Idempotent: later calls return the first outcome. *)

  val lock_state : t -> int * bool
  (** [(active_readers, writer_active)] of the database rwlock — the
      exclusion probe for the simulation's invariant audit. *)

  val lock_states : t -> (int * bool) list
  (** The database rwlock's holders followed by each profile shard's,
      in shard order.  Every element must satisfy the same exclusion
      invariant; the simulation audits them all. *)
end
