(** Keyed cache of compiled personalization outcomes.

    Every PERSONALIZE request otherwise redoes the whole §4 pipeline —
    personalization-graph traversal, top-K preference selection,
    integration — even when the same user replays the same query
    template moments later.  This module caches {!Personalize.outcome}
    values keyed by

    {v (user, K/M/L/method/rank params, normalized query template) v}

    where the template is {!Relal.Sql_print.query_to_key} applied to
    the {e bound} AST.  An entry remembers the user's
    {!Profile_store.revision} it was computed under and is served only
    at that revision.  A profile mutation drops all the user's entries
    (no key enumeration: the store's hook names the user), and the next
    consult for each key recomputes cold.  Cached outputs are
    byte-identical to cold ones — enforced by the oracle relation in
    [lib/sim/oracle.ml].

    The cache is a bounded LRU with approximate byte accounting — a
    cheap typed structural estimate ({!Size_est}, pinned within 2× of
    an exact [Obj.reachable_words] walk by the unit tests).  It
    performs no locking of its own; pass a {!locker} to serialize
    access (the server wraps a {!Runtime.S} mutex so the sim runtime
    exercises the same code single-threaded under virtual time). *)

type locker = { with_lock : 'a. (unit -> 'a) -> 'a }
(** How the cache serializes its internal state.  [with_lock f] must
    run [f] mutually excluded from other [with_lock] calls on the same
    cache.  The default {!no_lock} is for single-threaded callers. *)

val no_lock : locker

type t

type source =
  | Hit  (** served unchanged from a fresh entry *)
  | Incremental
      (** never produced: the cache no longer patches stale plans.  Kept
          until the benchmark's tracer ([bench/perf/trace.ml]) stops
          matching it. *)
  | Miss  (** computed cold (and stored) *)
  | Bypass  (** cache not consulted *)

type stats = {
  hits : int;
  incremental : int;  (** always [0], kept like {!Incremental} *)
  misses : int;
  bypasses : int;  (** only counted by {!personalize_sql_r} *)
  evictions : int;  (** entries dropped by the LRU bound *)
  invalidations : int;  (** fresh entries dropped by mutations *)
  entries : int;  (** current occupancy *)
  bytes : int;  (** approximate current footprint *)
}

val create :
  ?lock:locker ->
  ?max_entries:int ->
  ?max_bytes:int ->
  ?store_db:Relal.Database.t ->
  Relal.Database.t ->
  t
(** A cache over [db], subscribed to {!Profile_store} mutations against
    it: each effective [save] or [delete] drops the user's entries.
    Defaults: [max_entries = 512], [max_bytes = 32 MiB].

    [store_db] (default [db]) is where profiles, revisions, and
    mutation events live: a sharded server binds each shard's cache to
    its shard store while queries still run against the main database.
    Revision reads and the event subscription go against [store_db];
    binding, selection, and execution go against [db]. *)

val personalize :
  t ->
  ?params:Personalize.params ->
  ?gov:Relal.Governor.t ->
  user:string ->
  ?revision:int ->
  Profile.t ->
  Relal.Sql_ast.query ->
  Personalize.outcome * source
(** Cache-aware {!Personalize.personalize} against the cache's
    database.  [profile] must be the user's current profile; its
    current revision is read from {!Profile_store.revision} unless
    [revision] overrides it (the REPL keys its session-local, never
    stored profile this way).  A [Hit] returns the cached outcome
    (including the cold run's [selection_stats]); anything else is a
    [Miss], computed cold and stored.  [gov] meters only the cold
    computation.  Raises exactly as [personalize] does (nothing is
    cached on a raise). *)

val personalize_sql_r :
  ?cache:t ->
  ?user:string ->
  ?revision:int ->
  ?params:Personalize.params ->
  ?budget:Relal.Governor.budget ->
  ?related:(Path.t -> bool) ->
  Relal.Database.t ->
  Profile.t ->
  string ->
  (Personalize.run, Error.t) result * source
(** Cache-aware {!Personalize.personalize_sql_r}: the same degradation
    ladder, with the cache consulted on the full-strength rung only
    (degraded rungs always compute cold and are not cached).  The
    cache is bypassed — [Bypass], one [bypasses] tick — when [cache]
    or [user] is absent, a [related] filter is given, or [cache] was
    built over a different database.  Never raises. *)

val stats : t -> stats
(** Snapshot of the counters (taken under the lock). *)
