(** A user-id-sharded profile store for the serve path.

    With one database rwlock, every [PROFILE SAVE] excludes every
    concurrent [PERSONALIZE] — even for unrelated users — because the
    profiles table lives in the shared catalog.  This module splits the
    profile storage across [N] shard databases, each a mini catalog
    holding only the profiles table, each behind its own
    {!Rwlock.Make} instance and (optionally) its own {!Perso.Perso_cache}
    bound to the shard via [~store_db].  A save then takes only its
    shard's write lock: queries keep flowing, and saves for users on
    other shards proceed concurrently.

    Sharding is by [Hashtbl.hash] of the lowercased username — the same
    normalization {!Perso.Profile_store} applies — so every operation
    for a user deterministically lands on one shard.

    Rows move {e raw} between the main catalog and the shards
    (seeding at {!Make.create}, consolidation at {!Make.merge_back}),
    not through profile parsing: unparseable rows — which the store
    surfaces as typed [Error.Profile] values at load time — survive the
    round trip and keep producing the same typed errors they would in
    an unsharded server.

    Lock order (documented in DESIGN.md §5g): shard rwlock (outer,
    profile access) → cache lock (inner).  Nothing takes them in any
    other order.  The main catalog has no lock: nothing writes it while
    serving. *)

module Make (R : Runtime.S) : sig
  type t

  val create :
    ?cache:(store_db:Relal.Database.t -> Perso.Perso_cache.t) ->
    ?profile_lru:(unit -> Profile_lru.t) ->
    ?persist:string ->
    ?replicas:int ->
    shards:int ->
    Relal.Database.t ->
    t
  (** [create ?cache ?profile_lru ?persist ?replicas ~shards main]
      builds [max 1 shards] shard databases, seeds them by moving the
      main catalog's profile rows into them, uncopied (rows with a
      malformed username column go to shard 0 so nothing is dropped),
      along with its revision high-water marks, and — when [cache] is
      given — builds one per-shard cache with the shard database as its
      [store_db].  Then it removes the profiles relation from the main
      catalog: until {!merge_back} rebuilds it, SQL naming it is a bind
      error ([unknown table profiles]).

      [profile_lru] builds one hot parsed-profile LRU per shard
      (consulted by {!load_profile}), wired to the shard's
      {!Perso.Profile_store.subscribe} hook for eager invalidation.

      [persist] names a store root directory: each shard gets its own
      {!Perso_store.Store} at [root/shard-NN], attached write-through.
      On first open (all stores empty) the main catalog's profiles are
      exported into the stores, once every row has been checked, so a
      row no store can hold refuses the open with every store still
      empty; afterwards the stores are authoritative — crash recovery
      replays them and the main catalog's profile rows are ignored.  A
      [SHARDS] marker in the root pins the shard count; reopening with a
      different [--shards] raises a typed [Store_error] (resharding
      migration is a documented non-goal for now).  A raise leaves the
      main catalog's profiles relation in place.

      [replicas] is a vestige of the deleted replicated tier, kept so
      existing callers still compile: it must be 1.
      @raise Perso_store.Store.Store_error on recovery failure (some
      shard's store damaged), a shard count mismatch, or (first open
      only) a profile row too malformed to export.
      @raise Invalid_argument if [replicas <> 1]. *)

  val shard_count : t -> int

  val with_user_read : t -> user:string -> (Relal.Database.t -> 'a) -> 'a
  (** Run [f shard_db] holding the user's shard read lock. *)

  val with_user_write : t -> user:string -> (Relal.Database.t -> 'a) -> 'a
  (** Run [f shard_db] holding the user's shard write lock. *)

  val cache_for : t -> user:string -> Perso.Perso_cache.t option
  (** The user's shard cache ([None] when built without [?cache]). *)

  val load_profile :
    t ->
    user:string ->
    Relal.Database.t ->
    (Perso.Profile.t, Perso.Error.t) result
  (** {!Perso.Profile_store.load_r} with the shard's hot LRU in front
      (when built with [?profile_lru]): probe by (user, current registry
      revision); a hit returns the already-parsed profile while still
      crossing the [Profile_load] fault point, so a seeded run draws the
      same faults whatever the LRU holds.  Call with the user's shard
      database, under the shard read lock. *)

  val plru_stats : t -> Profile_lru.stats
  (** Field-wise sum of every shard's hot-profile LRU counters — the
      HEALTH view.  All zeros when built without [?profile_lru]. *)

  val cache_stats : t -> Perso.Perso_cache.stats
  (** Field-wise sum of every shard cache's counters — the HEALTH
      ledger view.  All zeros when built without [?cache]. *)

  val lock_states : t -> (int * bool) list
  (** [(active_readers, writer_active)] per shard, in shard order — the
      exclusion probes for the simulation's invariant audit. *)

  val persisted : t -> bool
  (** Whether the shards carry durable stores ([?persist] was given). *)

  val store_stats : t -> Perso_store.Store.stats option
  (** Field-wise sum of every shard store's counters, [None] for the
      in-memory backend — the HEALTH ledger view. *)

  val merge_back : t -> unit
  (** Rebuild the main catalog's profiles relation from every shard's
      rows (in shard order, moved raw), merge the shard revision
      high-water marks into the main registry, and sync + close any
      durable stores.  For quiesced servers only — the caller must
      guarantee no concurrent shard access; {!Server_core.Make.stop}
      runs it once no request is in flight, so a caller holding the
      catalog after stop sees every profile saved while serving. *)
end
