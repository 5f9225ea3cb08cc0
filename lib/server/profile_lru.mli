(** LRU cache of parsed hot profiles, one per shard, sitting between
    the serve path and the shard's profiles table.

    A [PERSONALIZE] must otherwise re-scan the shard's profile rows and
    re-parse every condition on each request ({!Perso.Profile_store.load}).
    This cache keys the parsed {!Perso.Profile.t} by
    [(user, registry revision)], so a hit is a Hashtbl probe — and the
    revision in the key makes staleness structurally impossible: any
    effective save/delete bumps the registry revision first, so the old
    entry simply stops matching.  Subscriber hooks
    ({!Perso.Profile_store.subscribe}) additionally {!remove} entries
    eagerly, keeping the table from pinning dead profiles until
    eviction.

    The serve path's fault semantics do not change: the cache stores
    only successfully parsed profiles, and the hit path still crosses
    the [Profile_load] chaos point (see
    {!Sharded_store.Make.load_profile}), so a seeded run draws the same
    faults, and fails the same loads, as it would without the cache. *)

type t

type stats = {
  hits : int;
  misses : int;  (** absent {e or} stale-revision probes *)
  evictions : int;  (** capacity-pressure LRU drops *)
  invalidations : int;  (** eager removals by subscriber hooks *)
  entries : int;
}

val create : ?lock:Perso.Perso_cache.locker -> capacity:int -> unit -> t
(** [capacity 0] disables the cache (every probe misses, puts drop). *)

val capacity : t -> int

val find : t -> user:string -> revision:int -> Perso.Profile.t option
(** Probe by user at the given registry revision; counts hit/miss.  A
    present entry at a different revision is stale — dropped and
    counted as a miss. *)

val put : t -> user:string -> revision:int -> Perso.Profile.t -> unit
(** Insert (replacing any entry for the user), evicting the
    least-recently-used entry when at capacity: the one a hit or a put
    touched longest ago.  Entries sit on a list in order of last use,
    so the victim is its tail, found in O(1). *)

val remove : t -> user:string -> unit
(** Eager invalidation — the subscriber-hook path. *)

val stats : t -> stats
