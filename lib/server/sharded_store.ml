open Relal

module Make (R : Runtime.S) = struct
  module Rl = Rwlock.Make (R)

  type shard = {
    sdb : Database.t;  (* mini catalog holding only the profiles table *)
    lock : Rl.t;
    cache : Perso.Perso_cache.t option;
    store : Perso_store.Store.t option;  (* durable tier when persisted *)
    plru : Profile_lru.t option;  (* hot parsed-profile cache *)
  }

  type t = { shards : shard array; main : Database.t }

  let shard_count t = Array.length t.shards

  let shard_index ~shards user =
    if shards = 1 then 0
    else Hashtbl.hash (String.lowercase_ascii user) mod shards

  let shard_for t user =
    t.shards.(shard_index ~shards:(Array.length t.shards) user)

  (* A committed root (it holds SHARDS): the count it was made with must
     be this start's, since the hash placement of every record depends
     on it, and every shard it promises must hold a store.  [false] for
     a root never made (absent or empty); anything else is refused. *)
  let committed root n =
    match Perso_store.Store.read_shard_marker root with
    | None -> false
    | Some stored when stored = n ->
        for i = 0 to n - 1 do
          Perso_store.Store.check_shard root i
        done;
        true
    | Some stored ->
        raise
          (Perso_store.Store.Store_error
             (Perso_store.Store.Malformed
                {
                  file = Filename.concat root Perso_store.Store.shards_marker;
                  detail =
                    Printf.sprintf
                      "store was created with %d shards; restart with \
                       --shards %d (resharding migration is not \
                       implemented)"
                      stored stored;
                }))

  let mk ?cache ?profile_lru () =
    let sdb = Database.create () in
    Perso.Profile_store.install sdb;
    let plru = Option.map (fun f -> f ()) profile_lru in
    (* Eager invalidation: any effective save/delete on the shard drops
       the user's hot entry (the revision key already protects against
       staleness; this keeps dead profiles from lingering). *)
    Option.iter
      (fun lru ->
        Perso.Profile_store.subscribe sdb (fun ~user ->
            Profile_lru.remove lru ~user))
      plru;
    {
      sdb;
      lock = Rl.create ();
      cache = Option.map (fun f -> f ~store_db:sdb) cache;
      store = None;
      plru;
    }

  (* Seed the shards from [main]'s profile rows by raw row move: each
     row array goes to its user's shard as it is, not copied (a
     malformed username goes to shard 0 so nothing is dropped), and
     unparseable rows keep their bytes and their typed load errors.
     Revision high-water marks follow their users, so shard counters
     continue above any saves made in [main] before the server
     started. *)
  let seed t =
    Option.iter
      (fun tbl ->
        Table.iter tbl (fun row ->
            let sh =
              match row.(0) with
              | Value.Str u -> shard_for t u
              | _ -> t.shards.(0)
            in
            Table.insert
              (Database.table sh.sdb Perso.Profile_store.table_name)
              row))
      (Database.find_table t.main Perso.Profile_store.table_name);
    List.iter
      (fun (u, r) ->
        Perso.Profile_store.seed_revisions (shard_for t u).sdb [ (u, r) ])
      (Perso.Profile_store.revisions t.main)

  (* Make the root complete: each seeded shard exported into its store
     under the staging name, unsynced record by record and synced once
     (nothing is acknowledged before the rename), then the marker.  A
     row no store can hold raises here, and the staging directory goes
     with it. *)
  let make_root t root =
    let config = { Perso_store.Store.default_config with fsync = false } in
    Perso_store.Store.build_staged root (fun staging ->
        Array.iteri
          (fun i sh ->
            let s =
              Perso_store.Store.open_ ~config
                (Perso_store.Store.shard_dir staging i)
            in
            Fun.protect
              ~finally:(fun () -> Perso_store.Store.abandon s)
              (fun () ->
                Perso.Profile_store.export sh.sdb s;
                Perso_store.Store.close s))
          t.shards;
        Perso_store.Store.write_shard_marker staging (Array.length t.shards))

  let create ?cache ?profile_lru ?persist ?(replicas = 1) ~shards main =
    if replicas <> 1 then
      invalid_arg "Sharded_store.create: replicas must be 1";
    let n = max 1 shards in
    let t =
      { shards = Array.init n (fun _ -> mk ?cache ?profile_lru ()); main }
    in
    (match persist with
    | None -> seed t
    | Some root ->
        (* A committed root is authoritative, recovered as-of the last
           acknowledged mutation, and the main catalog's profile rows
           (from a data dir, or absent entirely) are ignored.  A root
           never made is made from them first. *)
        let committed = committed root n in
        if not committed then begin
          seed t;
          make_root t root
        end;
        let opened = ref [] in
        (try
           Array.iteri
             (fun i sh ->
               let s =
                 Perso_store.Store.open_ (Perso_store.Store.shard_dir root i)
               in
               opened := s :: !opened;
               if committed then Perso.Profile_store.restore sh.sdb s
               else Perso.Profile_store.attach sh.sdb s;
               t.shards.(i) <- { sh with store = Some s })
             t.shards
         with e ->
           (* A start that raises after opening stores closes their
              descriptors and writes nothing more: what it wrote is
              already synced, and the next open recovers it. *)
           List.iter Perso_store.Store.abandon !opened;
           raise e));
    (* While serving, the shards hold the only profiles in memory: SQL
       naming the relation gets the bind error of a catalog without one,
       never start-time rows.  merge_back rebuilds it at stop. *)
    Database.remove_table main Perso.Profile_store.table_name;
    t

  let with_user_read t ~user f =
    let sh = shard_for t user in
    Rl.with_read sh.lock (fun () -> f sh.sdb)

  let with_user_write t ~user f =
    let sh = shard_for t user in
    Rl.with_write sh.lock (fun () -> f sh.sdb)

  let cache_for t ~user = (shard_for t user).cache

  (* Profile load for the serve path: probe the shard's hot LRU at the
     user's current registry revision before falling back to the table
     scan + parse.  A hit skips the re-parse, {e not} the fault point:
     it still crosses [Profile_load], so a seeded run draws the same
     faults whatever the LRU holds (the simulation's replays depend on
     it), and a load fails under a fault with or without the LRU.
     Caller holds the user's shard read lock. *)
  let load_profile t ~user db =
    let sh = shard_for t user in
    match sh.plru with
    | None -> Perso.Profile_store.load_r db ~user
    | Some lru -> (
        let revision = Perso.Profile_store.revision db ~user in
        match Profile_lru.find lru ~user ~revision with
        | Some p ->
            Perso.Error.guard (fun () ->
                Chaos.point Chaos.Profile_load;
                p)
        | None -> (
            match Perso.Profile_store.load_r db ~user with
            | Ok p ->
                Profile_lru.put lru ~user ~revision p;
                Ok p
            | Error _ as e -> e))

  let zero_plru_stats : Profile_lru.stats =
    { hits = 0; misses = 0; evictions = 0; invalidations = 0; entries = 0 }

  let plru_stats t =
    Array.fold_left
      (fun (acc : Profile_lru.stats) sh ->
        match sh.plru with
        | None -> acc
        | Some lru ->
            let s = Profile_lru.stats lru in
            {
              Profile_lru.hits = acc.hits + s.hits;
              misses = acc.misses + s.misses;
              evictions = acc.evictions + s.evictions;
              invalidations = acc.invalidations + s.invalidations;
              entries = acc.entries + s.entries;
            })
      zero_plru_stats t.shards

  let zero_stats : Perso.Perso_cache.stats =
    {
      hits = 0;
      incremental = 0;
      misses = 0;
      bypasses = 0;
      evictions = 0;
      invalidations = 0;
      entries = 0;
      bytes = 0;
    }

  let cache_stats t =
    Array.fold_left
      (fun (acc : Perso.Perso_cache.stats) sh ->
        match sh.cache with
        | None -> acc
        | Some c ->
            let s = Perso.Perso_cache.stats c in
            {
              Perso.Perso_cache.hits = acc.hits + s.hits;
              incremental = acc.incremental + s.incremental;
              misses = acc.misses + s.misses;
              bypasses = acc.bypasses + s.bypasses;
              evictions = acc.evictions + s.evictions;
              invalidations = acc.invalidations + s.invalidations;
              entries = acc.entries + s.entries;
              bytes = acc.bytes + s.bytes;
            })
      zero_stats t.shards

  let lock_states t =
    Array.to_list (Array.map (fun sh -> Rl.holders sh.lock) t.shards)

  let persisted t = Array.exists (fun sh -> sh.store <> None) t.shards

  let store_stats t =
    if not (persisted t) then None
    else
      Some
        (Array.fold_left
           (fun (acc : Perso_store.Store.stats) sh ->
             match sh.store with
             | None -> acc
             | Some s ->
                 let st = Perso_store.Store.stats s in
                 {
                   Perso_store.Store.appends = acc.appends + st.appends;
                   compactions = acc.compactions + st.compactions;
                   compact_failures =
                     acc.compact_failures + st.compact_failures;
                   torn_truncated = acc.torn_truncated + st.torn_truncated;
                   segments = acc.segments + st.segments;
                   live_users = acc.live_users + st.live_users;
                   wal_bytes = acc.wal_bytes + st.wal_bytes;
                 })
           {
             Perso_store.Store.appends = 0;
             compactions = 0;
             compact_failures = 0;
             torn_truncated = 0;
             segments = 0;
             live_users = 0;
             wal_bytes = 0;
           }
           t.shards)

  let merge_back t =
    Perso.Profile_store.install t.main;
    let tbl = Database.table t.main Perso.Profile_store.table_name in
    Table.clear tbl;
    Array.iter
      (fun sh ->
        Table.iter
          (Database.table sh.sdb Perso.Profile_store.table_name)
          (Table.insert tbl))
      t.shards;
    let revs =
      Array.to_list t.shards
      |> List.concat_map (fun sh -> Perso.Profile_store.revisions sh.sdb)
    in
    if revs <> [] then Perso.Profile_store.seed_revisions t.main revs;
    Array.iter
      (fun sh ->
        match sh.store with
        | None -> ()
        | Some s -> Perso_store.Store.close s)
      t.shards
end
