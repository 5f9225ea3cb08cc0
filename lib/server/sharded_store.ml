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

  (* The shard count a persisted store root was created with.  The hash
     placement of every record depends on it, so reopening with a
     different [--shards] would silently route users to shards that do
     not hold their profiles — refuse instead. *)
  let check_shard_marker root n =
    match Perso_store.Store.read_shard_marker root with
    | None -> Perso_store.Store.write_shard_marker root n
    | Some stored when stored = n -> ()
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

  (* Move main's profile rows into the shards: each row array goes to
     its user's shard as it is, not copied (a malformed username goes to
     shard 0 so nothing is dropped).  With [check], a row no durable
     store can hold raises here, before the first export, so a refused
     first open writes no store. *)
  let move_rows t ~check =
    Option.iter
      (fun tbl ->
        Table.iter tbl (fun row ->
            if check then Perso.Profile_store.check_exportable row;
            let sh =
              match row.(0) with
              | Value.Str u -> shard_for t u
              | _ -> t.shards.(0)
            in
            Table.insert
              (Database.table sh.sdb Perso.Profile_store.table_name)
              row))
      (Database.find_table t.main Perso.Profile_store.table_name)

  let create ?cache ?profile_lru ?persist ?(replicas = 1) ~shards main =
    if replicas <> 1 then
      invalid_arg "Sharded_store.create: replicas must be 1";
    let n = max 1 shards in
    let stores =
      match persist with
      | None -> Array.make n None
      | Some root ->
          if not (Sys.file_exists root) then Sys.mkdir root 0o755;
          check_shard_marker root n;
          Array.init n (fun i ->
              Some
                (Perso_store.Store.open_ (Perso_store.Store.shard_dir root i)))
    in
    let mk i =
      let sdb = Database.create () in
      Perso.Profile_store.install sdb;
      let plru = Option.map (fun f -> f ()) profile_lru in
      (* Eager invalidation: any effective save/delete on the shard
         drops the user's hot entry (the revision key already protects
         against staleness; this keeps dead profiles from lingering). *)
      Option.iter
        (fun lru ->
          Perso.Profile_store.subscribe sdb (fun ~user ->
              Profile_lru.remove lru ~user))
        plru;
      {
        sdb;
        lock = Rl.create ();
        cache = Option.map (fun f -> f ~store_db:sdb) cache;
        store = stores.(i);
        plru;
      }
    in
    let t = { shards = Array.init n mk; main } in
    let stores_empty =
      Array.for_all
        (function
          | None -> true
          | Some s -> Perso_store.Store.revisions s = [])
        stores
    in
    if stores_empty then begin
      (* Seed by raw row move: unparseable rows keep their bytes (and
         their typed load errors); revision high-water marks follow
         their users so shard counters continue above any saves made
         in [main] before the server started. *)
      move_rows t ~check:(persist <> None);
      let revs = Perso.Profile_store.revisions main in
      Array.iteri
        (fun i sh ->
          let mine =
            List.filter (fun (u, _) -> shard_index ~shards:n u = i) revs
          in
          if mine <> [] then Perso.Profile_store.seed_revisions sh.sdb mine;
          match sh.store with
          | None -> ()
          | Some s ->
              (* First open of this store: make the seeded state durable,
                 then write through from here on. *)
              Perso.Profile_store.export sh.sdb s;
              Perso.Profile_store.attach sh.sdb s)
        t.shards
    end
    else
      (* The durable tier has data: it is authoritative, recovered
         as-of the last acknowledged mutation.  The main catalog's
         profile rows (from a data dir, or absent entirely) are
         ignored. *)
      Array.iter
        (fun sh ->
          match sh.store with
          | None -> ()
          | Some s ->
              Perso.Profile_store.restore sh.sdb s)
        t.shards;
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
                   rotations = acc.rotations + st.rotations;
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
             rotations = 0;
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
