open Relal

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
  cache : bool;
  cache_entries : int;
  cache_mb : float;
  shards : int;
  store_dir : string option;
  replicas : int;
  profile_lru_entries : int;  (* 0 disables the hot-profile LRU *)
}

let default_config ~socket_path =
  {
    socket_path;
    tcp_port = None;
    workers = 4;
    queue_capacity = 64;
    deadline_ms = Some 5_000.;
    max_rows = Some 1_000_000;
    max_expansions = Some 10_000;
    drain_ms = 2_000.;
    breaker_threshold = 3;
    breaker_cooldown_ms = 250.;
    dump_dir = None;
    cache = true;
    cache_entries = 512;
    cache_mb = 32.;
    shards = 1;
    store_dir = None;
    replicas = 1;
    profile_lru_entries = 512;
  }

type reply =
  | R_rows of { notes : string list; result : Exec.result }
  | R_message of string
  | R_error of Perso.Error.t

type drain_outcome = {
  drained : bool;
  shed_at_stop : int;
  dump : (string, string) result option;
}

(* Test-only fault: when set, completion accounting "forgets" successful
   jobs, unbalancing the HEALTH ledger.  Exists so the simulation suite
   can prove its invariant audits actually detect ledger bugs (mutation
   testing); never set in production. *)
let mutate_drop_completed_ok = ref false

(* --------------------------- budget capping -------------------------- *)

let cap_opt f client server =
  match (client, server) with
  | None, s -> s
  | Some c, None -> Some c
  | Some c, Some s -> Some (f c s)

let cap_budget cfg (hdr : Protocol.header) =
  {
    Governor.deadline_ms = cap_opt Float.min hdr.deadline_ms cfg.deadline_ms;
    max_rows = cap_opt Int.min hdr.max_rows cfg.max_rows;
    max_expansions = cap_opt Int.min hdr.max_expansions cfg.max_expansions;
  }

let gov_of budget =
  if Governor.is_unlimited budget then None else Some (Governor.start budget)

let is_storage_fault = function Perso.Error.Storage _ -> true | _ -> false

(* Split "[ a, 0.9 ] [ b, 1 ]" into the per-entry lines
   Profile.of_string expects.  Entries cannot contain ']' outside a
   quoted literal ending in ']', which we accept as unsupported on the
   wire. *)
let profile_entry_lines entries =
  String.split_on_char ']' entries
  |> List.filter_map (fun chunk ->
         let chunk = String.trim chunk in
         if chunk = "" then None else Some (chunk ^ " ]"))

let max_profile_entries = 4096

module Make (R : Runtime.S) = struct
  module Rl = Rwlock.Make (R)
  module Store = Sharded_store.Make (R)

  (* ------------------------------- jobs ------------------------------ *)

  (* A one-shot mailbox: the connection thread blocks on [take] while a
     worker fills it with [put]. *)
  type job = {
    command : Protocol.command;
    budget : Governor.budget;
    deadline_at : float option;  (* absolute, R.now seconds *)
    jm : R.mutex;
    jc : R.cond;
    mutable answer : reply option;
  }

  let job_put job reply =
    R.lock job.jm;
    job.answer <- Some reply;
    R.signal job.jc;
    R.unlock job.jm

  let job_take job =
    R.lock job.jm;
    while job.answer = None do
      R.wait job.jc job.jm
    done;
    let r = Option.get job.answer in
    R.unlock job.jm;
    r

  (* ------------------------------ server ----------------------------- *)

  type phase = Running | Draining | Stopped

  type counters = {
    mutable accepted : int;
    mutable completed_ok : int;
    mutable completed_err : int;
    mutable shed_queue_full : int;
    mutable shed_expired : int;
    mutable shed_draining : int;
    mutable shed_breaker : int;
    mutable unpersonalized_breaker : int;
    (* Strict personalization sub-ledger: every completed PERSONALIZE
       reply is accounted exactly once on each side, so
       pers_ok + pers_err = cache_hit + cache_miss + cache_bypass —
       audited by the sim scenario runner. *)
    mutable pers_ok : int;
    mutable pers_err : int;
    mutable cache_hit : int;
    mutable cache_miss : int;
    mutable cache_bypass : int;
  }

  type t = {
    cfg : config;
    db : Database.t;
    dblock : Rl.t;
    store : Store.t;
    breaker : Breaker.t;
    qm : R.mutex;
    qc : R.cond;
    queue : job Queue.t;
    mutable phase : phase;
    mutable in_flight : int;
    c : counters;
    stop_flag : bool Atomic.t;
    mutable worker_threads : R.thread list;
    sm : R.mutex;  (* serializes stop *)
    mutable stop_outcome : drain_outcome option;
  }

  let locked m f =
    R.lock m;
    Fun.protect ~finally:(fun () -> R.unlock m) f

  (* ----------------------------- execution --------------------------- *)

  let run_unpersonalized t ~budget ~notes sql =
    match
      Perso.Error.guard (fun () -> Engine.run_sql ?gov:(gov_of budget) t.db sql)
    with
    | Ok result -> R_rows { notes; result }
    | Error e -> R_error e

  let count_source t (src : Perso.Perso_cache.source) =
    locked t.qm (fun () ->
        match src with
        | Perso.Perso_cache.Hit -> t.c.cache_hit <- t.c.cache_hit + 1
        | Perso.Perso_cache.Miss | Perso.Perso_cache.Incremental ->
            t.c.cache_miss <- t.c.cache_miss + 1
        | Perso.Perso_cache.Bypass -> t.c.cache_bypass <- t.c.cache_bypass + 1)

  let exec_personalize t ~budget user sql =
    (* The profile load goes through the breaker: a sick store must not
       take query traffic down with it.  Open breaker, or a failed load,
       degrade to the plain query with an explanatory NOTE — the same
       contract as the personalization ladder.

       Load {e and} the cache consult + personalization run stay
       together under the user's shard read lock, so a concurrent save
       for the same user cannot slip between them (a profile snapshot
       cached under the save's new revision would serve stale plans).
       The caller already holds the main database read lock — lock
       order main -> shard -> cache.  The unpersonalized fallbacks
       touch no profile state and run outside the shard lock. *)
    let outcome =
      if Breaker.allow t.breaker then
        Store.with_user_read t.store ~user (fun sdb ->
            match Store.load_profile t.store ~user sdb with
            | Ok p -> (
                Breaker.success t.breaker;
                let r, src =
                  Perso.Perso_cache.personalize_sql_r
                    ?cache:(Store.cache_for t.store ~user)
                    ~user ~budget t.db p sql
                in
                count_source t src;
                match r with
                | Ok run ->
                    let notes =
                      List.map Perso.Personalize.degradation_to_string
                        run.Perso.Personalize.degradations
                    in
                    `Reply
                      (R_rows { notes; result = run.Perso.Personalize.result })
                | Error e -> `Reply (R_error e))
            | Error e ->
                if is_storage_fault e then Breaker.failure t.breaker
                else Breaker.success t.breaker;
                `Failed e)
      else begin
        locked t.qm (fun () ->
            t.c.unpersonalized_breaker <- t.c.unpersonalized_breaker + 1);
        `Open
      end
    in
    match outcome with
    | `Reply r -> r
    | `Failed e ->
        count_source t Perso.Perso_cache.Bypass;
        run_unpersonalized t ~budget sql
          ~notes:
            [ "unpersonalized: profile load failed: " ^ Perso.Error.to_string e ]
    | `Open ->
        count_source t Perso.Perso_cache.Bypass;
        run_unpersonalized t ~budget sql
          ~notes:[ "unpersonalized: profile-store circuit breaker open" ]

  let exec_profile_save t user entries =
    let lines = profile_entry_lines entries in
    let n = List.length lines in
    match
      if n > max_profile_entries then
        Error
          (Printf.sprintf "PROFILE SAVE carries %d entries; at most %d allowed"
             n max_profile_entries)
      else if String.trim entries = "" then Ok Perso.Profile.empty
      else Perso.Profile.of_string (String.concat "\n" lines)
    with
    | Error e -> R_error (Perso.Error.Profile e)
    | Ok profile ->
        if not (Breaker.allow t.breaker) then begin
          locked t.qm (fun () -> t.c.shed_breaker <- t.c.shed_breaker + 1);
          R_error
            (Perso.Error.Overloaded
               "profile-store circuit breaker open; retry after cooldown")
        end
        else begin
          (* Only the user's shard write lock: queries under the main
             read lock, and saves for users on other shards, keep
             flowing. *)
          match
            Perso.Error.guard (fun () ->
                Store.with_user_write t.store ~user (fun sdb ->
                    Chaos.retry (fun () ->
                        if Perso.Profile.cardinal profile = 0 then
                          Perso.Profile_store.delete sdb ~user
                        else Perso.Profile_store.save sdb ~user profile)))
          with
          | Ok () ->
              Breaker.success t.breaker;
              R_message
                (Printf.sprintf "saved user=%s entries=%d" user
                   (Perso.Profile.cardinal profile))
          | Error e ->
              if is_storage_fault e then Breaker.failure t.breaker;
              R_error e
        end

  let exec_profile_show t user =
    match
      Store.with_user_read t.store ~user (fun sdb ->
          Perso.Profile_store.load_r sdb ~user)
    with
    | Error e -> R_error e
    | Ok profile ->
        let rows =
          List.map
            (fun (atom, deg) ->
              [|
                Value.Str (Perso.Atom.to_string atom);
                Value.Float (Perso.Degree.to_float deg);
              |])
            (Perso.Profile.entries profile)
        in
        R_rows
          {
            notes = [];
            result = { Exec.cols = [| "condition"; "degree" |]; rows };
          }

  let execute t job =
    match job.command with
    | Protocol.Run sql ->
        Rl.with_read t.dblock (fun () ->
            match
              Perso.Error.guard (fun () ->
                  Engine.run_sql ?gov:(gov_of job.budget) t.db sql)
            with
            | Ok result -> R_rows { notes = []; result }
            | Error e -> R_error e)
    | Protocol.Personalize { user; sql } ->
        Rl.with_read t.dblock (fun () ->
            exec_personalize t ~budget:job.budget user sql)
    | Protocol.Profile_save { user; entries } -> exec_profile_save t user entries
    | Protocol.Profile_show user -> exec_profile_show t user
    | Protocol.Health | Protocol.Ping | Protocol.Shutdown | Protocol.Quit ->
        (* control-plane commands never enter the queue *)
        R_error (Perso.Error.Internal "control command queued")

  (* ------------------------------ workers ---------------------------- *)

  (* Expiry check, execution, and completion accounting for one popped
     job.  A job shed for sitting past its deadline counts as
     [shed_expired], not [completed_*]: no work was started. *)
  let process t job =
    match job.deadline_at with
    | Some at when R.now () > at ->
        locked t.qm (fun () -> t.c.shed_expired <- t.c.shed_expired + 1);
        R_error
          (Perso.Error.Overloaded
             "deadline expired while queued; no work was started")
    | _ ->
        let reply =
          try execute t job with e -> R_error (Perso.Error.of_exn_any e)
        in
        locked t.qm (fun () ->
            (match reply with
            | R_error _ -> t.c.completed_err <- t.c.completed_err + 1
            | R_rows _ | R_message _ ->
                if not !mutate_drop_completed_ok then
                  t.c.completed_ok <- t.c.completed_ok + 1);
            match (job.command, reply) with
            | Protocol.Personalize _, R_error _ ->
                t.c.pers_err <- t.c.pers_err + 1
            | Protocol.Personalize _, (R_rows _ | R_message _) ->
                t.c.pers_ok <- t.c.pers_ok + 1
            | _ -> ());
        reply

  (* A running worker pops only while a slot is free: jobs run inline by
     {!submit_inline} hold slots too, so [in_flight] never exceeds
     [workers].  Only workers take slots in {!submit}'s queued path, so
     there a waiting worker always finds one free. *)
  let rec worker_loop t =
    R.lock t.qm;
    while
      (Queue.is_empty t.queue || t.in_flight >= t.cfg.workers)
      && t.phase = Running
    do
      R.wait t.qc t.qm
    done;
    (* Draining workers finish the queue; a stopped server's queue has
       already been flushed with Overloaded replies. *)
    if t.phase <> Stopped && not (Queue.is_empty t.queue) then begin
      let job = Queue.pop t.queue in
      t.in_flight <- t.in_flight + 1;
      R.unlock t.qm;
      let reply = process t job in
      locked t.qm (fun () ->
          t.in_flight <- t.in_flight - 1;
          R.broadcast t.qc);
      job_put job reply;
      worker_loop t
    end
    else begin
      let continue = t.phase = Running in
      R.unlock t.qm;
      if continue then worker_loop t
    end

  (* ----------------------------- admission --------------------------- *)

  let admit t (hdr : Protocol.header) command ~inline =
    let budget = cap_budget t.cfg hdr in
    let deadline_at =
      Option.map (fun ms -> R.now () +. (ms /. 1000.)) budget.Governor.deadline_ms
    in
    let new_job () =
      {
        command;
        budget;
        deadline_at;
        jm = R.mutex_create ();
        jc = R.cond_create ();
        answer = None;
      }
    in
    locked t.qm (fun () ->
        if t.phase <> Running then begin
          t.c.shed_draining <- t.c.shed_draining + 1;
          Error (Perso.Error.Overloaded "server draining; not accepting work")
        end
        else if
          inline && Queue.is_empty t.queue && t.in_flight < t.cfg.workers
        then begin
          t.c.accepted <- t.c.accepted + 1;
          t.in_flight <- t.in_flight + 1;
          Ok (`Inline (new_job ()))
        end
        else if Queue.length t.queue >= t.cfg.queue_capacity then begin
          t.c.shed_queue_full <- t.c.shed_queue_full + 1;
          Error
            (Perso.Error.Overloaded
               (Printf.sprintf "admission queue full (%d queued)"
                  t.cfg.queue_capacity))
        end
        else begin
          t.c.accepted <- t.c.accepted + 1;
          let job = new_job () in
          Queue.push job t.queue;
          R.signal t.qc;
          Ok (`Queued job)
        end)

  (* With [~inline], the job runs on the caller's thread when a slot is
     free and nothing is queued, so a request costs no handoff to a
     worker and back.  Its slot is released like a worker's, and a job
     queued meanwhile gets a worker. *)
  let submit_with ~inline t hdr command =
    match admit t hdr command ~inline with
    | Error e -> R_error e
    | Ok (`Queued job) -> job_take job
    | Ok (`Inline job) ->
        let reply = process t job in
        locked t.qm (fun () ->
            t.in_flight <- t.in_flight - 1;
            if not (Queue.is_empty t.queue) then R.signal t.qc);
        reply

  let submit = submit_with ~inline:false
  let submit_inline = submit_with ~inline:true

  (* ------------------------------ health ----------------------------- *)

  let phase_name = function
    | Running -> "running"
    | Draining -> "draining"
    | Stopped -> "stopped"

  let health t =
    let cache_stats = Store.cache_stats t.store in
    let store_stats = Store.store_stats t.store in
    let replica_stats = Store.replica_stats t.store in
    let plru_stats = Store.plru_stats t.store in
    let sstat f = string_of_int (match store_stats with None -> 0 | Some s -> f s) in
    let rstat f =
      string_of_int (match replica_stats with None -> 0 | Some s -> f s)
    in
    let backend_name =
      if store_stats = None then "memory"
      else if Store.replica_count t.store > 1 then "replicated"
      else "disk"
    in
    locked t.qm (fun () ->
        [
          ("state", phase_name t.phase);
          ("shards", string_of_int (Store.shard_count t.store));
          ("store_backend", backend_name);
          ("store_replicas", string_of_int (Store.replica_count t.store));
          ("store_appends", sstat (fun s -> s.Perso_store.Store.appends));
          ("store_compactions", sstat (fun s -> s.Perso_store.Store.compactions));
          ( "store_torn_truncated",
            sstat (fun s -> s.Perso_store.Store.torn_truncated) );
          ("store_failover", rstat (fun s -> s.Perso_store.Replica.failovers));
          ("store_salvaged", rstat (fun s -> s.Perso_store.Replica.salvaged));
          ( "store_quarantined",
            rstat (fun s -> s.Perso_store.Replica.quarantined) );
          ("store_catchups", rstat (fun s -> s.Perso_store.Replica.catchups));
          ( "store_ship_errors",
            rstat (fun s -> s.Perso_store.Replica.ship_errors) );
          ("queue_depth", string_of_int (Queue.length t.queue));
          ("in_flight", string_of_int t.in_flight);
          ("workers", string_of_int t.cfg.workers);
          ("queue_capacity", string_of_int t.cfg.queue_capacity);
          ("accepted", string_of_int t.c.accepted);
          ("completed_ok", string_of_int t.c.completed_ok);
          ("completed_err", string_of_int t.c.completed_err);
          ("shed_queue_full", string_of_int t.c.shed_queue_full);
          ("shed_expired", string_of_int t.c.shed_expired);
          ("shed_draining", string_of_int t.c.shed_draining);
          ("shed_breaker", string_of_int t.c.shed_breaker);
          ("breaker_state", Breaker.state_name (Breaker.state t.breaker));
          ("breaker_trips", string_of_int (Breaker.trips t.breaker));
          ("unpersonalized_breaker", string_of_int t.c.unpersonalized_breaker);
          ("pers_ok", string_of_int t.c.pers_ok);
          ("pers_err", string_of_int t.c.pers_err);
          ("cache_hit", string_of_int t.c.cache_hit);
          ("cache_miss", string_of_int t.c.cache_miss);
          ("cache_bypass", string_of_int t.c.cache_bypass);
          ("cache_invalidate", string_of_int cache_stats.invalidations);
          ("profile_lru_hit", string_of_int plru_stats.Profile_lru.hits);
          ("profile_lru_miss", string_of_int plru_stats.Profile_lru.misses);
        ])

  (* ---------------------------- stop / drain ------------------------- *)

  let request_stop t = Atomic.set t.stop_flag true
  let stop_requested t = Atomic.get t.stop_flag

  let begin_drain t =
    locked t.qm (fun () ->
        if t.phase = Running then t.phase <- Draining;
        R.broadcast t.qc)

  let draining t = locked t.qm (fun () -> t.phase <> Running)
  let stopped t = locked t.qm (fun () -> t.phase = Stopped)

  (* ------------------------------- probes ----------------------------- *)

  let lock_state t = Rl.holders t.dblock

  (* Main database rwlock first, then each shard's, in shard order —
     every one must satisfy the same exclusion invariant. *)
  let lock_states t = Rl.holders t.dblock :: Store.lock_states t.store

  (* ------------------------------- start ------------------------------ *)

  let create cfg db =
    if cfg.workers < 1 then invalid_arg "Server: workers must be >= 1";
    if cfg.queue_capacity < 1 then
      invalid_arg "Server: queue_capacity must be >= 1";
    if cfg.shards < 1 then invalid_arg "Server: shards must be >= 1";
    if cfg.replicas < 1 then invalid_arg "Server: replicas must be >= 1";
    if cfg.profile_lru_entries < 0 then
      invalid_arg "Server: profile_lru_entries must be >= 0";
    (* One cache per shard, each bound to its shard database via
       [store_db] (revision reads and invalidation events) while
       queries still run against the main database.  Each cache
       serializes its state behind its own runtime mutex, so the sim
       runtime exercises the same code single-threaded under virtual
       time.  Lock order is dblock -> shard lock -> cache lock
       (personalize under the read locks, store hooks under the shard
       write lock); nothing takes them the other way.  The configured
       entry/byte budget is split across the shards so the total
       footprint stays what the config says. *)
    let mk_cache ~store_db =
      let cm = R.mutex_create () in
      let lock =
        {
          Perso.Perso_cache.with_lock =
            (fun f ->
              R.lock cm;
              Fun.protect ~finally:(fun () -> R.unlock cm) f);
        }
      in
      Perso.Perso_cache.create ~lock
        ~max_entries:(max 1 (cfg.cache_entries / cfg.shards))
        ~max_bytes:
          (max 4096
             (int_of_float (cfg.cache_mb *. 1024. *. 1024.) / cfg.shards))
        ~store_db db
    in
    (* One hot-profile LRU per shard, behind the same runtime-mutex
       locker shape as the plan cache (innermost lock level).  The
       configured entry budget is split across the shards. *)
    let mk_plru () =
      let lm = R.mutex_create () in
      let lock =
        {
          Perso.Perso_cache.with_lock =
            (fun f ->
              R.lock lm;
              Fun.protect ~finally:(fun () -> R.unlock lm) f);
        }
      in
      Profile_lru.create ~lock
        ~capacity:(max 1 (cfg.profile_lru_entries / cfg.shards))
        ()
    in
    let store =
      Store.create
        ?cache:(if cfg.cache then Some mk_cache else None)
        ?profile_lru:
          (if cfg.profile_lru_entries > 0 then Some mk_plru else None)
        ?persist:cfg.store_dir ~replicas:cfg.replicas ~shards:cfg.shards db
    in
    let t =
      {
        cfg;
        db;
        dblock = Rl.create ();
        store;
        breaker =
          Breaker.create
            ~now:(fun () -> R.now () *. 1000.)
            ~threshold:cfg.breaker_threshold
            ~cooldown_ms:cfg.breaker_cooldown_ms ();
        qm = R.mutex_create ();
        qc = R.cond_create ();
        queue = Queue.create ();
        phase = Running;
        in_flight = 0;
        c =
          {
            accepted = 0;
            completed_ok = 0;
            completed_err = 0;
            shed_queue_full = 0;
            shed_expired = 0;
            shed_draining = 0;
            shed_breaker = 0;
            unpersonalized_breaker = 0;
            pers_ok = 0;
            pers_err = 0;
            cache_hit = 0;
            cache_miss = 0;
            cache_bypass = 0;
          };
        stop_flag = Atomic.make false;
        worker_threads = [];
        sm = R.mutex_create ();
        stop_outcome = None;
      }
    in
    t.worker_threads <-
      List.init cfg.workers (fun _ -> R.spawn (fun () -> worker_loop t));
    t

  (* -------------------------------- stop ------------------------------ *)

  let flush_queue t =
    locked t.qm (fun () ->
        let shed = ref 0 in
        while not (Queue.is_empty t.queue) do
          let job = Queue.pop t.queue in
          incr shed;
          t.c.shed_draining <- t.c.shed_draining + 1;
          job_put job
            (R_error
               (Perso.Error.Overloaded "server stopped before this request ran"))
        done;
        !shed)

  (* [on_quiesced] runs after the workers have joined but before the
     crash-safe dump — the socket layer tears down its acceptor and
     connections there, preserving the original stop ordering. *)
  let stop ?(on_quiesced = fun () -> ()) t =
    locked t.sm (fun () ->
        match t.stop_outcome with
        | Some o -> o
        | None ->
            request_stop t;
            begin_drain t;
            (* Drain: give queued + in-flight work drain_ms to finish. *)
            let deadline = R.now () +. (t.cfg.drain_ms /. 1000.) in
            let rec drain () =
              let idle =
                locked t.qm (fun () ->
                    Queue.is_empty t.queue && t.in_flight = 0)
              in
              if idle then true
              else if R.now () > deadline then false
              else begin
                R.sleep 0.005;
                drain ()
              end
            in
            let drained = drain () in
            let shed_at_stop = flush_queue t in
            locked t.qm (fun () ->
                t.phase <- Stopped;
                R.broadcast t.qc);
            List.iter R.join t.worker_threads;
            on_quiesced ();
            (* Workers are gone: consolidate the shard profiles back
               into the main catalog so the dump (and any caller
               inspecting the database after stop) sees every profile
               saved while serving. *)
            Store.merge_back t.store;
            let dump =
              Option.map
                (fun dir ->
                  match
                    Rl.with_read t.dblock (fun () -> Csv.save_db_r ~dir t.db)
                  with
                  | Ok () -> Ok dir
                  | Error e -> Error e)
                t.cfg.dump_dir
            in
            let outcome = { drained; shed_at_stop; dump } in
            t.stop_outcome <- Some outcome;
            outcome)
end
