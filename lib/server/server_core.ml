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

type drain_outcome = { drained : bool; shed_at_stop : int }

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

let max_profile_entries = 4096

module Make (R : Runtime.S) = struct
  module Store = Sharded_store.Make (R)

  (* ------------------------------ tickets ---------------------------- *)

  (* A request that finds every slot taken waits in the queue on its own
     ticket, under the core's mutex.  The request that frees a slot hands
     it to the oldest ticket ([Granted]); [stop] sheds the tickets still
     waiting. *)
  type ticket_state = Waiting | Granted | Shed

  type ticket = { tc : R.cond; mutable state : ticket_state }

  (* ------------------------------ server ----------------------------- *)

  type phase = Running | Draining | Stopped

  type counters = {
    mutable accepted : int;
    mutable completed_ok : int;
    mutable completed_err : int;
    mutable shed_queue_full : int;
    mutable shed_expired : int;
    mutable shed_draining : int;
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
    store : Store.t;
    qm : R.mutex;
    queue : ticket Queue.t;
    mutable phase : phase;
    mutable in_flight : int;  (* slots held: admitted requests running *)
    c : counters;
    stop_flag : bool Atomic.t;
    sm : R.mutex;  (* serializes stop *)
    mutable stop_outcome : drain_outcome option;
  }

  let locked m f =
    R.lock m;
    Fun.protect ~finally:(fun () -> R.unlock m) f

  (* ----------------------------- execution --------------------------- *)

  let run_sql t ~budget ~notes sql =
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
    (* Load {e and} the cache consult + personalization run stay
       together under the user's shard read lock, so a concurrent save
       for the same user cannot slip between them (a profile snapshot
       cached under the save's new revision would serve stale plans).
       Lock order shard -> cache.

       A failed load degrades this request alone to the plain query,
       with an explanatory NOTE: the same contract as the
       personalization ladder.  The fallback touches no profile state
       and runs outside the shard lock. *)
    match
      Store.with_user_read t.store ~user (fun sdb ->
          Store.load_profile t.store ~user sdb
          |> Result.map (fun p ->
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
                     R_rows { notes; result = run.Perso.Personalize.result }
                 | Error e -> R_error e))
    with
    | Ok reply -> reply
    | Error e ->
        count_source t Perso.Perso_cache.Bypass;
        run_sql t ~budget sql
          ~notes:
            [ "unpersonalized: profile load failed: " ^ Perso.Error.to_string e ]

  let exec_profile_save t user entries =
    let lines = Perso.Profile.entry_lines entries in
    let n = List.length lines in
    match
      if n > max_profile_entries then
        Error
          (Printf.sprintf "PROFILE SAVE carries %d entries; at most %d allowed"
             n max_profile_entries)
      else if String.trim entries = "" then Ok Perso.Profile.empty
      else
        (* An entry the catalog cannot bind would fail every later
           PERSONALIZE that selects it: refuse it here. *)
        Result.bind (Perso.Profile.of_string (String.concat "\n" lines))
          (fun profile ->
            match Perso.Profile.validate t.db profile with
            | Ok () -> Ok profile
            | Error errs ->
                Error
                  ("PROFILE SAVE entry does not bind: " ^ String.concat "; " errs))
    with
    | Error e -> R_error (Perso.Error.Profile e)
    | Ok profile -> (
        (* Only the user's shard write lock: queries, and saves for
           users on other shards, keep flowing.  A failed save returns
           the typed error it raised. *)
        match
          Perso.Error.guard (fun () ->
              Store.with_user_write t.store ~user (fun sdb ->
                  Chaos.retry (fun () ->
                      if Perso.Profile.cardinal profile = 0 then
                        Perso.Profile_store.delete sdb ~user
                      else Perso.Profile_store.save sdb ~user profile)))
        with
        | Ok () ->
            R_message
              (Printf.sprintf "saved user=%s entries=%d" user
                 (Perso.Profile.cardinal profile))
        | Error e -> R_error e)

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

  let execute t ~budget command =
    match command with
    | Protocol.Run sql -> run_sql t ~budget ~notes:[] sql
    | Protocol.Personalize { user; sql } -> exec_personalize t ~budget user sql
    | Protocol.Profile_save { user; entries } -> exec_profile_save t user entries
    | Protocol.Profile_show user -> exec_profile_show t user
    | Protocol.Health | Protocol.Ping | Protocol.Shutdown | Protocol.Quit ->
        (* control-plane commands never enter the queue *)
        R_error (Perso.Error.Internal "control command queued")

  (* ----------------------------- admission --------------------------- *)

  (* A slot when one is free and nothing is queued; otherwise a place in
     the bounded queue, where the caller waits for a slot handed over by
     [release] (or for [stop] to shed it); otherwise a shed.  Slots are
     only taken here, so at most [workers] requests run at once. *)
  let admit t =
    locked t.qm (fun () ->
        if t.phase <> Running then begin
          t.c.shed_draining <- t.c.shed_draining + 1;
          Error (Perso.Error.Overloaded "server draining; not accepting work")
        end
        else if Queue.is_empty t.queue && t.in_flight < t.cfg.workers
        then begin
          t.c.accepted <- t.c.accepted + 1;
          t.in_flight <- t.in_flight + 1;
          Ok ()
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
          let ticket = { tc = R.cond_create (); state = Waiting } in
          Queue.push ticket t.queue;
          while ticket.state = Waiting do
            R.wait ticket.tc t.qm
          done;
          if ticket.state = Granted then Ok ()
          else
            Error
              (Perso.Error.Overloaded "server stopped before this request ran")
        end)

  (* Under [qm]: completion accounting, then the slot goes to the oldest
     ticket, or is freed when none waits.  A request shed for sitting
     queued past its deadline counts as [shed_expired], not
     [completed_*]: no work was started. *)
  let release t command reply ~expired =
    if expired then t.c.shed_expired <- t.c.shed_expired + 1
    else begin
      (match reply with
      | R_error _ -> t.c.completed_err <- t.c.completed_err + 1
      | R_rows _ | R_message _ ->
          if not !mutate_drop_completed_ok then
            t.c.completed_ok <- t.c.completed_ok + 1);
      match (command, reply) with
      | Protocol.Personalize _, R_error _ -> t.c.pers_err <- t.c.pers_err + 1
      | Protocol.Personalize _, (R_rows _ | R_message _) ->
          t.c.pers_ok <- t.c.pers_ok + 1
      | _ -> ()
    end;
    match Queue.take_opt t.queue with
    | Some ticket ->
        ticket.state <- Granted;
        R.signal ticket.tc
    | None -> t.in_flight <- t.in_flight - 1

  (* Every admitted request runs on the thread that submitted it. *)
  let submit t hdr command =
    let budget = cap_budget t.cfg hdr in
    let deadline_at =
      Option.map (fun ms -> R.now () +. (ms /. 1000.)) budget.Governor.deadline_ms
    in
    match admit t with
    | Error e -> R_error e
    | Ok () ->
        let expired =
          match deadline_at with Some at -> R.now () > at | None -> false
        in
        let reply =
          if expired then
            R_error
              (Perso.Error.Overloaded
                 "deadline expired while queued; no work was started")
          else
            try execute t ~budget command
            with e -> R_error (Perso.Error.of_exn_any e)
        in
        locked t.qm (fun () -> release t command reply ~expired);
        reply

  (* ------------------------------ health ----------------------------- *)

  let phase_name = function
    | Running -> "running"
    | Draining -> "draining"
    | Stopped -> "stopped"

  let health t =
    let cache_stats = Store.cache_stats t.store in
    let store_stats = Store.store_stats t.store in
    let plru_stats = Store.plru_stats t.store in
    let sstat f = string_of_int (match store_stats with None -> 0 | Some s -> f s) in
    let backend_name = if store_stats = None then "memory" else "disk" in
    locked t.qm (fun () ->
        [
          ("state", phase_name t.phase);
          ("shards", string_of_int (Store.shard_count t.store));
          ("store_backend", backend_name);
          ("store_appends", sstat (fun s -> s.Perso_store.Store.appends));
          ("store_compactions", sstat (fun s -> s.Perso_store.Store.compactions));
          ( "store_torn_truncated",
            sstat (fun s -> s.Perso_store.Store.torn_truncated) );
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
    locked t.qm (fun () -> if t.phase = Running then t.phase <- Draining)

  let draining t = locked t.qm (fun () -> t.phase <> Running)
  let stopped t = locked t.qm (fun () -> t.phase = Stopped)

  (* ------------------------------- probes ----------------------------- *)

  (* Each shard's rwlock, in shard order — every one must satisfy the
     same exclusion invariant. *)
  let lock_states t = Store.lock_states t.store

  (* Read without [qm], the way [lock_states] reads the rwlocks: the sim
     probes between scheduler steps, when no task is inside a critical
     section. *)
  let slots t = (t.in_flight, t.cfg.workers)

  (* ------------------------------- start ------------------------------ *)

  let create cfg db =
    if cfg.workers < 1 then invalid_arg "Server: workers must be >= 1";
    if cfg.queue_capacity < 1 then
      invalid_arg "Server: queue_capacity must be >= 1";
    if cfg.shards < 1 then invalid_arg "Server: shards must be >= 1";
    if cfg.profile_lru_entries < 0 then
      invalid_arg "Server: profile_lru_entries must be >= 0";
    (* One cache per shard, each bound to its shard database via
       [store_db] (revision reads and invalidation events) while
       queries still run against the main database.  Each cache
       serializes its state behind its own runtime mutex, so the sim
       runtime exercises the same code single-threaded under virtual
       time.  Lock order is shard lock -> cache lock (personalize
       under the shard read lock, store hooks under the shard write
       lock); nothing takes them the other way.  The configured
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
    {
      cfg;
      db;
      store;
      qm = R.mutex_create ();
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
          pers_ok = 0;
          pers_err = 0;
          cache_hit = 0;
          cache_miss = 0;
          cache_bypass = 0;
        };
      stop_flag = Atomic.make false;
      sm = R.mutex_create ();
      stop_outcome = None;
    }

  (* -------------------------------- stop ------------------------------ *)

  (* Shed the tickets still waiting, and stop; a request still running
     finishes and frees its slot. *)
  let flush_queue t =
    locked t.qm (fun () ->
        let shed = Queue.length t.queue in
        Queue.iter
          (fun ticket ->
            ticket.state <- Shed;
            R.signal ticket.tc)
          t.queue;
        Queue.clear t.queue;
        t.c.shed_draining <- t.c.shed_draining + shed;
        t.phase <- Stopped;
        shed)

  (* Poll [idle] under [qm] until it holds, or until [deadline] passes. *)
  let rec await_idle ?deadline t idle =
    if locked t.qm idle then true
    else
      match deadline with
      | Some d when R.now () > d -> false
      | _ ->
          R.sleep 0.005;
          await_idle ?deadline t idle

  (* [on_quiesced] runs once no request is in flight, before the
     shards merge back — the socket layer tears down its acceptor and
     connections there. *)
  let stop ?(on_quiesced = fun () -> ()) t =
    locked t.sm (fun () ->
        match t.stop_outcome with
        | Some o -> o
        | None ->
            request_stop t;
            begin_drain t;
            (* Drain: give queued + in-flight work drain_ms to finish. *)
            let drained =
              await_idle t
                ~deadline:(R.now () +. (t.cfg.drain_ms /. 1000.))
                (fun () -> Queue.is_empty t.queue && t.in_flight = 0)
            in
            let shed_at_stop = flush_queue t in
            ignore (await_idle t (fun () -> t.in_flight = 0) : bool);
            on_quiesced ();
            (* Nothing runs any more: consolidate the shard profiles
               back into the main catalog so a caller inspecting the
               database after stop sees every profile saved while
               serving. *)
            Store.merge_back t.store;
            let outcome = { drained; shed_at_stop } in
            t.stop_outcome <- Some outcome;
            outcome)
end
