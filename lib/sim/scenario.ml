module Core = Perso_server.Server_core.Make (Sim_runtime.R)
module Protocol = Perso_server.Protocol
module Server_core = Perso_server.Server_core

type req =
  | Run_sql of int
  | Pers of int
  | Save of int
  | Load
  | Health_probe

type step =
  | Request of { cid : int; req : req; deadline_ms : int option }
  | Advance of int
  | Chaos_on of { cseed : int; permille : int }
  | Chaos_off
  | Drain

(* ------------------------------ encoding ----------------------------- *)

let step_to_string = function
  | Request { cid; req; deadline_ms } ->
      let body =
        match req with
        | Run_sql i -> Printf.sprintf "q%d" i
        | Pers i -> Printf.sprintf "p%d" i
        | Save i -> Printf.sprintf "s%d" i
        | Load -> "l"
        | Health_probe -> "h"
      in
      let dl =
        match deadline_ms with Some d -> Printf.sprintf "@%d" d | None -> ""
      in
      Printf.sprintf "r%d.%s%s" cid body dl
  | Advance ms -> Printf.sprintf "a%d" ms
  | Chaos_on { cseed; permille } -> Printf.sprintf "c%dx%d" cseed permille
  | Chaos_off -> "coff"
  | Drain -> "drain"

let steps_to_string steps = String.concat "," (List.map step_to_string steps)

let step_of_string s =
  let fail () = Error (Printf.sprintf "bad step %S" s) in
  let int_of str = int_of_string_opt str in
  if s = "drain" then Ok Drain
  else if s = "coff" then Ok Chaos_off
  else if String.length s >= 2 && s.[0] = 'a' then
    match int_of (String.sub s 1 (String.length s - 1)) with
    | Some ms -> Ok (Advance ms)
    | None -> fail ()
  else if String.length s >= 2 && s.[0] = 'c' then (
    match String.index_opt s 'x' with
    | None -> fail ()
    | Some i -> (
        match
          ( int_of (String.sub s 1 (i - 1)),
            int_of (String.sub s (i + 1) (String.length s - i - 1)) )
        with
        | Some cseed, Some permille -> Ok (Chaos_on { cseed; permille })
        | _ -> fail ()))
  else if String.length s >= 4 && s.[0] = 'r' then (
    match String.index_opt s '.' with
    | None -> fail ()
    | Some dot -> (
        match int_of (String.sub s 1 (dot - 1)) with
        | None -> fail ()
        | Some cid -> (
            let rest = String.sub s (dot + 1) (String.length s - dot - 1) in
            let body, deadline_ms =
              match String.index_opt rest '@' with
              | None -> (rest, Ok None)
              | Some at -> (
                  ( String.sub rest 0 at,
                    match
                      int_of
                        (String.sub rest (at + 1) (String.length rest - at - 1))
                    with
                    | Some d -> Ok (Some d)
                    | None -> Error () ))
            in
            match deadline_ms with
            | Error () -> fail ()
            | Ok deadline_ms -> (
                let idx tail =
                  int_of (String.sub body 1 (String.length body - 1))
                  |> Option.map tail
                in
                let req =
                  if body = "l" then Some Load
                  else if body = "h" then Some Health_probe
                  else if String.length body >= 2 && body.[0] = 'q' then
                    idx (fun i -> Run_sql i)
                  else if String.length body >= 2 && body.[0] = 'p' then
                    idx (fun i -> Pers i)
                  else if String.length body >= 2 && body.[0] = 's' then
                    idx (fun i -> Save i)
                  else None
                in
                match req with
                | Some req -> Ok (Request { cid; req; deadline_ms })
                | None -> fail ()))))
  else fail ()

let steps_of_string s =
  String.split_on_char ',' s
  |> List.filter (fun s -> String.trim s <> "")
  |> List.fold_left
       (fun acc chunk ->
         match (acc, step_of_string (String.trim chunk)) with
         | Error e, _ -> Error e
         | Ok _, Error e -> Error e
         | Ok steps, Ok st -> Ok (st :: steps))
       (Ok [])
  |> Result.map List.rev

(* ------------------------------ generator ---------------------------- *)

let n_queries = 6
let n_save_variants = 4

let generate ~seed =
  let rng = Putil.Rng.create (0x5ce9a510 + (seed * 7919)) in
  let n_clients = Putil.Rng.int_in rng 2 4 in
  let n = Putil.Rng.int_in rng 12 40 in
  let random_request rng =
    let cid = Putil.Rng.int rng n_clients in
    let req =
      match Putil.Rng.int rng 100 with
      | x when x < 40 -> Run_sql (Putil.Rng.int rng n_queries)
      | x when x < 65 -> Pers (Putil.Rng.int rng n_queries)
      | x when x < 80 -> Save (Putil.Rng.int rng n_save_variants)
      | x when x < 92 -> Load
      | _ -> Health_probe
    in
    let deadline_ms =
      if Putil.Rng.int rng 100 < 25 then Some (Putil.Rng.int_in rng 5 300)
      else None
    in
    Request { cid; req; deadline_ms }
  in
  let steps =
    List.init n (fun _ ->
        match Putil.Rng.int rng 100 with
        | roll when roll < 55 -> random_request rng
        | roll when roll < 80 -> Advance (Putil.Rng.int_in rng 5 400)
        | roll when roll < 88 ->
            Chaos_on
              {
                cseed = Putil.Rng.int rng 100_000;
                permille = Putil.Rng.int_in rng 20 250;
              }
        | roll when roll < 94 -> Chaos_off
        | _ -> Advance (Putil.Rng.int_in rng 50 150))
  in
  (* Half the scenarios drain mid-traffic, then keep submitting so the
     admission-time shed path is exercised. *)
  if Putil.Rng.bool rng then
    let after = List.init (Putil.Rng.int_in rng 0 3) (fun _ -> random_request rng) in
    steps @ (Drain :: after) @ [ Advance 50 ]
  else steps

(* -------------------------------- runner ----------------------------- *)

type failure = { invariant : string; detail : string }

type result = {
  verdict : (unit, failure) Stdlib.result;
  digest : string;
  sched_steps : int;
  vnow : float;
  n_steps : int;
}

let save_variants =
  [|
    "[ GENRE.genre = 'comedy', 0.9 ] [ MOVIE.mid = GENRE.mid, 0.8 ]";
    "[ ACTOR.name = 'N. Kidman', 0.7 ] [ CAST.aid = ACTOR.aid, 0.9 ] [ \
     MOVIE.mid = CAST.mid, 0.9 ]";
    "";
    "[ not a condition, 2 ]";
  |]

let server_config =
  {
    (Server_core.default_config ~socket_path:"<sim>") with
    workers = 2;
    queue_capacity = 3;
    (* The server-side deadline cap stays on: queue expiry only trips
       when a scenario's [Advance] steps move virtual time, which is
       exactly the determinism the harness wants. *)
    deadline_ms = Some 2_000.;
    max_rows = Some 200_000;
    max_expansions = Some 2_000;
    drain_ms = 300.;
  }

(* Fresh per-run store roots for the durable-tier sweep.  Uniqueness
   comes from pid + a counter, so two runs of the same seed never share
   a directory; the path itself stays out of digests and audit
   messages, keeping same-seed runs byte-identical. *)
let dir_counter = ref 0

let fresh_store_root () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "perso-sim-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Sys.mkdir dir 0o700;
  dir

type mailbox = {
  mm : Sched.mutex;
  mc : Sched.cond;
  items : (int * req * int option) Queue.t;
  mutable closed : bool;
}

exception Audit of failure

let audit invariant fmt =
  Printf.ksprintf (fun detail -> raise (Audit { invariant; detail })) fmt

let hstat health name =
  match List.assoc_opt name health with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> -1)
  | None -> -1

let run ~seed steps =
  let n_steps = List.length steps in
  let steps_arr = Array.of_list steps in
  let n_clients =
    1
    + Array.fold_left
        (fun m -> function Request { cid; _ } -> max m cid | _ -> m)
        0 steps_arr
  in
  let db = Moviedb.Personas.tiny_db () in
  (* Even seeds run the durable profile tier under the scenario, so the
     sweep alternates memory and disk backends deterministically. *)
  let store_root = if seed land 1 = 0 then Some (fresh_store_root ()) else None in
  let sqls =
    Moviedb.Workload.queries db ~n:n_queries ~seed:(seed + 17)
    |> List.map Relal.Sql_print.query_to_string
    |> Array.of_list
  in
  (* Per-step outcome summaries; write-once (a second write is the
     "duplicate reply" violation). *)
  let outcomes = Array.make (max n_steps 1) None in
  let record idx summary =
    match outcomes.(idx) with
    | Some prev ->
        Sched.fail
          (Printf.sprintf "duplicate-reply: step %d answered %S then %S" idx
             prev summary)
    | None -> outcomes.(idx) <- Some summary
  in
  let submits = ref 0 in
  let client_ok = ref 0 in
  let final_health = ref [] in
  let stop_elapsed = ref 0. in
  let drain_outcome = ref None in
  let prev_mutate = !Server_core.mutate_drop_completed_ok in
  Relal.Chaos.set_sleep (fun ms -> Sched.sleep (ms /. 1000.));
  Relal.Governor.set_clock (fun () -> Sched.now ());
  let restore () =
    Relal.Governor.set_clock Relal.Governor.real_clock;
    Relal.Chaos.set_sleep ignore;
    Relal.Chaos.disarm ();
    Server_core.mutate_drop_completed_ok := prev_mutate;
    Option.iter Relal.Csv.rm_rf store_root
  in
  Fun.protect ~finally:restore @@ fun () ->
  let main () =
    (* The shard count derives from the seed so the sweep exercises
       the sharded store at several widths, deterministically. *)
    let core =
      Core.create
        { server_config with shards = 1 + (seed mod 3); store_dir = store_root }
        db
    in
    Sched.add_probe (fun () ->
        (* Every profile-shard rwlock must satisfy exclusion — the
           cross-shard audit. *)
        List.iteri
          (fun i (readers, writer) ->
            if writer && readers > 0 then
              Sched.fail
                (Printf.sprintf
                   "rwlock-exclusion: lock %d writer active with %d reader(s)"
                   i readers))
          (Core.lock_states core));
    Sched.add_probe (fun () ->
        (* At most [workers] admitted requests run at once, drains
           included. *)
        let in_flight, workers = Core.slots core in
        if in_flight > workers then
          Sched.fail
            (Printf.sprintf "slot-cap: %d requests in flight with %d workers"
               in_flight workers));
    let mailboxes =
      Array.init n_clients (fun _ ->
          {
            mm = Sched.mutex_create ();
            mc = Sched.cond_create ();
            items = Queue.create ();
            closed = false;
          })
    in
    let exec_request cid idx req deadline_ms =
      match req with
      | Health_probe ->
          (* Control plane: answered off-queue, like a connection
             thread does. *)
          let h = Core.health core in
          record idx (Printf.sprintf "health:%s" (List.assoc "state" h))
      | _ ->
          incr submits;
          let user = Printf.sprintf "u%d" cid in
          let cmd =
            match req with
            | Run_sql i -> Protocol.Run sqls.(i mod Array.length sqls)
            | Pers i ->
                Protocol.Personalize
                  { user; sql = sqls.(i mod Array.length sqls) }
            | Save i ->
                Protocol.Profile_save
                  { user; entries = save_variants.(i mod n_save_variants) }
            | Load -> Protocol.Profile_show user
            | Health_probe -> assert false
          in
          let hdr =
            {
              Protocol.empty_header with
              deadline_ms = Option.map float_of_int deadline_ms;
            }
          in
          let summary =
            match Core.submit core hdr cmd with
            | Server_core.R_rows { result; _ } ->
                incr client_ok;
                Printf.sprintf "rows:%d" (List.length result.Relal.Exec.rows)
            | Server_core.R_message _ ->
                incr client_ok;
                "msg"
            | Server_core.R_error e ->
                Printf.sprintf "err:%s" (Perso.Error.family_name e)
          in
          record idx summary
    in
    let client cid =
      let mb = mailboxes.(cid) in
      let rec loop () =
        Sched.lock mb.mm;
        while Queue.is_empty mb.items && not mb.closed do
          Sched.wait mb.mc mb.mm
        done;
        if Queue.is_empty mb.items then Sched.unlock mb.mm
        else begin
          let idx, req, deadline_ms = Queue.pop mb.items in
          Sched.unlock mb.mm;
          exec_request cid idx req deadline_ms;
          loop ()
        end
      in
      loop ()
    in
    let clients =
      List.init n_clients (fun cid ->
          Sched.spawn ~name:(Printf.sprintf "client-%d" cid) (fun () ->
              client cid))
    in
    let driver () =
      Array.iteri
        (fun idx step ->
          match step with
          | Request { cid; req; deadline_ms } ->
              let mb = mailboxes.(cid) in
              Sched.lock mb.mm;
              Queue.push (idx, req, deadline_ms) mb.items;
              Sched.signal mb.mc;
              Sched.unlock mb.mm
          | Advance ms -> Sched.sleep (float_of_int ms /. 1000.)
          | Chaos_on { cseed; permille } ->
              ignore
                (Relal.Chaos.arm ~seed:cseed
                   ~p:(float_of_int permille /. 1000.)
                   ()
                  : Relal.Chaos.stats)
          | Chaos_off -> Relal.Chaos.disarm ()
          | Drain ->
              Core.request_stop core;
              Core.begin_drain core)
        steps_arr;
      Array.iter
        (fun mb ->
          Sched.lock mb.mm;
          mb.closed <- true;
          Sched.broadcast mb.mc;
          Sched.unlock mb.mm)
        mailboxes
    in
    let d = Sched.spawn ~name:"driver" driver in
    Sched.join d;
    List.iter Sched.join clients;
    let t0 = Sched.now () in
    drain_outcome := Some (Core.stop core);
    stop_elapsed := Sched.now () -. t0;
    final_health := Core.health core
  in
  let sched = Sched.run ~seed main in
  let audits () =
    (match sched.Sched.result with
    | Ok () -> ()
    | Error msg ->
        let invariant =
          match String.index_opt msg ':' with
          | Some i when String.sub msg 0 i = "duplicate-reply" ->
              "duplicate-reply"
          | Some i when String.sub msg 0 i = "rwlock-exclusion" ->
              "rwlock-exclusion"
          | Some i when String.sub msg 0 i = "slot-cap" -> "slot-cap"
          | _ ->
              if String.length msg >= 8 && String.sub msg 0 8 = "deadlock"
              then "deadlock"
              else "sched"
        in
        raise (Audit { invariant; detail = msg }));
    (* every dispatched request got exactly one reply *)
    Array.iteri
      (fun idx step ->
        match step with
        | Request _ when outcomes.(idx) = None ->
            audit "lost-reply" "step %d (%s) never answered" idx
              (step_to_string step)
        | _ -> ())
      steps_arr;
    let h = !final_health in
    let d_outcome =
      match !drain_outcome with
      | Some o -> o
      | None -> audit "sched" "server never stopped"
    in
    let accepted = hstat h "accepted" in
    let completed_ok = hstat h "completed_ok" in
    let completed_err = hstat h "completed_err" in
    let shed_queue_full = hstat h "shed_queue_full" in
    let shed_expired = hstat h "shed_expired" in
    let shed_draining = hstat h "shed_draining" in
    let queue_depth = hstat h "queue_depth" in
    let in_flight = hstat h "in_flight" in
    let shed_at_stop = d_outcome.Server_core.shed_at_stop in
    if List.assoc_opt "state" h <> Some "stopped" then
      audit "ledger" "server not stopped after stop: %s"
        (Option.value ~default:"?" (List.assoc_opt "state" h));
    if queue_depth <> 0 || in_flight <> 0 then
      audit "ledger" "residual work after stop: queue=%d in_flight=%d"
        queue_depth in_flight;
    let arrivals_rhs = accepted + shed_queue_full + (shed_draining - shed_at_stop) in
    if !submits <> arrivals_rhs then
      audit "ledger"
        "arrivals %d <> accepted %d + shed_queue_full %d + shed_draining' %d"
        !submits accepted shed_queue_full
        (shed_draining - shed_at_stop);
    let accepted_rhs =
      completed_ok + completed_err + shed_expired + shed_at_stop
    in
    if accepted <> accepted_rhs then
      audit "ledger"
        "accepted %d <> completed_ok %d + completed_err %d + shed_expired %d \
         + shed_at_stop %d"
        accepted completed_ok completed_err shed_expired shed_at_stop;
    if !client_ok <> completed_ok then
      audit "ledger" "client-observed successes %d <> completed_ok %d"
        !client_ok completed_ok;
    (* Personalization sub-ledger: every completed PERSONALIZE reply is
       accounted once by outcome and once by plan source. *)
    let pers_ok = hstat h "pers_ok" in
    let pers_err = hstat h "pers_err" in
    let cache_hit = hstat h "cache_hit" in
    let cache_miss = hstat h "cache_miss" in
    let cache_bypass = hstat h "cache_bypass" in
    if pers_ok + pers_err <> cache_hit + cache_miss + cache_bypass then
      audit "ledger"
        "pers_ok %d + pers_err %d <> cache_hit %d + cache_miss %d + \
         cache_bypass %d"
        pers_ok pers_err cache_hit cache_miss cache_bypass;
    if pers_ok + pers_err > completed_ok + completed_err then
      audit "ledger" "personalize completions %d exceed total completions %d"
        (pers_ok + pers_err)
        (completed_ok + completed_err);
    (* Drain bound: drain_ms plus a bounded tail (in-flight jobs finish
       their retries; backoff waits are capped at 100 ms each). *)
    let bound = (server_config.Server_core.drain_ms /. 1000.) +. 0.5 in
    if !stop_elapsed > bound then
      audit "drain-bound" "stop took %.3fs of virtual time (bound %.3fs)"
        !stop_elapsed bound;
    (* Durable-tier audit: after stop (merge_back has synced and closed
       the stores), reopen every shard store cold — running the same
       crash-recovery path a restart would — and require agreement with
       the main catalog: entries per live user, and the revision
       high-water marks.  Detail strings avoid the per-run directory
       path so a failure is still digest-deterministic. *)
    Option.iter
      (fun root ->
        (* A [c<seed>x<permille>] step leaves fault injection armed past
           stop; the audit checks what was persisted, so it reopens
           with no faults. *)
        Relal.Chaos.disarm ();
        let n = 1 + (seed mod 3) in
        let catalog_rows_of user =
          match Relal.Database.find_table db Perso.Profile_store.table_name with
          | None -> []
          | Some t ->
              Relal.Table.to_list t
              |> List.filter_map (fun row ->
                     match (row.(0), row.(1), row.(2)) with
                     | ( Relal.Value.Str u,
                         Relal.Value.Str c,
                         Relal.Value.Float d )
                       when u = user ->
                         Some (c, d)
                     | _ -> None)
        in
        let main_revs = Perso.Profile_store.revisions db in
        let store_revs = ref [] in
        for i = 0 to n - 1 do
          let s =
            Perso_store.Store.open_ (Perso_store.Store.shard_dir root i)
          in
          Fun.protect ~finally:(fun () -> Perso_store.Store.close s)
          @@ fun () ->
          store_revs := !store_revs @ Perso_store.Store.revisions s;
          List.iter
            (fun user ->
              let got =
                Perso_store.Store.load s ~user
                |> Option.value ~default:[]
                |> List.map (fun e ->
                       (e.Perso_store.Codec.cond, e.Perso_store.Codec.degree))
              in
              let want = catalog_rows_of user in
              if got <> want then
                audit "persistence"
                  "shard %d user %s: %d recovered entries <> %d catalog rows"
                  i user (List.length got) (List.length want))
            (Perso_store.Store.users s)
        done;
        (* The registry's marks must all be in the store at the same
           value; the store may additionally hold revision-0 records
           for seeded, never-saved users. *)
        List.iter
          (fun (u, r) ->
            match List.assoc_opt u !store_revs with
            | Some r' when r' = r -> ()
            | Some r' ->
                audit "persistence" "user %s: store revision %d <> catalog %d"
                  u r' r
            | None ->
                audit "persistence" "user %s: revision %d missing from store" u
                  r)
          main_revs;
        List.iter
          (fun (u, r) ->
            if r > 0 && List.assoc_opt u main_revs <> Some r then
              audit "persistence"
                "user %s: store revision %d not in catalog registry" u r)
          !store_revs)
      store_root
  in
  let verdict =
    match audits () with
    | () -> Ok ()
    | exception Audit f -> Error f
    | exception e ->
        Error { invariant = "exception"; detail = Printexc.to_string e }
  in
  let summary = Buffer.create 256 in
  Buffer.add_string summary sched.Sched.digest;
  Array.iter
    (fun o -> Buffer.add_string summary (Option.value ~default:"." o))
    outcomes;
  List.iter
    (fun (k, v) ->
      Buffer.add_string summary k;
      Buffer.add_string summary v)
    !final_health;
  (match verdict with
  | Ok () -> Buffer.add_string summary "PASS"
  | Error { invariant; detail } ->
      Buffer.add_string summary invariant;
      Buffer.add_string summary detail);
  {
    verdict;
    digest = Digest.to_hex (Digest.string (Buffer.contents summary));
    sched_steps = sched.Sched.steps;
    vnow = sched.Sched.vnow;
    n_steps;
  }

let run_seed ~seed = run ~seed (generate ~seed)

let shrink ~seed steps (f : failure) =
  Shrink.minimize
    ~check:(fun candidate ->
      match (run ~seed candidate).verdict with
      | Error f' -> f'.invariant = f.invariant
      | Ok () -> false)
    steps
