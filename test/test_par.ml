(* Exact row charging under a row budget (the no-double-count
   regression), one governor per concurrent run, and a threaded hammer
   on a sharded server with the cross-shard HEALTH ledger audit. *)

open Perso_server

(* Retry backoff must not cost wall-clock in tests. *)
let () = Relal.Chaos.set_sleep ignore

(* ---------------------- governor: no double count -------------------- *)

let test_governor_no_double_count () =
  let db = Moviedb.Datagen.(generate (scale ~seed:7 800)) in
  let sql =
    "select m.title, a.name from movie m, cast c, actor a where m.mid = c.mid \
     and c.aid = a.aid"
  in
  let budget rows =
    { Relal.Governor.deadline_ms = None; max_rows = rows; max_expansions = None }
  in
  (* Measure the true charge with an unbounded governor. *)
  let total =
    let gov = Relal.Governor.start (budget None) in
    ignore (Relal.Engine.run_sql ~gov db sql : Relal.Exec.result);
    (Relal.Governor.progress gov).Relal.Governor.rows_produced
  in
  Alcotest.(check bool) "query charges rows in batches" true (total > 4096);
  let charge_at limit =
    let gov = Relal.Governor.start (budget (Some limit)) in
    match Relal.Engine.run_sql ~gov db sql with
    | (_ : Relal.Exec.result) -> `Completed
    | exception Relal.Governor.Exhausted _ -> `Exhausted
  in
  (* A limit equal to the true total must not trip: every operator
     charges each output row exactly once.  Any double counting trips
     it. *)
  (match charge_at total with
  | `Completed -> ()
  | `Exhausted -> Alcotest.fail "rows double-counted (limit=total tripped)");
  match charge_at (total - 1) with
  | `Exhausted -> ()
  | `Completed -> Alcotest.fail "limit below total did not trip"

(* ------------------- governor: one per concurrent run ------------------ *)

(* Two threads run the same join, A with no row cap and B with a cap of
   10 rows.  A clock hook parks each thread on its second clock read —
   the deadline check [Exec.run] makes right after the governor is
   armed: A waits there until B has reached the same point, and B waits
   until A has finished.  Each run must be charged to, and stopped by,
   its own governor only. *)
let test_governor_per_run () =
  let db = Moviedb.Datagen.(generate (scale ~seed:42 300)) in
  let sql = "select m.title, g.genre from movie m, genre g where m.mid = g.mid" in
  let expected = List.length (Relal.Engine.run_sql db sql).Relal.Exec.rows in
  let m = Mutex.create () and c = Condition.create () in
  let roles = Hashtbl.create 2 and reads = Hashtbl.create 2 in
  let a_parked = ref false and b_armed = ref false and a_done = ref false in
  let await flag =
    while not !flag do
      Condition.wait c m
    done
  in
  let raise_flag flag =
    Mutex.lock m;
    flag := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  let clock () =
    let id = Thread.id (Thread.self ()) in
    Mutex.lock m;
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt reads id) in
    Hashtbl.replace reads id n;
    (match (n, Hashtbl.find_opt roles id) with
    | 2, Some `A ->
        a_parked := true;
        Condition.broadcast c;
        await b_armed
    | 2, Some `B ->
        b_armed := true;
        Condition.broadcast c;
        await a_done
    | _ -> ());
    Mutex.unlock m;
    Relal.Governor.real_clock ()
  in
  let run role max_rows =
    Mutex.lock m;
    Hashtbl.replace roles (Thread.id (Thread.self ())) role;
    Mutex.unlock m;
    let gov =
      Relal.Governor.start
        { Relal.Governor.deadline_ms = Some 60_000.; max_rows;
          max_expansions = None }
    in
    let outcome =
      match Relal.Engine.run_sql ~gov db sql with
      | r -> Ok (List.length r.Relal.Exec.rows)
      | exception Relal.Governor.Exhausted p -> Error p.Relal.Governor.exhausted
    in
    (outcome, (Relal.Governor.progress gov).Relal.Governor.rows_produced)
  in
  Relal.Governor.set_clock clock;
  Fun.protect ~finally:(fun () ->
      Relal.Governor.set_clock Relal.Governor.real_clock)
  @@ fun () ->
  let a_result = ref None and b_result = ref None in
  let a =
    Thread.create
      (fun () ->
        Fun.protect ~finally:(fun () -> raise_flag a_done) (fun () ->
            a_result := Some (run `A None)))
      ()
  in
  Mutex.lock m;
  while not (!a_parked || !a_done) do
    Condition.wait c m
  done;
  Mutex.unlock m;
  let b = Thread.create (fun () -> b_result := Some (run `B (Some 10))) () in
  Thread.join a;
  Thread.join b;
  Alcotest.(check bool) "A parked after arming" true !a_parked;
  (match !a_result with
  | Some (outcome, charged) ->
      Alcotest.(check (result int string)) "A completes" (Ok expected) outcome;
      Alcotest.(check bool) "A's governor is charged A's rows" true
        (charged >= expected)
  | None -> Alcotest.fail "A did not finish");
  match !b_result with
  | Some (outcome, charged) ->
      Alcotest.(check (result int string))
        "B stops at its own row cap" (Error "rows") outcome;
      Alcotest.(check bool) "B's governor is charged B's rows" true
        (charged > 10)
  | None -> Alcotest.fail "B did not finish"

(* ------------------ sharded store: threaded hammer -------------------- *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "perso_par_%d_%d.sock" (Unix.getpid ()) !n)

let stat name stats =
  match List.assoc_opt name stats with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "HEALTH missing %s" name

let test_sharded_hammer () =
  let n_threads = 8 and per_thread = 15 and shards = 4 in
  let db = Moviedb.Datagen.(generate (scale ~seed:7 100)) in
  let socket = fresh_socket () in
  let cfg =
    {
      (Server.default_config ~socket_path:socket) with
      Server_core.workers = 3;
      queue_capacity = 8;
      deadline_ms = Some 2_000.;
      shards;
    }
  in
  let t = Server.start cfg db in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t : Server.drain_outcome);
      Relal.Chaos.disarm ())
  @@ fun () ->
  let queries =
    Moviedb.Workload.queries db ~n:per_thread ~seed:11
    |> List.map Relal.Sql_print.query_to_string
    |> Array.of_list
  in
  ignore (Relal.Chaos.arm ~seed:1337 ~p:0.05 () : Relal.Chaos.stats);
  let ok = Atomic.make 0 and failed = Atomic.make 0 and broken = Atomic.make 0 in
  let worker tid =
    let c = Client.connect socket in
    for i = 0 to per_thread - 1 do
      let sql = queries.(i mod Array.length queries) in
      let user = Printf.sprintf "user%d" tid in
      let cmd =
        match i mod 4 with
        | 0 ->
            Printf.sprintf
              "PROFILE SAVE %s [ GENRE.genre = 'comedy', 0.9 ] [ MOVIE.mid = \
               GENRE.mid, 0.8 ]"
              user
        | 1 -> Printf.sprintf "PERSONALIZE %s %s" user sql
        | 2 -> Printf.sprintf "PROFILE LOAD %s" user
        | _ -> "RUN " ^ sql
      in
      match Client.request c cmd with
      | Ok (Protocol.Rows _) | Ok (Protocol.Message _) -> Atomic.incr ok
      | Ok (Protocol.Failed { code; _ }) when code >= 1 && code <= 5 ->
          Atomic.incr failed
      | Ok _ | Error _ -> Atomic.incr broken
    done;
    Client.close c
  in
  let threads = List.init n_threads (fun tid -> Thread.create worker tid) in
  List.iter Thread.join threads;
  Relal.Chaos.disarm ();
  let total = n_threads * per_thread in
  Alcotest.(check int) "no untyped outcomes" 0 (Atomic.get broken);
  Alcotest.(check int) "every request answered" total
    (Atomic.get ok + Atomic.get failed);
  Alcotest.(check bool) "some requests succeeded" true (Atomic.get ok > 0);
  let c = Client.connect socket in
  let stats =
    match Client.request c "HEALTH" with
    | Ok (Protocol.Stats s) -> s
    | _ -> Alcotest.fail "HEALTH failed"
  in
  Client.close c;
  Alcotest.(check int) "shards reported" shards (stat "shards" stats);
  Alcotest.(check int) "ledger: queue idle" 0 (stat "queue_depth" stats);
  Alcotest.(check int) "ledger: nothing in flight" 0 (stat "in_flight" stats);
  Alcotest.(check int) "ledger: accepted = ok + err + expired"
    (stat "accepted" stats)
    (stat "completed_ok" stats
    + stat "completed_err" stats
    + stat "shed_expired" stats);
  (* The cross-shard audit: the cache columns are summed over every
     shard's cache, and together they must still account for each
     completed PERSONALIZE exactly once. *)
  Alcotest.(check int) "ledger: pers outcomes = summed shard cache sources"
    (stat "pers_ok" stats + stat "pers_err" stats)
    (stat "cache_hit" stats
    + stat "cache_miss" stats
    + stat "cache_bypass" stats);
  let outcome = Server.stop t in
  Alcotest.(check bool) "drains clean" true outcome.Server.drained

let () =
  Alcotest.run "par"
    [
      ( "governor",
        [
          Alcotest.test_case "no double count across domains" `Quick
            test_governor_no_double_count;
          Alcotest.test_case "concurrent runs keep their own governor" `Quick
            test_governor_per_run;
        ] );
      ( "sharded-store",
        [ Alcotest.test_case "threaded hammer" `Quick test_sharded_hammer ] );
    ]
