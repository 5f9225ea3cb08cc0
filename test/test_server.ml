(* Concurrent personalization server: reader/writer isolation, the
   hot-profile LRU, admission control + shedding, per-request storage
   faults, socket ownership, request-line bounds, graceful drain, and the
   N-thread chaos hammer of the resilience contract. *)

open Perso_server

(* Retry backoff must not cost wall-clock in tests. *)
let () = Relal.Chaos.set_sleep ignore

(* ------------------------------ rwlock ------------------------------- *)

let test_rwlock_write_exclusive () =
  (* A non-atomic read-modify-write counter: without the write lock the
     8×500 increments would lose updates under contention. *)
  let lock = Rwlock.create () in
  let counter = ref 0 in
  let writers =
    List.init 8 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 500 do
              Rwlock.with_write lock (fun () ->
                  let v = !counter in
                  Thread.yield ();
                  counter := v + 1)
            done)
          ())
  in
  List.iter Thread.join writers;
  Alcotest.(check int) "no lost updates" 4000 !counter

let test_rwlock_readers_shared () =
  let lock = Rwlock.create () in
  let m = Mutex.create () in
  let active = ref 0 and max_active = ref 0 in
  let readers =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            (* A real sleep inside the read section parks this thread
               with the lock held: if readers are truly shared the four
               of them must pile up inside. *)
            for _ = 1 to 5 do
              Rwlock.with_read lock (fun () ->
                  Mutex.lock m;
                  incr active;
                  if !active > !max_active then max_active := !active;
                  Mutex.unlock m;
                  Thread.delay 0.01;
                  Mutex.lock m;
                  decr active;
                  Mutex.unlock m)
            done)
          ())
  in
  List.iter Thread.join readers;
  Alcotest.(check bool) "readers overlapped" true (!max_active > 1)

(* -------------------------- hot-profile LRU -------------------------- *)

let plru_stats_check name lru ~hits ~misses ~evictions ~invalidations ~entries =
  let s = Perso_server.Profile_lru.stats lru in
  Alcotest.(check int) (name ^ " hits") hits s.hits;
  Alcotest.(check int) (name ^ " misses") misses s.misses;
  Alcotest.(check int) (name ^ " evictions") evictions s.evictions;
  Alcotest.(check int) (name ^ " invalidations") invalidations s.invalidations;
  Alcotest.(check int) (name ^ " entries") entries s.entries

let test_profile_lru () =
  let module L = Perso_server.Profile_lru in
  let lru = L.create ~capacity:2 () in
  let p = Perso.Profile.empty in
  Alcotest.(check bool) "cold miss" true (L.find lru ~user:"a" ~revision:1 = None);
  L.put lru ~user:"a" ~revision:1 p;
  Alcotest.(check bool) "hit" true (L.find lru ~user:"a" ~revision:1 <> None);
  plru_stats_check "warm" lru ~hits:1 ~misses:1 ~evictions:0 ~invalidations:0
    ~entries:1;
  (* a save bumped the registry revision: the old entry is stale — it
     stops matching and is dropped *)
  Alcotest.(check bool) "stale revision misses" true
    (L.find lru ~user:"a" ~revision:2 = None);
  plru_stats_check "stale" lru ~hits:1 ~misses:2 ~evictions:0 ~invalidations:0
    ~entries:0;
  (* capacity pressure evicts the least recently used *)
  L.put lru ~user:"a" ~revision:2 p;
  L.put lru ~user:"b" ~revision:1 p;
  ignore (L.find lru ~user:"a" ~revision:2);
  L.put lru ~user:"c" ~revision:1 p;
  Alcotest.(check bool) "lru evicted" true (L.find lru ~user:"b" ~revision:1 = None);
  Alcotest.(check bool) "recent kept" true (L.find lru ~user:"a" ~revision:2 <> None);
  plru_stats_check "evict" lru ~hits:3 ~misses:3 ~evictions:1 ~invalidations:0
    ~entries:2;
  (* eager subscriber-hook invalidation *)
  L.remove lru ~user:"a";
  L.remove lru ~user:"nope";
  plru_stats_check "invalidate" lru ~hits:3 ~misses:3 ~evictions:1
    ~invalidations:1 ~entries:1

let test_profile_lru_disabled () =
  let module L = Perso_server.Profile_lru in
  let lru = L.create ~capacity:0 () in
  L.put lru ~user:"a" ~revision:1 Perso.Profile.empty;
  Alcotest.(check bool) "capacity 0 never hits" true
    (L.find lru ~user:"a" ~revision:1 = None);
  let s = L.stats lru in
  Alcotest.(check int) "no entries" 0 s.entries

(* The LRU before its entry list: the victim was found by folding the
   whole table for the smallest tick, a hit or a put taking the next
   tick.  Entries hold the number of the put that stored them. *)
module Fold_lru = struct
  type entry = { revision : int; put : int; mutable tick : int }

  type t = {
    capacity : int;
    tbl : (string, entry) Hashtbl.t;
    mutable clock : int;
    mutable stats : Perso_server.Profile_lru.stats;
  }

  let create capacity =
    {
      capacity;
      tbl = Hashtbl.create 8;
      clock = 0;
      stats = { hits = 0; misses = 0; evictions = 0; invalidations = 0; entries = 0 };
    }

  let miss t = t.stats <- { t.stats with misses = t.stats.misses + 1 }

  let find t ~user ~revision =
    match Hashtbl.find_opt t.tbl user with
    | Some e when e.revision = revision ->
        t.clock <- t.clock + 1;
        e.tick <- t.clock;
        t.stats <- { t.stats with hits = t.stats.hits + 1 };
        Some e.put
    | Some _ ->
        Hashtbl.remove t.tbl user;
        miss t;
        None
    | None ->
        miss t;
        None

  let evict_lru t =
    let victim =
      Hashtbl.fold
        (fun user e acc ->
          match acc with
          | Some (_, tick) when tick <= e.tick -> acc
          | _ -> Some (user, e.tick))
        t.tbl None
    in
    match victim with
    | Some (user, _) ->
        Hashtbl.remove t.tbl user;
        t.stats <- { t.stats with evictions = t.stats.evictions + 1 }
    | None -> ()

  let put t ~user ~revision put =
    if t.capacity > 0 then begin
      if (not (Hashtbl.mem t.tbl user)) && Hashtbl.length t.tbl >= t.capacity then
        evict_lru t;
      t.clock <- t.clock + 1;
      Hashtbl.replace t.tbl user { revision; put; tick = t.clock }
    end

  let remove t ~user =
    if Hashtbl.mem t.tbl user then begin
      Hashtbl.remove t.tbl user;
      t.stats <- { t.stats with invalidations = t.stats.invalidations + 1 }
    end

  let stats t = { t.stats with entries = Hashtbl.length t.tbl }
end

type lru_op = Find of string * int | Put of string * int | Remove of string

let prop_profile_lru_reference =
  let open QCheck.Gen in
  let user = oneofl [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let op =
    frequency
      [
        (4, map2 (fun u r -> Find (u, r)) user (int_range 1 3));
        (4, map2 (fun u r -> Put (u, r)) user (int_range 1 3));
        (1, map (fun u -> Remove u) user);
      ]
  in
  let print (cap, ops) =
    Printf.sprintf "capacity %d: %s" cap
      (String.concat "; "
         (List.map
            (function
              | Find (u, r) -> Printf.sprintf "find %s@%d" u r
              | Put (u, r) -> Printf.sprintf "put %s@%d" u r
              | Remove u -> "remove " ^ u)
            ops))
  in
  QCheck.Test.make ~name:"evicts as the fold did" ~count:1000
    (QCheck.make ~print (pair (int_range 1 8) (list_size (0 -- 80) op)))
    (fun (capacity, ops) ->
      let module L = Perso_server.Profile_lru in
      let lru = L.create ~capacity () and reference = Fold_lru.create capacity in
      (* One profile value per put, told apart physically, to tell which
         put a hit returns. *)
      let stored = ref [] in
      let put_of p = snd (List.find (fun (q, _) -> q == p) !stored) in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Find (user, revision) ->
                Option.map put_of (L.find lru ~user ~revision)
                = Fold_lru.find reference ~user ~revision
            | Put (user, revision) ->
                let n = List.length !stored in
                let p =
                  Perso.Profile.add Perso.Profile.empty
                    (Perso.Atom.sel "movie" "year" (Relal.Value.Int n))
                    Perso.Degree.one
                in
                stored := (p, n) :: !stored;
                L.put lru ~user ~revision p;
                Fold_lru.put reference ~user ~revision n;
                true
            | Remove user ->
                L.remove lru ~user;
                Fold_lru.remove reference ~user;
                true
          in
          same && L.stats lru = Fold_lru.stats reference)
        ops)

(* --------------------------- server helpers -------------------------- *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "perso_test_%d_%d.sock" (Unix.getpid ()) !n)

let with_server ?(movies = 0) ?db cfg_of f =
  let db =
    match db with
    | Some db -> db
    | None when movies = 0 -> Moviedb.Personas.tiny_db ()
    | None -> Moviedb.Datagen.(generate (scale ~seed:7 movies))
  in
  let socket_path = fresh_socket () in
  let t = Server.start (cfg_of (Server.default_config ~socket_path)) db in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.stop t : Server.drain_outcome);
      Relal.Chaos.disarm ())
    (fun () -> f t socket_path)

let stat name stats =
  match List.assoc_opt name stats with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "HEALTH missing %s" name

let request_exn c ?deadline_ms cmd =
  match Client.request ?deadline_ms c cmd with
  | Ok r -> r
  | Error e -> Alcotest.failf "request failed: %s" e

let health_of socket =
  let c = Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.request c "HEALTH" with
      | Ok (Protocol.Stats stats) -> stats
      | other ->
          Alcotest.failf "HEALTH failed: %s"
            (match other with Error e -> e | Ok _ -> "wrong response shape"))

let render_response = function
  | Ok (Protocol.Rows { notes; cols; rows }) ->
      String.concat "\n"
        (notes @ [ String.concat "|" cols ] @ List.map (String.concat "|") rows)
  | Ok (Protocol.Stats kvs) ->
      String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
  | Ok (Protocol.Message m) -> "msg:" ^ m
  | Ok (Protocol.Failed { family; code; message }) ->
      Printf.sprintf "failed:%s:%d:%s" family code message
  | Error e -> "err:" ^ e

let pers_sql =
  "select mv.title from movie mv, play pl where mv.mid = pl.mid and pl.date \
   = '2003-07-02'"

(* A six-way cross product with no join predicate: the executor grinds
   cartesian batches until a budget trips. *)
let slow_sql =
  "select count(*) as n from movie a, movie b, movie c, movie d, movie e, \
   movie f"

(* A gate on the request slot.  While it is closed, the first request
   to arm a governor parks inside its run, on the governor's clock
   ([Relal.Governor.set_clock]), holding its slot until the test calls
   [release]; every other clock reader passes through.  Queue expiry
   reads the runtime clock, not the governor's, so a queued request's
   deadline still passes in real time while the slot is held. *)
let with_slot_gate f =
  let m = Mutex.create () and c = Condition.create () in
  let holder = ref None and opened = ref false in
  let clock () =
    let me = Thread.id (Thread.self ()) in
    Mutex.lock m;
    if !holder = None then holder := Some me;
    if !holder = Some me then
      while not !opened do
        Condition.wait c m
      done;
    Mutex.unlock m;
    Relal.Governor.real_clock ()
  in
  let release () =
    Mutex.lock m;
    opened := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  Relal.Governor.set_clock clock;
  Fun.protect
    ~finally:(fun () ->
      release ();
      Relal.Governor.set_clock Relal.Governor.real_clock)
    (fun () -> f release)

(* Sequencing against observable server state instead of sleeps: the
   control-plane HEALTH command answers even while every slot is
   wedged, so tests wait for the queue/in-flight shape they need next
   (>=, so a heavily loaded test host can only overshoot, not miss). *)
let wait_for_stat socket name value =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    if stat name (health_of socket) >= value then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s >= %d" name value
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* ---------------------------- admission ------------------------------ *)

let quick_sql = "select count(*) as n from movie m"

let test_shed_and_expiry () =
  with_server
    (fun cfg ->
      {
        cfg with
        Server_core.workers = 1;
        queue_capacity = 1;
        max_rows = None;
        max_expansions = None;
      })
    (fun _t socket ->
      with_slot_gate @@ fun release ->
      (* A holds the single slot, parked at the gate inside its run. *)
      let result_a = ref (Error "unset") in
      let ta =
        Thread.create
          (fun () ->
            let c = Client.connect socket in
            result_a := Client.request ~deadline_ms:800. c ("RUN " ^ quick_sql);
            Client.close c)
          ()
      in
      wait_for_stat socket "in_flight" 1;
      (* B fills the only queue place and waits there while A holds the
         slot; the gate stays closed until B's 10 ms deadline is past. *)
      let result_b = ref (Error "unset") in
      let tb =
        Thread.create
          (fun () ->
            let c = Client.connect socket in
            result_b := Client.request ~deadline_ms:10. c ("RUN " ^ quick_sql);
            Client.close c)
          ()
      in
      wait_for_stat socket "queue_depth" 1;
      (* C finds the queue full: immediate typed rejection. *)
      let c = Client.connect socket in
      (match Client.request c ("RUN " ^ quick_sql) with
      | Ok (Protocol.Failed { family; code; _ }) ->
          Alcotest.(check string) "queue-full family" "overloaded" family;
          Alcotest.(check int) "overloaded exit code" 5 code
      | other ->
          Alcotest.failf "expected queue-full shedding, got %s"
            (match other with
            | Ok _ -> "a result"
            | Error e -> e));
      Client.close c;
      Thread.delay 0.05;
      release ();
      Thread.join ta;
      Thread.join tb;
      (match !result_a with
      | Ok (Protocol.Failed { family = "resource-exhausted"; _ }) -> ()
      | Ok (Protocol.Rows _) -> ()  (* finished within budget *)
      | other ->
          Alcotest.failf "A should finish or exhaust, got %s"
            (match other with
            | Ok (Protocol.Failed { message; _ }) -> message
            | Error e -> e
            | _ -> "wrong shape"));
      (match !result_b with
      | Ok (Protocol.Failed { family = "overloaded"; message; _ }) ->
          Alcotest.(check bool) "names queue expiry" true
            (String.length message > 0)
      | other ->
          Alcotest.failf "B should be shed as expired, got %s"
            (match other with
            | Ok (Protocol.Failed { message; _ }) -> message
            | Error e -> e
            | _ -> "wrong shape"));
      let stats = health_of socket in
      Alcotest.(check int) "one queue-full shed" 1 (stat "shed_queue_full" stats);
      Alcotest.(check int) "one expiry shed" 1 (stat "shed_expired" stats))

(* The slot cap holds through a drain.  A holds the single slot, parked
   at the gate, and B waits in the queue; once the drain begins, B must
   still wait for A's slot, so HEALTH never reads two requests in
   flight — before the gate opens, or across A's hand-over to B. *)
let test_slot_cap_through_drain () =
  with_server
    (fun cfg ->
      {
        cfg with
        Server_core.workers = 1;
        queue_capacity = 1;
        max_rows = None;
        max_expansions = None;
      })
    (fun t socket ->
      with_slot_gate @@ fun release ->
      let send deadline_ms =
        let finished = Atomic.make false in
        let th =
          Thread.create
            (fun () ->
              let c = Client.connect socket in
              ignore (Client.request ~deadline_ms c ("RUN " ^ quick_sql));
              Client.close c;
              Atomic.set finished true)
            ()
        in
        (th, finished)
      in
      let ta, a_done = send 800. in
      wait_for_stat socket "in_flight" 1;
      let tb, b_done = send 500. in
      wait_for_stat socket "queue_depth" 1;
      Server.request_stop t;
      let peak = ref 0 in
      let sample () = peak := max !peak (stat "in_flight" (health_of socket)) in
      for _ = 1 to 20 do
        sample ()
      done;
      release ();
      while not (Atomic.get a_done && Atomic.get b_done) do
        sample ()
      done;
      Thread.join ta;
      Thread.join tb;
      Alcotest.(check int) "at most one request in flight" 1 !peak)

let test_budget_capped_by_server () =
  with_server ~movies:120
    (fun cfg ->
      { cfg with Server_core.max_rows = Some 50; deadline_ms = None;
        max_expansions = None })
    (fun _t socket ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* The client asks for a huge row budget; the server's 50-row
             cap must win. *)
          match Client.request ~max_rows:100_000_000 c ("RUN " ^ slow_sql) with
          | Ok (Protocol.Failed { family; code; _ }) ->
              Alcotest.(check string) "capped to resource exhaustion"
                "resource-exhausted" family;
              Alcotest.(check int) "resource exit code" 3 code
          | other ->
              Alcotest.failf "expected resource-exhausted, got %s"
                (match other with
                | Ok _ -> "a result"
                | Error e -> e)))

(* ---------------------- per-request storage faults ------------------- *)

(* A storage fault fails or degrades only the request that meets it.
   With every fault point failing permanently, each PROFILE SAVE returns
   its own storage error: a run of failed saves never turns the next
   one into an overloaded shed.  Once the faults lift, the user's next
   PERSONALIZE is answered from the last acknowledged profile, and the
   next save succeeds. *)
let test_storage_faults_per_request () =
  with_server Fun.id (fun _t socket ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let q = "PERSONALIZE julie " ^ pers_sql in
          let drama =
            "PROFILE SAVE julie [ GENRE.genre = 'drama', 1 ] [ MOVIE.mid = \
             GENRE.mid, 0.9 ]"
          in
          ignore
            (request_exn c
               "PROFILE SAVE julie [ GENRE.genre = 'comedy', 0.9 ] [ \
                MOVIE.mid = GENRE.mid, 0.9 ]");
          let acknowledged = request_exn c q in
          ignore
            (Relal.Chaos.arm ~transient_ratio:0. ~seed:3 ~p:1.0 ()
              : Relal.Chaos.stats);
          for i = 1 to 5 do
            match request_exn c drama with
            | Protocol.Failed { family = "storage"; code = 2; _ } -> ()
            | r ->
                Alcotest.failf "save %d under faults: expected storage, got %s"
                  i (render_response (Ok r))
          done;
          Relal.Chaos.disarm ();
          (match request_exn c q with
          | Protocol.Rows { notes = []; cols; _ } as r ->
              Alcotest.(check (list string)) "personalized answer is ranked"
                [ "title"; "doi" ] cols;
              Alcotest.(check string) "answer of the last acknowledged profile"
                (render_response (Ok acknowledged))
                (render_response (Ok r))
          | r ->
              Alcotest.failf "expected a personalized answer, got %s"
                (render_response (Ok r)));
          match request_exn c drama with
          | Protocol.Message _ -> ()
          | r ->
              Alcotest.failf "the save after the faults: %s"
                (render_response (Ok r))))

(* ------------------------------ socket ------------------------------- *)

(* A start on the socket path of a live server is refused with a typed
   usage error naming the path, and the live server keeps answering; a
   stale socket file, whose connect is refused, is replaced. *)
let test_live_socket_refused () =
  let ping socket =
    let c = Client.connect socket in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        match request_exn c "PING" with
        | Protocol.Message "pong" -> ()
        | r -> Alcotest.failf "PING: %s" (render_response (Ok r)))
  in
  with_server Fun.id (fun _t socket ->
      (match
         Perso.Error.guard (fun () ->
             Server.start
               (Server.default_config ~socket_path:socket)
               (Moviedb.Personas.tiny_db ()))
       with
      | Error (Perso.Error.Usage msg) ->
          Alcotest.(check string) "usage error names the path"
            (Printf.sprintf
               "a server is already accepting connections on %s; stop it or \
                choose another socket path"
               socket)
            msg
      | Error e ->
          Alcotest.failf "expected a usage error, got %s"
            (Perso.Error.to_string e)
      | Ok t2 ->
          ignore (Server.stop t2 : Server.drain_outcome);
          Alcotest.fail "a second server took over a live socket");
      ping socket);
  (* Bound and closed without listening: connects are refused. *)
  let stale = fresh_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  let t =
    Server.start
      (Server.default_config ~socket_path:stale)
      (Moviedb.Personas.tiny_db ())
  in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t : Server.drain_outcome))
    (fun () -> ping stale)

(* A TCP port another socket holds is a typed usage error naming the
   port, and the refused start leaves no socket file behind. *)
let test_tcp_port_held () =
  let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close holder)
    (fun () ->
      Unix.bind holder (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen holder 1;
      let port =
        match Unix.getsockname holder with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> Alcotest.fail "expected an inet address"
      in
      let socket_path = fresh_socket () in
      (match
         Perso.Error.guard (fun () ->
             Server.start
               {
                 (Server.default_config ~socket_path) with
                 Server_core.tcp_port = Some port;
               }
               (Moviedb.Personas.tiny_db ()))
       with
      | Error (Perso.Error.Usage msg) ->
          Alcotest.(check string) "usage error names the port"
            (Printf.sprintf "cannot listen on TCP port %d: %s" port
               (Unix.error_message Unix.EADDRINUSE))
            msg
      | Error e ->
          Alcotest.failf "expected a usage error, got %s"
            (Perso.Error.to_string e)
      | Ok t ->
          ignore (Server.stop t : Server.drain_outcome);
          Alcotest.fail "a server listened on a held port");
      Alcotest.(check bool) "no socket file left" false
        (Sys.file_exists socket_path))

(* --------------------------- profile bounds -------------------------- *)

let test_profile_save_bounded () =
  (* A PROFILE SAVE over the entry limit is refused with a typed profile
     error before a shard lock: the stored profile and its revision stay
     as they were.  A save at the limit is accepted. *)
  let db = Moviedb.Personas.tiny_db () in
  let save user n =
    "PROFILE SAVE " ^ user ^ " "
    ^ String.concat " "
        (List.init n (fun i -> Printf.sprintf "[ GENRE.genre = 'g%d', 0.5 ]" i))
  in
  let stored =
    with_server ~db Fun.id (fun _t socket ->
        let c = Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            ignore
              (request_exn c "PROFILE SAVE julie [ GENRE.genre = 'comedy', 0.9 ]");
            let stored = request_exn c "PROFILE LOAD julie" in
            (match
               request_exn c (save "julie" (Server_core.max_profile_entries + 1))
             with
            | Protocol.Failed { family = "profile"; _ } -> ()
            | _ -> Alcotest.fail "an over-limit save must fail with a profile error");
            Alcotest.(check bool) "stored profile unchanged" true
              (request_exn c "PROFILE LOAD julie" = stored);
            (match request_exn c (save "rob" Server_core.max_profile_entries) with
            | Protocol.Message _ -> ()
            | _ -> Alcotest.fail "a save at the limit is accepted");
            stored))
  in
  (* The stop merged the shards' revisions back into [db]. *)
  Alcotest.(check int) "revision unchanged" 1
    (Perso.Profile_store.revision db ~user:"julie");
  Alcotest.(check bool) "one stored entry" true
    (match stored with Protocol.Rows { rows = [ _ ]; _ } -> true | _ -> false)

(* A stored profile whose atom names a column the catalog lacks (one
   that never went through PROFILE SAVE: an older store, a dump) is
   refused on the served path by binding the personalized query. *)
let test_unbindable_stored_profile () =
  let db = Moviedb.Personas.tiny_db () in
  (match Perso.Profile.of_string "[ MOVIE.foo = 1, 0.9 ]" with
  | Ok p -> Perso.Profile_store.save db ~user:"bad" p
  | Error e -> Alcotest.fail e);
  with_server ~db Fun.id (fun _t socket ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match request_exn c "PERSONALIZE bad select mv.title from movie mv" with
          | Protocol.Failed { family; message; _ } ->
              Alcotest.(check (pair string string))
                "bind error"
                ("bind", "bind error: tuple variable mv has no column foo")
                (family, message)
          | _ -> Alcotest.fail "an unbindable stored atom must fail the bind"))

(* PROFILE SAVE validates every entry against the catalog: an unknown
   column, a constant of the wrong type or a date that does not parse is
   a typed profile error, and the stored profile stays as it was. *)
let test_profile_save_validated () =
  with_server Fun.id (fun _t socket ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore
            (request_exn c "PROFILE SAVE julie [ GENRE.genre = 'comedy', 0.9 ]");
          let stored = request_exn c "PROFILE LOAD julie" in
          List.iter
            (fun (entries, expected) ->
              match request_exn c ("PROFILE SAVE julie " ^ entries) with
              | Protocol.Failed { family; message; _ } ->
                  Alcotest.(check (pair string string))
                    entries ("profile", expected) (family, message)
              | _ -> Alcotest.failf "%s: the save must be refused" entries)
            [
              ( "[ GENRE.genre = 'drama', 0.5 ] [ MOVIE.foo = 1, 0.9 ]",
                "profile error: PROFILE SAVE entry does not bind: unknown attribute movie.foo" );
              ( "[ MOVIE.year = 'x', 0.9 ]",
                "profile error: PROFILE SAVE entry does not bind: selection MOVIE.year = 'x': \
                 int column vs string value" );
              ( "[ PLAY.date = '2003-13-45', 0.9 ]",
                "profile error: PROFILE SAVE entry does not bind: selection PLAY.date = \
                 '2003-13-45': string \"2003-13-45\" is not a valid date" );
              ( "[ NOSUCH.x = 1, 0.9 ]",
                "profile error: PROFILE SAVE entry does not bind: unknown relation nosuch" );
            ];
          Alcotest.(check bool) "stored profile unchanged" true
            (request_exn c "PROFILE LOAD julie" = stored);
          match
            request_exn c
              "PROFILE SAVE julie [ PLAY.date = '2/7/2003', 0.9 ] [ MOVIE.mid = \
               PLAY.mid, 0.8 ]"
          with
          | Protocol.Message _ -> ()
          | _ -> Alcotest.fail "a save whose entries bind is accepted"))

(* ----------------------------- wire bounds --------------------------- *)

(* A raw connection: the tests below send bytes no {!Client} would.  A
   receive timeout turns a server that never answers into a failure
   instead of a hang. *)
let with_raw_conn socket f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      Unix.connect fd (Unix.ADDR_UNIX socket);
      f fd (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd))

(* The next [n] reply lines, [None] past EOF. *)
let input_lines ic n = List.init n (fun _ -> In_channel.input_line ic)

let test_request_line_bounded () =
  (* A line of exactly Protocol.max_line_bytes is served; one byte more
     gets a single typed parse error and the connection is closed, so a
     client streaming bytes without a newline cannot grow the heap.  The
     refused line never reaches admission, the server keeps serving, and
     an unterminated final line is still answered at EOF. *)
  with_server Fun.id (fun _t socket ->
      let c = Client.connect socket in
      ignore (request_exn c "RUN select count(*) as n from movie m");
      with_raw_conn socket (fun _fd ic oc ->
          let pad n = String.make n ' ' in
          output_string oc ("PING" ^ pad (Protocol.max_line_bytes - 4) ^ "\n");
          flush oc;
          Alcotest.(check (list (option string)))
            "a line at the limit is served"
            [ Some "OK pong"; Some "END" ]
            (input_lines ic 2);
          output_string oc ("PING" ^ pad (Protocol.max_line_bytes - 3));
          flush oc;
          (match In_channel.input_line ic with
          | Some line ->
              Alcotest.(check bool)
                (Printf.sprintf "typed parse error: %s" line)
                true
                (String.starts_with ~prefix:"ERR parse 1 " line)
          | None -> Alcotest.fail "an over-limit line must get a reply");
          Alcotest.(check (option string))
            "then the server closes" None (In_channel.input_line ic));
      with_raw_conn socket (fun fd ic oc ->
          output_string oc "PING";
          flush oc;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          Alcotest.(check (list (option string)))
            "an unterminated line is served at EOF"
            [ Some "OK pong"; Some "END"; None ]
            (input_lines ic 3));
      Alcotest.(check bool) "a new connection answers PING" true
        (request_exn c "PING" = Protocol.Message "pong");
      Client.close c;
      let stats = health_of socket in
      Alcotest.(check int) "only the RUN was admitted" 1 (stat "accepted" stats);
      Alcotest.(check int) "ledger balanced" (stat "accepted" stats)
        (stat "completed_ok" stats + stat "completed_err" stats
        + stat "shed_expired" stats + stat "queue_depth" stats
        + stat "in_flight" stats))

(* ---------------------------- graceful drain ------------------------- *)

let test_graceful_drain () =
  with_server
    (fun cfg ->
      {
        cfg with
        Server_core.workers = 2;
        drain_ms = 5_000.;
        max_rows = None;
        max_expansions = None;
      })
    (fun t socket ->
      (* Requests in flight, then a drain: they must still get answers
         (or a typed shed), and new work must be refused.  The first to
         arm its governor parks at the gate, so it is still in flight
         however loaded the test host is. *)
      with_slot_gate @@ fun release ->
      let results = Array.make 2 (Error "unset") in
      let threads =
        Array.to_list
          (Array.init 2 (fun i ->
               Thread.create
                 (fun () ->
                   let c = Client.connect socket in
                   results.(i) <-
                     Client.request ~deadline_ms:600. c ("RUN " ^ quick_sql);
                   Client.close c)
                 ()))
      in
      wait_for_stat socket "in_flight" 1;
      Server.request_stop t;
      let deadline = Unix.gettimeofday () +. 10. in
      while
        List.assoc "state" (health_of socket) <> "draining"
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.01
      done;
      (* Admission is closed while draining — but the control plane and
         the drain itself keep working. *)
      let c = Client.connect socket in
      (match Client.request c "RUN select count(*) as n from movie m" with
      | Ok (Protocol.Failed { family = "overloaded"; _ }) -> ()
      | _ -> Alcotest.fail "draining server must shed new work");
      Client.close c;
      release ();
      List.iter Thread.join threads;
      Array.iter
        (fun r ->
          match r with
          | Ok (Protocol.Rows _) | Ok (Protocol.Failed _) -> ()
          | _ -> Alcotest.fail "in-flight request lost during drain")
        results;
      let outcome = Server.stop t in
      Alcotest.(check bool) "drained within deadline" true
        outcome.Server.drained;
      Alcotest.(check int) "nothing abandoned" 0 outcome.Server.shed_at_stop)

(* ------------------------------- hammer ------------------------------ *)

(* The resilience acceptance test: 10 threads of mixed RUN / PERSONALIZE
   / PROFILE SAVE against a small pool under 5% seeded faults.  Every
   request must end in a result or a typed error, the server must stay
   live, and the HEALTH ledger must account for every request. *)
let test_hammer () =
  let n_threads = 10 and per_thread = 20 in
  with_server ~movies:100
    (fun cfg ->
      {
        cfg with
        Server_core.workers = 3;
        queue_capacity = 4;
        deadline_ms = Some 2_000.;
      })
    (fun t socket ->
      let db_for_queries = Moviedb.Datagen.(generate (scale ~seed:7 100)) in
      let queries =
        List.map Relal.Sql_print.query_to_string
          (Moviedb.Workload.queries db_for_queries ~n:per_thread ~seed:11)
        |> Array.of_list
      in
      ignore (Relal.Chaos.arm ~seed:1337 ~p:0.05 () : Relal.Chaos.stats);
      let ok = Atomic.make 0
      and failed = Atomic.make 0
      and overloaded = Atomic.make 0
      and broken = Atomic.make 0 in
      let worker tid =
        let c = Client.connect socket in
        for i = 0 to per_thread - 1 do
          let sql = queries.(i mod Array.length queries) in
          let cmd =
            match i mod 5 with
            | 0 ->
                Printf.sprintf
                  "PROFILE SAVE user%d [ GENRE.genre = 'comedy', 0.9 ] [ \
                   MOVIE.mid = GENRE.mid, 0.8 ]"
                  tid
            | 1 -> Printf.sprintf "PERSONALIZE user%d %s" tid sql
            | _ -> "RUN " ^ sql
          in
          (* A zero deadline is expired by the time the request holds a
             slot: deterministic shedding mixed into the stream. *)
          let deadline_ms = if i mod 7 = 0 then Some 0. else None in
          match Client.request ?deadline_ms c cmd with
          | Ok (Protocol.Rows _) | Ok (Protocol.Message _) ->
              Atomic.incr ok
          | Ok (Protocol.Failed { family = "overloaded"; code = 5; _ }) ->
              Atomic.incr overloaded;
              Atomic.incr failed
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
      Alcotest.(check int) "every request accounted (client side)" total
        (Atomic.get ok + Atomic.get failed);
      Alcotest.(check bool) "some requests succeeded" true (Atomic.get ok > 0);
      Alcotest.(check bool) "saturation shed with typed Overloaded" true
        (Atomic.get overloaded > 0);
      (* The server is still live and observable after the storm. *)
      let c = Client.connect socket in
      (match Client.request c "PING" with
      | Ok (Protocol.Message "pong") -> ()
      | _ -> Alcotest.fail "server must stay live after the hammer");
      Client.close c;
      let stats = health_of socket in
      Alcotest.(check int) "ledger: queue idle" 0 (stat "queue_depth" stats);
      Alcotest.(check int) "ledger: nothing in flight" 0
        (stat "in_flight" stats);
      Alcotest.(check int) "ledger: accepted = ok + err + expired"
        (stat "accepted" stats)
        (stat "completed_ok" stats
        + stat "completed_err" stats
        + stat "shed_expired" stats);
      Alcotest.(check int) "ledger: arrivals = accepted + shed"
        total
        (stat "accepted" stats
        + stat "shed_queue_full" stats
        + stat "shed_draining" stats);
      Alcotest.(check int) "ledger: server ok = client ok"
        (Atomic.get ok)
        (stat "completed_ok" stats);
      let outcome = Server.stop t in
      Alcotest.(check bool) "drains clean after the hammer" true
        outcome.Server.drained)

(* ------------------------ durable store parity ----------------------- *)

let fresh_store_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "perso_test_store_%d_%d" (Unix.getpid ()) !n)
    in
    dir

(* Where a store or root is built before it is renamed into place. *)
let staging_of dir =
  Filename.concat (Filename.dirname dir) ("." ^ Filename.basename dir ^ ".staging")

let parity_script =
  [
    "PROFILE SAVE julie [ GENRE.genre = 'comedy', 0.9 ] [ MOVIE.mid = \
     GENRE.mid, 0.9 ]";
    "PROFILE SAVE bob [ ACTOR.name = 'N. Kidman', 0.7 ] [ CAST.aid = \
     ACTOR.aid, 0.9 ] [ MOVIE.mid = CAST.mid, 0.9 ]";
    "PERSONALIZE julie " ^ pers_sql;
    "PROFILE LOAD julie";
    "PROFILE SAVE julie [ GENRE.genre = 'drama', 0.8 ] [ MOVIE.mid = \
     GENRE.mid, 0.9 ]";
    "PERSONALIZE julie " ^ pers_sql;
    "PERSONALIZE bob " ^ pers_sql;
    "PROFILE LOAD bob";
    "PROFILE LOAD nobody";
    "RUN select count(*) as n from movie m";
    "PROFILE SAVE julie [ not a condition, 2 ]";
  ]

let run_script socket script =
  let c = Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> List.map (fun cmd -> render_response (Client.request c cmd)) script)

let test_disk_memory_differential () =
  (* The same traffic over the disk backend answers byte-identically to
     the memory backend, and the saved state survives a restart. *)
  let mem =
    with_server
      (fun cfg -> { cfg with Server_core.shards = 2 })
      (fun _t socket -> run_script socket parity_script)
  in
  let root = fresh_store_root () in
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
  @@ fun () ->
  let dsk =
    with_server
      (fun cfg -> { cfg with Server_core.shards = 2; store_dir = Some root })
      (fun _t socket -> run_script socket parity_script)
  in
  List.iter2
    (fun m d -> Alcotest.(check string) "memory/disk parity" m d)
    mem dsk;
  (* Restart on the same root: recovery replays the WALs; the last
     acknowledged profile is served, the in-memory-only run's state is
     gone with its process. *)
  let after_restart =
    with_server
      (fun cfg -> { cfg with Server_core.shards = 2; store_dir = Some root })
      (fun _t socket ->
        run_script socket [ "PROFILE LOAD julie"; "PERSONALIZE julie " ^ pers_sql ])
  in
  Alcotest.(check string) "personalize after restart" (List.nth mem 5)
    (List.nth after_restart 1);
  (* Durability does not depend on the shard count: at 20 shards (more
     databases than a process-wide registry once held) every
     acknowledged save reaches its shard's store and loads after a
     restart. *)
  let root20 = fresh_store_root () in
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root20)))
  @@ fun () ->
  let cfg20 cfg = { cfg with Server_core.shards = 20; store_dir = Some root20 } in
  let users = List.init 64 (Printf.sprintf "user%02d") in
  let loads = List.map (fun u -> "PROFILE LOAD " ^ u) users in
  let saved, appends =
    with_server cfg20 (fun _t socket ->
        let acks =
          run_script socket
            (List.mapi
               (fun i u ->
                 Printf.sprintf "PROFILE SAVE %s [ GENRE.genre = 'comedy', %.2f ]"
                   u (float_of_int (i + 1) /. 100.))
               users)
        in
        List.iter
          (fun a ->
            if String.length a < 4 || String.sub a 0 4 <> "msg:" then
              Alcotest.failf "20-shard save not acknowledged: %s" a)
          acks;
        (run_script socket loads, stat "store_appends" (health_of socket)))
  in
  Alcotest.(check int) "20 shards: one durable append per save" 64 appends;
  let reloaded = with_server cfg20 (fun _t socket -> run_script socket loads) in
  List.iteri
    (fun i (before, after) ->
      Alcotest.(check string)
        (Printf.sprintf "20 shards: %s loads after restart" (List.nth users i))
        before after)
    (List.combine saved reloaded);
  Alcotest.(check bool) "20 shards: every loaded profile holds its entry" true
    (List.for_all
       (fun r -> List.length (String.split_on_char '\n' r) = 2)
       reloaded)

(* A ']' inside a quoted literal does not end a PROFILE SAVE entry: the
   entry is saved and loads back as it was written. *)
let test_profile_save_bracket_literal () =
  with_server Fun.id (fun _t socket ->
      Alcotest.(check (list string))
        "saved and loaded"
        [
          "msg:saved user=julie entries=2";
          "condition|degree\n'MOVIE.title = ''a]b'''|0.9\n\
           'GENRE.genre = '']'''|0.5";
        ]
        (run_script socket
           [
             "PROFILE SAVE julie [ MOVIE.title = 'a]b', 0.9 ] [ GENRE.genre \
              = ']', 0.5 ]";
             "PROFILE LOAD julie";
           ]))

(* ------------------------ profiles out of the catalog ---------------- *)

let profile_rows db =
  match Relal.Database.find_table db Perso.Profile_store.table_name with
  | None -> []
  | Some t ->
      Relal.Table.to_list t
      |> List.map (fun row ->
             String.concat "|" (Array.to_list (Array.map Relal.Value.to_string row)))
      |> List.sort compare

(* While a server runs, its shards hold the only in-memory profiles:
   the main catalog has no profiles relation, so SQL naming it is a bind
   error, never the rows the catalog held at start.  The stop puts every
   saved row back, with the revisions, in memory and disk backends
   alike. *)
let test_catalog_holds_no_profiles () =
  List.iter
    (fun store_dir ->
      let db = Moviedb.Personas.tiny_db () in
      (match Perso.Profile.of_string "[ GENRE.genre = 'comedy', 0.9 ]" with
      | Ok p -> Perso.Profile_store.save db ~user:"julie" p
      | Error e -> Alcotest.fail e);
      let backend = if store_dir = None then "memory" else "disk" in
      let replies =
        with_server ~db
          (fun cfg -> { cfg with Server_core.shards = 2; store_dir })
          (fun _t socket ->
            run_script socket
              [
                "RUN select p.username, p.condition, p.degree from profiles p";
                "PROFILE LOAD julie";
                "PROFILE SAVE julie [ GENRE.genre = 'drama', 0.5 ]";
                "PROFILE SAVE bob [ MOVIE.mid = GENRE.mid, 0.8 ]";
                "RUN select p.username, p.condition, p.degree from profiles p";
              ])
      in
      let unknown = "failed:bind:1:bind error: unknown table profiles" in
      Alcotest.(check (list string))
        (backend ^ ": replies")
        [
          unknown;
          "condition|degree\n'GENRE.genre = ''comedy'''|0.9";
          "msg:saved user=julie entries=1";
          "msg:saved user=bob entries=1";
          unknown;
        ]
        replies;
      Alcotest.(check (list string))
        (backend ^ ": every saved row back in the catalog")
        [
          "'bob'|'MOVIE.mid = GENRE.mid'|0.8";
          "'julie'|'GENRE.genre = ''drama'''|0.5";
        ]
        (profile_rows db);
      Alcotest.(check (list (pair string int)))
        (backend ^ ": revisions merged back")
        [ ("bob", 1); ("julie", 2) ]
        (Perso.Profile_store.revisions db);
      Option.iter
        (fun root -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
        store_dir)
    [ None; Some (fresh_store_root ()) ]

(* A first open that refuses to export a malformed profile row leaves
   no store root, whichever shard the row lands on, and no staging
   directory: a restart after the row is fixed makes the root and
   exports every user. *)
(* A data dir's catalog: six users with one comedy entry each, alice's
   degree replaceable by a value no store can hold. *)
let six_users = [ "alice"; "bob"; "carol"; "dave"; "erin"; "frank" ]

let six_user_catalog ?(alice = Relal.Value.Float 0.9) () =
  let db = Moviedb.Personas.tiny_db () in
  Perso.Profile_store.install db;
  List.iter
    (fun u ->
      Relal.Database.insert db Perso.Profile_store.table_name
        [
          Relal.Value.Str u;
          Relal.Value.Str "GENRE.genre = 'comedy'";
          (if u = "alice" then alice else Relal.Value.Float 0.9);
        ])
    six_users;
  db

let test_refused_export_writes_no_store () =
  let root = fresh_store_root () in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
  @@ fun () ->
  let cfg cfg = { cfg with Server_core.shards = 3; store_dir = Some root } in
  let db = six_user_catalog ~alice:Relal.Value.Null () in
  (match
     Perso.Error.guard (fun () ->
         Server.start (cfg (Server.default_config ~socket_path:(fresh_socket ()))) db)
   with
  | Error (Perso.Error.Storage msg) ->
      Alcotest.(check string) "typed refusal"
        "malformed store file profiles: profile row for \"alice\" is not \
         (string, string, float) — refusing to export it to a durable store"
        msg
  | Error e -> Alcotest.failf "expected a storage error, got %s" (Perso.Error.to_string e)
  | Ok t ->
      ignore (Server.stop t : Server.drain_outcome);
      Alcotest.fail "a malformed row was exported");
  Alcotest.(check int) "the catalog keeps its rows" 6 (List.length (profile_rows db));
  Alcotest.(check bool) "no store root" false (Sys.file_exists root);
  Alcotest.(check bool) "no staging directory" false (Sys.file_exists (staging_of root));
  let loads =
    with_server ~db:(six_user_catalog ()) cfg (fun _t socket ->
        run_script socket (List.map (fun u -> "PROFILE LOAD " ^ u) six_users))
  in
  List.iter2
    (fun u r ->
      Alcotest.(check string) (u ^ " exported") "condition|degree\n'GENRE.genre = ''comedy'''|0.9" r)
    six_users loads

(* A refused start closes every store it opened: five starts refused at
   the first export (a malformed row) and five refused by the last
   shard's recovery (its WAL path a directory) leave the process with
   the descriptors it had. *)
let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_refused_starts_close_stores () =
  let catalog ~degree =
    let db = Moviedb.Personas.tiny_db () in
    Perso.Profile_store.install db;
    List.iter
      (fun u ->
        Relal.Database.insert db Perso.Profile_store.table_name
          [ Relal.Value.Str u; Relal.Value.Str "GENRE.genre = 'comedy'"; degree ])
      [ "alice"; "bob"; "carol"; "dave"; "erin"; "frank" ];
    db
  in
  let root = fresh_store_root () in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
  @@ fun () ->
  let cfg cfg = { cfg with Server_core.shards = 3; store_dir = Some root } in
  let refused what db =
    let before = open_fds () in
    for _ = 1 to 5 do
      match
        Perso.Error.guard (fun () ->
            Server.start (cfg (Server.default_config ~socket_path:(fresh_socket ()))) db)
      with
      | Error (Perso.Error.Storage _) -> ()
      | Error e -> Alcotest.failf "%s: expected a storage error, got %s" what (Perso.Error.to_string e)
      | Ok t ->
          ignore (Server.stop t : Server.drain_outcome);
          Alcotest.failf "%s: the start was not refused" what
    done;
    Alcotest.(check int) (what ^ ": open descriptors") before (open_fds ())
  in
  refused "refused export" (catalog ~degree:Relal.Value.Null);
  (* Seed the root, then break the last shard's WAL. *)
  ignore
    (with_server ~db:(catalog ~degree:(Relal.Value.Float 0.9)) cfg (fun _t socket ->
         run_script socket [ "PING" ])
      : string list);
  let shard = Perso_store.Store.shard_dir root 2 in
  Array.iter
    (fun f ->
      if String.length f > 4 && String.sub f 0 4 = "wal-" then begin
        Sys.remove (Filename.concat shard f);
        Sys.mkdir (Filename.concat shard f) 0o755
      end)
    (Sys.readdir shard);
  refused "recovery error" (catalog ~degree:(Relal.Value.Float 0.9))

(* ----------------------- refusal points of a start ------------------- *)

(* Every path under [root] with each file's bytes: what a refused start
   must leave as it found it. *)
let rec tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> []
  | true ->
      (path, "/")
      :: List.concat_map
           (fun e -> tree (Filename.concat path e))
           (List.sort compare (Array.to_list (Sys.readdir path)))
  | false -> [ (path, In_channel.with_open_bin path In_channel.input_all) ]

(* A maintenance that fails after an acknowledged save (a directory
   where its segment goes: a real I/O error, as a full disk gives) is
   counted in HEALTH, and the save stands, across a restart too. *)
let test_failed_maintenance_in_health () =
  let module Store = Perso_store.Store in
  let root = fresh_store_root () in
  Fun.protect ~finally:(fun () -> Relal.Csv.rm_rf root) @@ fun () ->
  let cfg cfg = { cfg with Server_core.shards = 1; store_dir = Some root } in
  with_server cfg (fun _t _socket -> ());
  (* Grow the shard's WAL past the served segment size, so the next
     append is followed by maintenance; the shard's store holds
     wal-000001.log, so that step writes seg-000002.dat. *)
  let shard = Store.shard_dir root 0 in
  let s = Store.open_ ~config:{ Store.segment_bytes = max_int; fsync = false } shard in
  Store.save s ~user:"filler" ~revision:1
    [ { Perso_store.Codec.cond = String.make Store.default_config.segment_bytes 'x'; degree = 0.5 } ];
  Store.close s;
  Sys.mkdir (Filename.concat shard "seg-000002.dat") 0o755;
  let served, health =
    with_server cfg (fun _t socket ->
        let served =
          run_script socket
            [ "PROFILE SAVE julie [ GENRE.genre = 'drama', 0.8 ]"; "PROFILE LOAD julie" ]
        in
        (served, health_of socket))
  in
  (match served with
  | [ ack; _ ] when String.length ack > 4 && String.sub ack 0 4 = "msg:" -> ()
  | _ -> Alcotest.failf "save not acknowledged: %s" (String.concat " / " served));
  Alcotest.(check (pair int int)) "store_compact_failures, store_compactions" (1, 0)
    (stat "store_compact_failures" health, stat "store_compactions" health);
  let restarted =
    with_server cfg (fun _t socket -> run_script socket [ "PROFILE LOAD julie" ])
  in
  Alcotest.(check (list string)) "a restart serves the save" [ List.nth served 1 ]
    restarted

(* The loopback TCP listener serves what the Unix socket serves: each
   request, sent over both back to back, gets the same reply. *)
let test_tcp_serves () =
  let port =
    let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close probe)
      (fun () ->
        Unix.bind probe (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        match Unix.getsockname probe with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> Alcotest.fail "expected an inet address")
  in
  with_server
    (fun cfg -> { cfg with Server_core.tcp_port = Some port })
    (fun _t socket ->
      ignore
        (run_script socket
           [ "PROFILE SAVE julie [ GENRE.genre = 'comedy', 0.9 ] [ MOVIE.mid = GENRE.mid, 0.9 ]" ]
          : string list);
      let tcp = Client.connect_tcp ~wait_ms:1000. ~port () in
      let local = Client.connect socket in
      Fun.protect
        ~finally:(fun () ->
          Client.close tcp;
          Client.close local)
        (fun () ->
          List.iter
            (fun cmd ->
              let over_tcp = render_response (Client.request tcp cmd) in
              if String.starts_with ~prefix:"err:" over_tcp
                 || String.starts_with ~prefix:"failed:" over_tcp
              then Alcotest.failf "%s over TCP: %s" cmd over_tcp;
              Alcotest.(check string) cmd
                (render_response (Client.request local cmd))
                over_tcp)
            [
              "PING"; "RUN select count(*) as n from movie m";
              "PERSONALIZE julie " ^ pers_sql; "HEALTH";
            ]))

(* Each point where [Server.start] can refuse — each listener, the
   marker check, each shard's open and recovery, and the export — with
   one invariant checked at each: no socket file of its own, the root
   as the start found it and no staging directory (a simulated kill may
   leave one: the next start removes it), no descriptor left open, and
   the catalog's profiles unchanged. *)
let test_refusal_points () =
  let store cfg ~root ~shards = { cfg with Server_core.shards; store_dir = Some root } in
  (* A committed root, made by a clean start and stop. *)
  let commit ~root ~shards =
    ignore
      (with_server ~db:(six_user_catalog ()) (store ~root ~shards) (fun _t socket ->
           run_script socket [ "PING" ])
        : string list)
  in
  let refused ?(killed = false) ?(socket = fresh_socket ()) ?(cfg = Fun.id)
      ?(db = six_user_catalog ()) ~shards ~family what root =
    let found = tree root and rows = profile_rows db and fds = open_fds () in
    let live = Sys.file_exists socket in
    (match
       Perso.Error.guard (fun () ->
           Server.start (cfg (store (Server.default_config ~socket_path:socket) ~root ~shards)) db)
     with
    | Error e when Perso.Error.family_name e = family -> ()
    | Error e -> Alcotest.failf "%s: expected a %s error, got %s" what family (Perso.Error.to_string e)
    | Ok t ->
        ignore (Server.stop t : Server.drain_outcome);
        Alcotest.failf "%s: the start was not refused" what);
    Alcotest.(check bool) (what ^ ": no socket file of its own") live (Sys.file_exists socket);
    Alcotest.(check (list (pair string string))) (what ^ ": root as found") found (tree root);
    if not killed then
      Alcotest.(check bool) (what ^ ": no staging directory") false
        (Sys.file_exists (staging_of root));
    Alcotest.(check int) (what ^ ": open descriptors") fds (open_fds ());
    Alcotest.(check (list string)) (what ^ ": catalog profiles") rows (profile_rows db)
  in
  let with_root f =
    let root = fresh_store_root () in
    Fun.protect
      ~finally:(fun () ->
        Relal.Csv.rm_rf root;
        Relal.Csv.rm_rf (staging_of root))
      (fun () -> f root)
  in
  (* Listeners: a socket in a missing directory, a live server's
     socket, a TCP port another socket holds. *)
  with_root (fun root ->
      refused ~shards:3 ~family:"usage" ~socket:"./no-such-dir/s.sock" "socket path" root);
  with_server Fun.id (fun _t socket ->
      with_root (fun root -> refused ~shards:3 ~family:"usage" ~socket "live socket" root));
  (let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
   Fun.protect
     ~finally:(fun () -> Unix.close holder)
     (fun () ->
       Unix.bind holder (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
       Unix.listen holder 1;
       let port =
         match Unix.getsockname holder with
         | Unix.ADDR_INET (_, p) -> p
         | Unix.ADDR_UNIX _ -> Alcotest.fail "expected an inet address"
       in
       with_root (fun root ->
           refused ~shards:3 ~family:"usage"
             ~cfg:(fun c -> { c with Server_core.tcp_port = Some port })
             "held TCP port" root)));
  (* The marker check: another shard count, a non-empty root without
     SHARDS, a promised shard missing. *)
  with_root (fun root ->
      commit ~root ~shards:2;
      refused ~shards:3 ~family:"storage" "shard count" root);
  with_root (fun root ->
      Sys.mkdir root 0o755;
      Out_channel.with_open_bin (Filename.concat root "notes.txt") (fun oc ->
          Out_channel.output_string oc "not a store");
      refused ~shards:3 ~family:"storage" "root without SHARDS" root);
  with_root (fun root ->
      commit ~root ~shards:3;
      Relal.Csv.rm_rf (Perso_store.Store.shard_dir root 1);
      refused ~shards:3 ~family:"storage" "promised shard missing" root);
  (* Each shard's open and recovery: its WAL path a directory. *)
  for i = 0 to 2 do
    with_root (fun root ->
        commit ~root ~shards:3;
        let wal = Filename.concat (Perso_store.Store.shard_dir root i) "wal-000001.log" in
        Sys.remove wal;
        Sys.mkdir wal 0o755;
        refused ~shards:3 ~family:"storage" (Printf.sprintf "recovery of shard %d" i) root)
  done;
  (* The export: a malformed row, planted faults, a simulated kill. *)
  with_root (fun root ->
      refused ~shards:3 ~family:"storage" ~db:(six_user_catalog ~alice:Relal.Value.Null ())
        "malformed row" root);
  List.iter
    (fun (what, pt, k, fault) ->
      with_root (fun root ->
          let killed = fault = Relal.Chaos.Crash in
          Relal.Chaos.plan [ (pt, k, fault) ];
          Fun.protect ~finally:Relal.Chaos.unplan (fun () ->
              refused ~killed ~shards:3 ~family:"storage" what root);
          if killed then begin
            Alcotest.(check bool) "a kill leaves its staging directory" true
              (Sys.file_exists (staging_of root));
            commit ~root ~shards:3;
            Alcotest.(check bool) "the next start removes it" false
              (Sys.file_exists (staging_of root))
          end))
    [
      ("export fsync failure", Relal.Chaos.Wal_append, 3, Relal.Chaos.Fsync_fail);
      ("shard store creation", Relal.Chaos.Manifest_write, 1, Relal.Chaos.Short_write 0.5);
      ("export killed", Relal.Chaos.Wal_append, 3, Relal.Chaos.Crash);
    ]

let () =
  Alcotest.run "server"
    [
      ( "rwlock",
        [
          Alcotest.test_case "writers exclusive" `Quick
            test_rwlock_write_exclusive;
          Alcotest.test_case "readers shared" `Quick test_rwlock_readers_shared;
        ] );
      ( "profile-lru",
        [
          Alcotest.test_case "hit/miss/evict/invalidate" `Quick test_profile_lru;
          Alcotest.test_case "capacity 0 disables" `Quick
            test_profile_lru_disabled;
          QCheck_alcotest.to_alcotest prop_profile_lru_reference;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue-full + expiry shedding" `Quick
            test_shed_and_expiry;
          Alcotest.test_case "slot cap holds through a drain" `Quick
            test_slot_cap_through_drain;
          Alcotest.test_case "client budgets capped by server" `Quick
            test_budget_capped_by_server;
        ] );
      ( "storage-per-request",
        [
          Alcotest.test_case "each save fails alone" `Quick
            test_storage_faults_per_request;
        ] );
      ( "socket",
        [
          Alcotest.test_case "live socket not taken over" `Quick
            test_live_socket_refused;
          Alcotest.test_case "held TCP port refused" `Quick test_tcp_port_held;
          Alcotest.test_case "TCP serves what the socket serves" `Quick
            test_tcp_serves;
        ] );
      ( "profile-bounds",
        [
          Alcotest.test_case "unbindable stored atom" `Quick
            test_unbindable_stored_profile;
          Alcotest.test_case "save validated" `Quick test_profile_save_validated;
          Alcotest.test_case "over-limit save refused" `Quick
            test_profile_save_bounded;
          Alcotest.test_case "save literal holding ]" `Quick
            test_profile_save_bracket_literal;
        ] );
      ( "wire-bounds",
        [
          Alcotest.test_case "over-limit request line refused" `Quick
            test_request_line_bounded;
        ] );
      ( "drain",
        [ Alcotest.test_case "graceful drain" `Quick test_graceful_drain ] );
      ( "hammer",
        [ Alcotest.test_case "mixed load under 5% faults" `Quick test_hammer ]
      );
      ( "durable-store",
        [
          Alcotest.test_case "memory/disk parity + restart" `Quick
            test_disk_memory_differential;
          Alcotest.test_case "refused first export writes no store" `Quick
            test_refused_export_writes_no_store;
          Alcotest.test_case "refused starts close their stores" `Quick
            test_refused_starts_close_stores;
          Alcotest.test_case "every refusal point of a start" `Quick
            test_refusal_points;
          Alcotest.test_case "a failed maintenance is counted in HEALTH" `Quick
            test_failed_maintenance_in_health;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "no profiles relation while serving" `Quick
            test_catalog_holds_no_profiles;
        ] );
    ]
