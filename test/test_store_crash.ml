(* Deterministic crash-recovery harness for the log-structured store.

   A fixed operation sequence runs once under an empty fault plan to
   count every crossing of every storage fault point; then, for each
   (point, crossing, fault-kind) triple, the sequence replays in a
   fresh directory with exactly that fault planted.  A simulated kill
   ([Chaos.Crashed]) abandons the handle mid-flight — no sync, no
   cleanup — and recovery must produce a state equal to the
   acknowledged-operations oracle, with the in-flight operation either
   fully present or fully absent (atomicity), never half of it.  The
   run then continues on the recovered handle and the final state must
   match the oracle again after one more clean reopen.

   The second group sweeps a server root's lifecycle the same way: a
   first start with a data dir, one PROFILE SAVE, and a restart, with a
   fault planted at each crossing; a start afterwards must serve every
   user the data dir's profile or their last acknowledged save. *)

open Perso_store
module Chaos = Relal.Chaos
module SMap = Map.Make (String)

let fresh_dir () =
  let f = Filename.temp_file "storecrash" "" in
  Sys.remove f;
  f

let config = { Store.segment_bytes = 96; fsync = false }

let e cond degree = { Codec.cond; degree }

(* ------------------------------ workload ----------------------------- *)

type op =
  | Save of string * int * Codec.entry list
  | Delete of string * int
  | Compact

let ops =
  let pad i = e (Printf.sprintf "COND.%02d = 'x'" i) (0.1 +. (0.01 *. float_of_int i)) in
  [
    Save ("julie", 1, [ pad 1; pad 2 ]);
    Save ("bob", 1, [ pad 3 ]);
    Save ("julie", 2, [ pad 4 ]);
    Save ("ann", 1, [ pad 5; pad 6; pad 7 ]);
    Save ("bob", 2, [ pad 8 ]);
    Delete ("ann", 2);
    Save ("carl", 1, [ pad 9 ]);
    Save ("julie", 3, [ pad 10; pad 11 ]);
    Compact;
    Save ("dana", 1, [ pad 12 ]);
    Delete ("bob", 3);
    Save ("ann", 3, [ pad 13 ]);
    Save ("carl", 2, [ pad 14; pad 15 ]);
    Save ("dana", 2, [ pad 16 ]);
    Save ("julie", 4, [ pad 17 ]);
    Compact;
    Save ("erin", 1, [ pad 18 ]);
    Delete ("carl", 3);
    Save ("erin", 2, [ pad 19; pad 20 ]);
  ]

(* The oracle: user -> (revision, live entries option), exactly the
   memory backend's semantics. *)
let apply oracle = function
  | Save (u, r, es) -> SMap.add u (r, Some es) oracle
  | Delete (u, r) -> SMap.add u (r, None) oracle
  | Compact -> oracle

let run_op s = function
  | Save (u, r, es) -> Store.save s ~user:u ~revision:r es
  | Delete (u, r) -> Store.delete s ~user:u ~revision:r
  | Compact -> Store.compact_now s

(* Observable store state, fully re-read from disk. *)
let state_of s =
  ( Store.revisions s,
    List.map (fun u -> (u, Store.load s ~user:u)) (Store.users s) )

let state_of_oracle oracle =
  ( SMap.bindings oracle |> List.map (fun (u, (r, _)) -> (u, r)),
    SMap.bindings oracle
    |> List.filter_map (fun (u, (_, es)) ->
           match es with Some es -> Some (u, Some es) | None -> None) )

let fault_points =
  [ Chaos.Wal_append; Chaos.Manifest_write; Chaos.Compact_write;
    Chaos.Compact_rename ]

let fault_kinds =
  [
    Chaos.Torn_write 0.3;
    Chaos.Torn_write 0.9;
    Chaos.Short_write 0.5;
    Chaos.Fsync_fail;
    Chaos.Crash;
  ]

let kind_name = function
  | Chaos.Torn_write f -> Printf.sprintf "torn(%g)" f
  | Chaos.Short_write f -> Printf.sprintf "short(%g)" f
  | Chaos.Fsync_fail -> "fsync-fail"
  | Chaos.Crash -> "crash"
  | Chaos.Flip_byte f -> Printf.sprintf "flip(%g)" f

(* Count kill sites: one clean run under an empty plan. *)
let count_crossings () =
  let dir = fresh_dir () in
  Chaos.plan [];
  Fun.protect ~finally:Chaos.unplan @@ fun () ->
  let s = Store.open_ ~config dir in
  List.iter (run_op s) ops;
  Store.close s;
  List.map (fun pt -> (pt, Chaos.crossings pt)) fault_points

let check_state ~ctx s expected =
  let got = state_of s in
  if got <> expected then
    Alcotest.failf "%s: recovered state diverges from oracle" ctx

(* One replay with a single planted fault.  Returns unit or fails the
   test with a [ctx]-labelled divergence. *)
let replay pt k kind =
  let ctx =
    Printf.sprintf "%s#%d %s" (Chaos.point_name pt) k (kind_name kind)
  in
  let dir = fresh_dir () in
  Chaos.plan [ (pt, k, kind) ];
  Fun.protect ~finally:Chaos.unplan @@ fun () ->
  (* The init manifest write is itself a kill site. *)
  let handle = ref None in
  let oracle = ref SMap.empty in
  let reopen () =
    Chaos.unplan ();
    let s = Store.open_ ~config dir in
    check_state ~ctx:(ctx ^ " (recovery)") s (state_of_oracle !oracle);
    handle := Some s
  in
  (match Store.open_ ~config dir with
  | s -> handle := Some s
  | exception Chaos.Crashed _ -> reopen ()
  | exception Chaos.Injected _ ->
      Chaos.unplan ();
      handle := Some (Store.open_ ~config dir));
  List.iter
    (fun op ->
      let s = Option.get !handle in
      match run_op s op with
      | () -> oracle := apply !oracle op
      | exception Chaos.Injected _ ->
          (* Transient: the store rolled the operation back and stays
             usable; the oracle must not advance. *)
          check_state ~ctx:(ctx ^ " (after transient)") s
            (state_of_oracle !oracle)
      | exception Chaos.Crashed _ ->
          (* Simulated kill: drop the handle cold and recover.  The
             in-flight operation must be all-or-nothing: the recovered
             state equals the oracle with or without it. *)
          Store.abandon s;
          Chaos.unplan ();
          let s' = Store.open_ ~config dir in
          let without = state_of_oracle !oracle in
          let with_op = state_of_oracle (apply !oracle op) in
          let got = state_of s' in
          if got = without then ()
          else if got = with_op then oracle := apply !oracle op
          else
            Alcotest.failf
              "%s: recovered state is neither pre- nor post-operation" ctx;
          handle := Some s')
    ops;
  let s = Option.get !handle in
  check_state ~ctx:(ctx ^ " (final)") s (state_of_oracle !oracle);
  Store.close s;
  (* Durability: one more cold open must see the same state. *)
  let s' = Store.open_ ~config dir in
  check_state ~ctx:(ctx ^ " (reopen)") s' (state_of_oracle !oracle);
  Store.close s'

let test_every_kill_site () =
  let crossings = count_crossings () in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 crossings in
  Alcotest.(check bool)
    (Printf.sprintf "found kill sites (%d)" total)
    true (total > 0);
  List.iter
    (fun (pt, n) ->
      for k = 0 to n - 1 do
        List.iter (fun kind -> replay pt k kind) fault_kinds
      done)
    crossings

(* A fault-free replay of the same workload agrees with the oracle —
   the harness's own control. *)
let test_clean_control () =
  let dir = fresh_dir () in
  let s = Store.open_ ~config dir in
  let oracle = List.fold_left apply SMap.empty ops in
  List.iter (run_op s) ops;
  check_state ~ctx:"control" s (state_of_oracle oracle);
  let explicit = List.length (List.filter (fun op -> op = Compact) ops) in
  Alcotest.(check bool) "the workload reaches automatic maintenance twice" true
    ((Store.stats s).Store.compactions - explicit >= 2);
  Store.close s;
  let s' = Store.open_ ~config dir in
  check_state ~ctx:"control reopen" s' (state_of_oracle oracle);
  Store.close s'

(* --------------------------- root lifecycle -------------------------- *)

module Server = Perso_server.Server
module Server_core = Perso_server.Server_core
module Client = Perso_server.Client
module Protocol = Perso_server.Protocol

let users = [ "alice"; "bob"; "carol"; "dave"; "erin"; "frank" ]

(* What the data dir holds for a user, and what the one save writes. *)
let seeded = [ [ "'GENRE.genre = ''comedy'''"; "0.9" ] ]
let saved = [ [ "'GENRE.genre = ''drama'''"; "0.8" ] ]
let save_cmd = "PROFILE SAVE alice [ GENRE.genre = 'drama', 0.8 ]"

(* A fresh catalog with the data dir's profiles: each start takes its
   own, as each process loads the data dir anew. *)
let catalog () =
  let db = Moviedb.Personas.tiny_db () in
  Perso.Profile_store.install db;
  List.iter
    (fun u ->
      Relal.Database.insert db Perso.Profile_store.table_name
        [
          Relal.Value.Str u;
          Relal.Value.Str "GENRE.genre = 'comedy'";
          Relal.Value.Float 0.9;
        ])
    users;
  db

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "perso_crash_%d_%d.sock" (Unix.getpid ()) !n)

(* A started server with its socket path. *)
let start ~shards root =
  let socket_path = fresh_socket () in
  let cfg = Server.default_config ~socket_path in
  ( Server.start { cfg with Server_core.shards; store_dir = Some root } (catalog ()),
    socket_path )

let stop (t, _) = ignore (Server.stop t : Server.drain_outcome)

let with_client (_, socket) f =
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* The run swept: a first start with the data dir, one save, a restart.
   [acked] records whether the save was acknowledged.  A planted fault
   ends the run where it fires: a start raises, or the save is refused. *)
let lifecycle ~shards root acked =
  let t = start ~shards root in
  Fun.protect
    ~finally:(fun () -> stop t)
    (fun () ->
      with_client t (fun c ->
          acked :=
            match Client.request c save_cmd with
            | Ok (Protocol.Message _) -> true
            | _ -> false));
  stop (start ~shards root)

let rows_of = function
  | Ok (Protocol.Rows { rows; _ }) -> Some rows
  | _ -> None

let lifecycle_points =
  [ Chaos.Wal_append; Chaos.Wal_fsync; Chaos.Manifest_write ]
let lifecycle_kinds = fault_kinds @ [ Chaos.Flip_byte 0.5 ]

let fresh_root () =
  let f = Filename.temp_file "rootcrash" "" in
  Sys.remove f;
  f

(* One planted fault; [None] when every user is served as required,
   [Some why] otherwise. *)
let lifecycle_case ~shards pt k kind =
  let root = fresh_root () in
  Fun.protect ~finally:(fun () -> Relal.Csv.rm_rf root) @@ fun () ->
  let ctx =
    Printf.sprintf "%d shard(s) %s#%d %s" shards (Chaos.point_name pt) k
      (kind_name kind)
  in
  Chaos.plan [ (pt, k, kind) ];
  let acked = ref false in
  (* Only a start raises [Crashed] (the server answers a killed save
     with a storage error), and only the first start crosses a point. *)
  let killed =
    Fun.protect ~finally:Chaos.unplan (fun () ->
        match lifecycle ~shards root acked with
        | () -> false
        | exception Chaos.Crashed _ -> true
        | exception _ -> false)
  in
  let flip = match kind with Chaos.Flip_byte _ -> true | _ -> false in
  if killed && Sys.file_exists root then
    Some (ctx ^ ": a kill during the first start left a root")
  else
    match start ~shards root with
    | exception e ->
        if flip then None
        else
          Some
            (Printf.sprintf "%s: the start after it is refused: %s" ctx
               (Perso.Error.to_string (Perso.Error.of_exn_any e)))
    | t ->
        Fun.protect ~finally:(fun () -> stop t) @@ fun () ->
        with_client t (fun c ->
            List.find_map
              (fun u ->
                let got = rows_of (Client.request c ("PROFILE LOAD " ^ u)) in
                let ok =
                  if u <> "alice" then got = Some seeded
                  else if !acked then got = Some saved
                  else got = Some seeded || got = Some saved
                in
                if ok then None
                else
                  Some
                    (Printf.sprintf "%s: %s gets %s" ctx u
                       (match got with
                       | Some [] -> "an empty profile"
                       | Some rows ->
                           string_of_int (List.length rows) ^ " other entries"
                       | None -> "no rows")))
              users)

(* Count the crossings of one clean lifecycle, then plant each fault
   kind at each crossing.  [Wal_fsync] has no planted-fault site (an
   fsync failure is planted as [Fsync_fail] at [Wal_append]), so it
   counts none. *)
let test_root_lifecycle shards () =
  let root = fresh_root () in
  Chaos.plan [];
  let crossings =
    Fun.protect
      ~finally:(fun () ->
        Chaos.unplan ();
        Relal.Csv.rm_rf root)
      (fun () ->
        let acked = ref false in
        lifecycle ~shards root acked;
        Alcotest.(check bool) "clean run acknowledges the save" true !acked;
        List.map (fun pt -> (pt, Chaos.crossings pt)) lifecycle_points)
  in
  Alcotest.(check (list int))
    "crossings: the export and the save append, one manifest per shard"
    [ List.length users + 1; 0; shards ]
    (List.map snd crossings);
  let failures =
    List.concat_map
      (fun (pt, n) ->
        List.concat_map
          (fun k ->
            List.filter_map
              (fun kind -> lifecycle_case ~shards pt k kind)
              lifecycle_kinds)
          (List.init n Fun.id))
      crossings
  in
  if failures <> [] then
    Alcotest.failf "%d case(s) lose a profile:\n%s" (List.length failures)
      (String.concat "\n" failures)

let () =
  Relal.Chaos.set_sleep ignore;
  Alcotest.run "store-crash"
    [
      ( "crash-recovery",
        [
          Alcotest.test_case "clean control" `Quick test_clean_control;
          Alcotest.test_case "every kill site x every fault" `Quick
            test_every_kill_site;
        ] );
      ( "root-lifecycle",
        [
          Alcotest.test_case "1 shard: every crossing x every fault" `Quick
            (test_root_lifecycle 1);
          Alcotest.test_case "3 shards: every crossing x every fault" `Quick
            (test_root_lifecycle 3);
        ] );
    ]
