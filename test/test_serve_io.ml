(* The serving shell must be deterministic on the wire: an identical
   request script replayed against two fresh servers (memory and disk
   backends) must produce byte-identical reply transcripts — including
   the final HEALTH block, so every ledger counter matches too — and
   each transcript's ledger must balance. *)

open Perso_server

(* Retry backoff must not cost wall-clock in tests. *)
let () = Relal.Chaos.set_sleep ignore

let fresh_name =
  let n = ref 0 in
  fun prefix suffix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d%s" prefix (Unix.getpid ()) !n suffix)

(* -------------------------- raw-byte client -------------------------- *)

let connect_raw path =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "connect to %s timed out" path;
        Unix.sleepf 0.01;
        go ()
  in
  go ()

let is_err_line line =
  String.length line >= 4 && String.sub line 0 4 = "ERR "

(* One raw response: every byte up to and including END or a single ERR
   line. *)
let read_raw ic =
  let b = Buffer.create 256 in
  let rec go () =
    match In_channel.input_line ic with
    | None -> Alcotest.fail "connection closed mid-response"
    | Some line ->
        Buffer.add_string b line;
        Buffer.add_char b '\n';
        if line = "END" || is_err_line line then () else go ()
  in
  go ();
  Buffer.contents b

(* --------------------------- the script ------------------------------ *)

let profile_wire db =
  let p =
    Moviedb.Profile_gen.generate db
      { Moviedb.Profile_gen.default with seed = 9; n_selections = 10 }
  in
  Perso.Profile.to_string p
  |> String.split_on_char '\n'
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> String.concat " "

(* A request is the full wire text (headers included).  The script mixes
   every command family, a cache hit, an identical re-save, a protocol
   error, and budget headers — all deterministic, so even the trailing
   HEALTH counters must agree across replays. *)
let script db =
  let wire = profile_wire db in
  let sqls =
    Moviedb.Workload.queries db ~n:3 ~seed:5
    |> List.map Relal.Sql_print.query_to_string
  in
  let q n = List.nth sqls n in
  [
    "PING";
    "PROFILE SAVE u1 " ^ wire;
    "PROFILE LOAD u1";
    "PERSONALIZE u1 " ^ q 0;
    "RUN " ^ q 1;
    "PERSONALIZE u2 " ^ q 0;
    "FROB nonsense";
    "PROFILE SAVE u1 " ^ wire;
    "PERSONALIZE u1 " ^ q 0;
    (* Budget header exercised but not tripped: the exhaustion message
       embeds elapsed wall-clock, which can never be byte-stable. *)
    "MAX-ROWS 100000\nRUN " ^ q 2;
    "DEADLINE-MS 5000\nPERSONALIZE u1 " ^ q 1;
    "PROFILE LOAD nobody";
    "HEALTH";
  ]

(* Run the script over one connection; the transcript is the
   concatenation of every raw response. *)
let transcript_of socket_path requests =
  let fd = connect_raw socket_path in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Buffer.create 4096 in
      List.iter
        (fun req ->
          output_string oc req;
          output_char oc '\n';
          flush oc;
          Buffer.add_string b (read_raw ic))
        requests;
      output_string oc "QUIT\n";
      flush oc;
      Buffer.contents b)

let mk_db () = Moviedb.Datagen.(generate (scale ~seed:7 120))

let mk_cfg ~socket_path ~store_dir =
  {
    (Server.default_config ~socket_path) with
    Server_core.workers = 2;
    queue_capacity = 8;
    deadline_ms = None;
    shards = 2;
    store_dir;
  }

let with_store_dir backend f =
  match backend with
  | `Memory -> f None
  | `Disk ->
      let dir = fresh_name "perso_io_store" "" in
      Unix.mkdir dir 0o755;
      f (Some dir)

(* One replay: a fresh database, store directory and server. *)
let replay backend requests =
  with_store_dir backend (fun store_dir ->
      let cfg =
        mk_cfg ~socket_path:(fresh_name "perso_io" ".sock") ~store_dir
      in
      let t = Server.start cfg (mk_db ()) in
      Fun.protect
        ~finally:(fun () -> ignore (Server.stop t : Server.drain_outcome))
        (fun () -> transcript_of cfg.Server_core.socket_path requests))

(* Parse the trailing HEALTH block out of a transcript and audit the
   ledger: everything accepted is accounted, nothing is left queued. *)
let audit_ledger label transcript =
  let stats =
    String.split_on_char '\n' transcript
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | "STAT" :: k :: v -> Some (k, String.concat " " v)
           | _ -> None)
  in
  let n k =
    match List.assoc_opt k stats with
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> 0)
    | None -> Alcotest.failf "%s: HEALTH lacks %s" label k
  in
  Alcotest.(check int) (label ^ ": queue_depth") 0 (n "queue_depth");
  Alcotest.(check int) (label ^ ": in_flight") 0 (n "in_flight");
  Alcotest.(check int)
    (label ^ ": accepted fully accounted")
    (n "accepted")
    (n "completed_ok" + n "completed_err" + n "shed_expired");
  Alcotest.(check int)
    (label ^ ": pers ledger")
    (n "pers_ok" + n "pers_err")
    (n "cache_hit" + n "cache_miss" + n "cache_bypass")

let diff_backend backend () =
  let requests = script (mk_db ()) in
  let t_first = replay backend requests in
  let t_second = replay backend requests in
  audit_ledger "first" t_first;
  audit_ledger "second" t_second;
  if not (String.equal t_first t_second) then begin
    (* Pinpoint the first differing line for the failure message. *)
    let a = String.split_on_char '\n' t_first
    and b = String.split_on_char '\n' t_second in
    let rec first_diff i = function
      | x :: xs, y :: ys ->
          if String.equal x y then first_diff (i + 1) (xs, ys)
          else Alcotest.failf "line %d differs:\n  first:  %s\n  second: %s" i x y
      | [], y :: _ -> Alcotest.failf "second has extra line %d: %s" i y
      | x :: _, [] -> Alcotest.failf "first has extra line %d: %s" i x
      | [], [] -> Alcotest.fail "transcripts differ but no line does?"
    in
    first_diff 0 (a, b)
  end

let () =
  Alcotest.run "serve_io"
    [
      ( "differential",
        [
          Alcotest.test_case "replay = replay (memory)" `Quick
            (diff_backend `Memory);
          Alcotest.test_case "replay = replay (disk)" `Quick
            (diff_backend `Disk);
        ] );
    ]
