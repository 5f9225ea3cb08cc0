(* Differential check on the wire path: PERSONALIZE through the real
   socket server (PROFILE SAVE + Client round-trip) must return
   byte-identical notes, columns, and rows to calling
   Personalize.personalize_sql_r in-process on an identical database
   with the same parsed profile and the same capped budget. *)

open Perso_server

(* Retry backoff must not cost wall-clock in tests. *)
let () = Relal.Chaos.set_sleep ignore

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "perso_diff_%d_%d.sock" (Unix.getpid ()) !n)

(* The server's budget for a headerless request is exactly the config
   cap; mirror it for the in-process run.  Deadline stays None so both
   sides are wall-clock independent. *)
let budget =
  { Relal.Governor.deadline_ms = None;
    max_rows = Some 500_000;
    max_expansions = Some 5_000 }

(* One profile, serialized once; both sides parse the same text, so
   degree-printing round-trips cannot skew the comparison. *)
let profile_and_wire db =
  let p =
    Moviedb.Profile_gen.generate db
      { Moviedb.Profile_gen.default with seed = 9; n_selections = 12 }
  in
  let text = Perso.Profile.to_string p in
  let wire =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
    |> String.concat " "
  in
  match Perso.Profile.of_string text with
  | Ok parsed -> (parsed, wire)
  | Error e -> Alcotest.failf "profile text does not re-parse: %s" e

let local_rows (res : Relal.Exec.result) =
  List.map
    (fun row -> Array.to_list (Array.map Relal.Value.to_string row))
    res.Relal.Exec.rows

let test_wire_matches_inprocess () =
  let mk_db () = Moviedb.Datagen.(generate (scale ~seed:7 120)) in
  let db_server = mk_db () and db_local = mk_db () in
  let profile, wire_entries = profile_and_wire db_local in
  let socket_path = fresh_socket () in
  let cfg =
    {
      (Server.default_config ~socket_path) with
      Server_core.workers = 2;
      deadline_ms = None;
      max_rows = budget.Relal.Governor.max_rows;
      max_expansions = budget.Relal.Governor.max_expansions;
    }
  in
  let t = Server.start cfg db_server in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop t : Server.drain_outcome))
    (fun () ->
      let c = Client.connect ~wait_ms:2000. socket_path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.request c ("PROFILE SAVE u1 " ^ wire_entries) with
          | Ok (Protocol.Message _) -> ()
          | Ok _ -> Alcotest.fail "unexpected PROFILE SAVE reply shape"
          | Error e -> Alcotest.failf "PROFILE SAVE failed: %s" e);
          let sqls =
            Moviedb.Workload.queries db_local ~n:4 ~seed:5
            |> List.map Relal.Sql_print.query_to_string
          in
          List.iter
            (fun sql ->
              let w_notes, w_cols, w_rows =
                match Client.request c ("PERSONALIZE u1 " ^ sql) with
                | Ok (Protocol.Rows { notes; cols; rows }) -> (notes, cols, rows)
                | Ok _ -> Alcotest.failf "unexpected reply shape for %s" sql
                | Error e -> Alcotest.failf "request failed (%s): %s" sql e
              in
              match
                Perso.Personalize.personalize_sql_r ~budget db_local profile sql
              with
              | Error e ->
                  Alcotest.failf "in-process personalize failed (%s): %s" sql
                    (Perso.Error.to_string e)
              | Ok run ->
                  let notes =
                    List.map Perso.Personalize.degradation_to_string
                      run.Perso.Personalize.degradations
                  in
                  let res = run.Perso.Personalize.result in
                  Alcotest.(check (list string))
                    ("notes: " ^ sql) notes w_notes;
                  Alcotest.(check (list string))
                    ("cols: " ^ sql)
                    (Array.to_list res.Relal.Exec.cols)
                    w_cols;
                  Alcotest.(check (list (list string)))
                    ("rows byte-identical: " ^ sql) (local_rows res) w_rows)
            sqls))

let () =
  Alcotest.run "serve-diff"
    [
      ( "differential",
        [
          Alcotest.test_case "wire = in-process (4 queries)" `Quick
            test_wire_matches_inprocess;
        ] );
    ]
