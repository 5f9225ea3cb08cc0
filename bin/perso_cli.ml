(* perdb — command-line front end to the query-personalization library.

   Subcommands:
     demo          run the paper's Julie example end-to-end on the tiny DB
     run-sql       execute ad-hoc SQL on a movie database
     personalize   personalize and run a query under a profile file
     gen-profile   write a synthetic profile (text format) to a file
     learn-profile derive a profile from a file of logged queries
     dump-data     write a database as schema.ddl + CSVs
     dot           print a profile's personalization graph as Graphviz
     serve         run the concurrent personalization server on a socket
     scrub         verify / repair a profile store's on-disk file set
     call          send one request to a running server
     sim           deterministic simulation + metamorphic oracle suite

   Databases come from three sources: the built-in tiny example DB
   (--movies 0), the synthetic generator (--movies N), or a directory of
   schema.ddl + CSV files (--data-dir DIR). *)

open Cmdliner

let movies_arg =
  let doc = "Number of movies in the synthetic database (0 = tiny example DB)." in
  Arg.(value & opt int 2000 & info [ "movies" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for data/profile generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let data_dir_arg =
  let doc = "Load the database from this directory (schema.ddl + CSV files)." in
  (* a plain string, not Arg.dir: the loader must see missing paths
     itself so it can recover a dump parked at <dir>.old by an
     interrupted save, and report the rest as typed storage errors *)
  Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)

let db_of ?data_dir ~movies ~seed () =
  match data_dir with
  | Some dir -> Relal.Csv.load_db ~dir
  | None ->
      if movies <= 0 then Moviedb.Personas.tiny_db ()
      else Moviedb.Datagen.(generate (scale ~seed movies))

let print_result res = Format.printf "%a" (Relal.Exec.pp_result ~max_rows:25) res

(* Uniform failure discipline: every subcommand body runs under
   [guarded], so any failure — parse, bind, storage, budget, injected
   fault, even Stack_overflow — exits non-zero with a one-line typed
   message on stderr instead of a backtrace. *)
let handle_error e =
  Printf.eprintf "%s\n" (Perso.Error.to_string e);
  Perso.Error.exit_code e

let guarded f =
  match Perso.Error.guard f with Ok code -> code | Error e -> handle_error e

(* ---------------- flag validation ---------------- *)

(* Out-of-range flags are [Usage] errors (family "usage", exit code 6)
   reported before any work starts, not assertion failures deep in the
   server.  [pos_int]/[pos_float] yield a complaint when a flag is
   nonsensical; [validated] reports the first complaint or runs the
   command. *)
let pos_int name v =
  if v > 0 then None
  else Some (Printf.sprintf "--%s must be positive (got %d)" name v)

let pos_float name v =
  if v > 0. then None
  else Some (Printf.sprintf "--%s must be positive (got %g)" name v)

let validated checks k =
  match List.find_map Fun.id checks with
  | Some msg -> handle_error (Perso.Error.Usage msg)
  | None -> k ()

(* ---------------- query budgets ---------------- *)

let deadline_arg =
  let doc = "Abort execution after this many wall-clock milliseconds." in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_rows_arg =
  let doc = "Abort execution after producing this many intermediate rows." in
  Arg.(value & opt (some int) None & info [ "max-rows" ] ~docv:"N" ~doc)

let max_expansions_arg =
  let doc = "Abort preference selection after this many graph expansions." in
  Arg.(value & opt (some int) None & info [ "max-expansions" ] ~docv:"N" ~doc)

let budget_of deadline_ms max_rows max_expansions =
  { Relal.Governor.deadline_ms; max_rows; max_expansions }

let gov_of budget =
  if Relal.Governor.is_unlimited budget then None
  else Some (Relal.Governor.start budget)

(* ---------------- demo ---------------- *)

let demo () =
  guarded (fun () ->
      let db = Moviedb.Personas.tiny_db () in
      let julie = Moviedb.Personas.julie () in
      let q = Moviedb.Workload.tonight_query () in
      Format.printf "== Original query ==@.%s@.@."
        (Relal.Sql_print.query_to_pretty (Relal.Binder.bind db q));
      let params =
        { Perso.Personalize.default_params with k = Perso.Criteria.Top_r 3 }
      in
      let outcome = Perso.Personalize.personalize ~params db julie q in
      print_string (Perso.Explain.outcome_report outcome);
      Format.printf "@.== Ranked results (Julie) ==@.";
      print_result (Perso.Personalize.execute db outcome);
      0)

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Run the paper's Julie example end-to-end")
    Term.(const demo $ const ())

(* ---------------- run-sql ---------------- *)

let run_sql movies seed data_dir deadline max_rows max_expansions sql =
  guarded (fun () ->
      let db = db_of ?data_dir ~movies ~seed () in
      let gov = gov_of (budget_of deadline max_rows max_expansions) in
      print_result (Relal.Engine.run_sql ?gov db sql);
      0)

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"SQL text.")

let run_sql_cmd =
  Cmd.v (Cmd.info "run-sql" ~doc:"Execute SQL on a synthetic movie database")
    Term.(
      const run_sql $ movies_arg $ seed_arg $ data_dir_arg $ deadline_arg
      $ max_rows_arg $ max_expansions_arg $ sql_arg)

(* ---------------- personalize ---------------- *)

let personalize movies seed data_dir deadline max_rows max_expansions
    profile_path sql k l m method_ top semantic =
  validated
    [
      Option.bind top (fun n ->
          if n >= 0 then None
          else Some (Printf.sprintf "--top must be >= 0 (got %d)" n));
      (if top <> None && method_ = "sq" then
         Some "--top needs --method mq: SQ does not rank its results"
       else None);
    ]
  @@ fun () ->
  guarded (fun () ->
      let db = db_of ?data_dir ~movies ~seed () in
      match Perso.Profile.load profile_path with
      | Error e -> handle_error (Perso.Error.Profile e)
      | Ok profile -> (
          let params =
            {
              Perso.Personalize.k = Perso.Criteria.Top_r k;
              m = `Count m;
              l = `At_least l;
              method_ = (if method_ = "sq" then `SQ else `MQ);
              rank = method_ <> "sq";
            }
          in
          let budget = budget_of deadline max_rows max_expansions in
          let related =
            if semantic then
              Some
                (Perso.Semantic.instance_related db
                   (Perso.Qgraph.of_query db
                      (Relal.Binder.bind db (Relal.Sql_parser.parse sql))))
            else None
          in
          match
            Perso.Personalize.personalize_sql_r ~params ~budget ?related db
              profile sql
          with
          | Error e -> handle_error e
          | Ok run ->
              List.iter
                (fun d ->
                  Printf.eprintf "degraded: %s\n"
                    (Perso.Personalize.degradation_to_string d))
                run.Perso.Personalize.degradations;
              let result = run.Perso.Personalize.result in
              (match (run.Perso.Personalize.outcome, top) with
              | None, _ ->
                  Format.printf "== Unpersonalized results ==@.";
                  print_result result
              | Some outcome, None ->
                  print_string (Perso.Explain.outcome_report outcome);
                  Format.printf "@.== Results ==@.";
                  print_result result
              | Some outcome, Some n ->
                  (* Ranked MQ already delivers rows most interesting
                     first: Top-N is the executed result's prefix. *)
                  print_string (Perso.Explain.outcome_report outcome);
                  Format.printf "@.== Top-%d results ==@." n;
                  print_result
                    {
                      result with
                      Relal.Exec.rows =
                        List.filteri (fun i _ -> i < n) result.Relal.Exec.rows;
                    });
              0))

let profile_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "profile" ] ~docv:"FILE" ~doc:"Profile file (text format).")

let k_arg = Arg.(value & opt int 5 & info [ "k" ] ~doc:"Top-K preferences.")
let l_arg = Arg.(value & opt int 1 & info [ "l" ] ~doc:"Minimum preferences per row.")
let m_arg = Arg.(value & opt int 0 & info [ "m" ] ~doc:"Mandatory preferences.")

let method_arg =
  Arg.(
    value
    & opt (enum [ ("sq", "sq"); ("mq", "mq") ]) "mq"
    & info [ "method" ] ~doc:"Integration method: sq or mq.")

let top_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "top" ] ~docv:"N"
        ~doc:
          "Deliver only the N most interesting rows: the first N rows of the \
           ranked result (MQ only).")

let semantic_arg =
  Arg.(
    value & flag
    & info [ "semantic" ]
        ~doc:
          "Filter preferences at the semantic level: keep only those \
           satisfiable together with the query on the current data.")

let personalize_cmd =
  Cmd.v
    (Cmd.info "personalize" ~doc:"Personalize and execute a query under a profile")
    Term.(
      const personalize $ movies_arg $ seed_arg $ data_dir_arg $ deadline_arg
      $ max_rows_arg $ max_expansions_arg $ profile_arg $ sql_arg
      $ k_arg $ l_arg $ m_arg $ method_arg $ top_arg $ semantic_arg)

(* ---------------- gen-profile ---------------- *)

let gen_profile movies seed size out =
  guarded (fun () ->
      let db = db_of ~movies ~seed () in
      let cfg = { Moviedb.Profile_gen.default with seed; n_selections = size } in
      let profile = Moviedb.Profile_gen.generate db cfg in
      Perso.Profile.save out profile;
      Printf.printf "wrote %d selections (+%d joins) to %s\n"
        (Perso.Profile.size profile)
        (Perso.Profile.cardinal profile - Perso.Profile.size profile)
        out;
      0)

let size_arg =
  Arg.(value & opt int 20 & info [ "size" ] ~doc:"Number of atomic selections.")

let out_arg =
  Arg.(
    required & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")

let gen_profile_cmd =
  Cmd.v (Cmd.info "gen-profile" ~doc:"Generate a synthetic profile file")
    Term.(const gen_profile $ movies_arg $ seed_arg $ size_arg $ out_arg)

(* ---------------- learn-profile ---------------- *)

let learn_profile movies seed data_dir log_path out =
  guarded (fun () ->
      let db = db_of ?data_dir ~movies ~seed () in
      let lines =
        In_channel.with_open_text log_path In_channel.input_lines
        |> List.map String.trim
        |> List.filter (fun l ->
               l <> "" && not (String.length l > 0 && l.[0] = '#'))
      in
      let queries =
        List.filter_map
          (fun line ->
            match Relal.Sql_parser.parse line with
            | q -> Some q
            | exception Relal.Sql_parser.Parse_error e ->
                Printf.eprintf "skipping unparseable log line (%s): %s\n" e line;
                None
            | exception Relal.Sql_lexer.Lex_error (e, _) ->
                Printf.eprintf "skipping unlexable log line (%s): %s\n" e line;
                None)
          lines
      in
      let profile = Perso.Learn.learn db queries in
      Perso.Profile.save out profile;
      Printf.printf "learned %d preferences from %d queries -> %s\n"
        (Perso.Profile.cardinal profile)
        (List.length queries) out;
      0)

let log_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "log" ] ~docv:"FILE" ~doc:"Query log: one SQL statement per line.")

let learn_profile_cmd =
  Cmd.v
    (Cmd.info "learn-profile"
       ~doc:"Derive a profile from a query log (implicit profile creation)")
    Term.(
      const learn_profile $ movies_arg $ seed_arg $ data_dir_arg $ log_arg $ out_arg)

(* ---------------- dump-data ---------------- *)

let dump_data movies seed dir =
  guarded (fun () ->
      let db = db_of ~movies ~seed () in
      Relal.Csv.save_db ~dir db;
      Format.printf "%a" Relal.Database.pp_summary db;
      Printf.printf "wrote schema.ddl + CSVs to %s\n" dir;
      0)

let dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")

let dump_data_cmd =
  Cmd.v
    (Cmd.info "dump-data" ~doc:"Write a synthetic database as schema.ddl + CSVs")
    Term.(const dump_data $ movies_arg $ seed_arg $ dir_arg)

(* ---------------- dot ---------------- *)

let dot profile_path =
  guarded (fun () ->
      match Perso.Profile.load profile_path with
      | Error e -> handle_error (Perso.Error.Profile e)
      | Ok profile ->
          Format.printf "%a" Perso.Pgraph.pp_dot
            (Perso.Pgraph.of_profile profile);
          0)

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Print a profile's personalization graph as Graphviz")
    Term.(const dot $ profile_arg)

(* ---------------- serve ---------------- *)

(* "--store memory" or "--store disk:DIR"; anything else is a Usage
   complaint (returned, not raised, so [validated] can report it). *)
let parse_store = function
  | "memory" -> Ok None
  | s when String.length s > 5 && String.sub s 0 5 = "disk:" ->
      Ok (Some (String.sub s 5 (String.length s - 5)))
  | s ->
      Error
        (Printf.sprintf "--store must be 'memory' or 'disk:DIR' (got %S)" s)

let serve movies seed data_dir deadline max_rows max_expansions socket tcp
    workers queue drain_ms chaos_seed chaos_p no_cache cache_entries
    cache_mb shards store profile_lru =
  let store_dir = parse_store store in
  validated
    [
      (match store_dir with Error m -> Some m | Ok _ -> None);
      pos_int "workers" workers;
      pos_int "queue" queue;
      pos_int "cache-entries" cache_entries;
      pos_float "cache-mb" cache_mb;
      pos_int "shards" shards;
      (if profile_lru >= 0 then None
       else
         Some
           (Printf.sprintf "--profile-lru must be >= 0 (got %d)" profile_lru));
    ]
  @@ fun () ->
  let store_dir = Result.get_ok store_dir in
  guarded (fun () ->
      let db = db_of ?data_dir ~movies ~seed () in
      (match chaos_p with
      | Some p when p > 0. ->
          ignore (Relal.Chaos.arm ~seed:chaos_seed ~p () : Relal.Chaos.stats);
          Printf.eprintf "chaos armed: seed=%d p=%g\n%!" chaos_seed p
      | _ -> ());
      let cfg =
        {
          (Perso_server.Server.default_config ~socket_path:socket) with
          Perso_server.Server_core.tcp_port = tcp;
          workers;
          queue_capacity = queue;
          deadline_ms = deadline;
          max_rows;
          max_expansions;
          drain_ms;
          cache = not no_cache;
          cache_entries;
          cache_mb;
          shards;
          store_dir;
          profile_lru_entries = profile_lru;
        }
      in
      let t = Perso_server.Server.start cfg db in
      (* Recovery surfaced in the startup log: silent on clean opens so
         scripted output stays stable, loud whenever the store truncated
         torn WAL tails. *)
      (let h = Perso_server.Server.health t in
       let torn =
         Option.value ~default:"0" (List.assoc_opt "store_torn_truncated" h)
       in
       if torn <> "0" then
         Printf.eprintf "recovery: truncated %s torn WAL tail(s)\n%!" torn);
      (* SIGTERM/SIGINT begin the drain; [wait] completes it. *)
      let on_signal _ = Perso_server.Server.request_stop t in
      (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
       with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
       with Invalid_argument _ -> ());
      Printf.eprintf "serving on %s%s (workers=%d queue=%d)\n%!" socket
        (match tcp with
        | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
        | None -> "")
        workers queue;
      let outcome = Perso_server.Server.wait t in
      Printf.eprintf "drained=%b shed_at_stop=%d\n%!"
        outcome.Perso_server.Server.drained
        outcome.Perso_server.Server.shed_at_stop;
      if outcome.Perso_server.Server.drained then 0 else 1)

let socket_arg =
  let doc = "Unix-domain socket path to listen on." in
  Arg.(
    required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Also listen on 127.0.0.1:$(docv)." in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let workers_arg =
  let doc =
    "Request slots: at most $(docv) requests run at once, each on its \
     connection's thread; more wait in the admission queue."
  in
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)

let queue_arg =
  let doc = "Admission-queue capacity; requests beyond it are shed." in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let drain_arg =
  let doc = "Graceful-shutdown drain deadline (milliseconds)." in
  Arg.(value & opt float 2000. & info [ "drain-ms" ] ~docv:"MS" ~doc)

let chaos_seed_arg =
  let doc = "Seed for --chaos-p fault injection." in
  Arg.(value & opt int 1337 & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let chaos_p_arg =
  let doc =
    "Arm seeded fault injection at this probability per injection point \
     (testing aid)."
  in
  Arg.(value & opt (some float) None & info [ "chaos-p" ] ~docv:"P" ~doc)

let no_cache_arg =
  let doc =
    "Disable the personalization plan cache (every request recomputes cold)."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_entries_arg =
  let doc = "Plan-cache capacity in entries (LRU beyond it)." in
  Arg.(value & opt int 512 & info [ "cache-entries" ] ~docv:"N" ~doc)

let cache_mb_arg =
  let doc = "Plan-cache capacity in mebibytes of reachable heap." in
  Arg.(value & opt float 32. & info [ "cache-mb" ] ~docv:"MB" ~doc)

let shards_arg =
  let doc =
    "User-id shards for the profile store: a PROFILE SAVE locks only its \
     shard, so queries and other users' saves keep flowing."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let store_arg =
  let doc =
    "Profile-store backend: $(b,memory) (default: profiles last until \
     the server stops) or $(b,disk:DIR) — a crash-consistent \
     log-structured store rooted at DIR with one store per shard, the \
     server's one way to persist profiles; on startup a non-empty DIR is \
     authoritative and its write-ahead logs are replayed."
  in
  Arg.(value & opt string "memory" & info [ "store" ] ~docv:"BACKEND" ~doc)

let profile_lru_arg =
  let doc =
    "Hot parsed-profile LRU capacity in entries, split across shards \
     (0 disables it)."
  in
  Arg.(value & opt int 512 & info [ "profile-lru" ] ~docv:"N" ~doc)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve personalized queries concurrently over a socket (admission \
          control, graceful drain)")
    Term.(
      const serve $ movies_arg $ seed_arg $ data_dir_arg $ deadline_arg
      $ max_rows_arg $ max_expansions_arg $ socket_arg $ tcp_arg $ workers_arg
      $ queue_arg $ drain_arg $ chaos_seed_arg $ chaos_p_arg
      $ no_cache_arg $ cache_entries_arg $ cache_mb_arg $ shards_arg
      $ store_arg $ profile_lru_arg)

(* ---------------- scrub ---------------- *)

(* Offline, read-only verification of a profile-store directory: walk
   every file the manifests name and re-verify promised sizes, frame
   CRCs and records.  DIR is either one store directory (a MANIFEST, or
   an older build's set of copies, which the scan refuses by name) or a
   serve-layout store root (SHARDS marker + shard-NN subdirectories); a
   path that is neither holds no store to vouch for, a storage error.
   Damage is reported exactly where recovery would refuse. *)
let scrub dir =
  guarded (fun () ->
      let holds name = Sys.file_exists (Filename.concat dir name) in
      let no_store why =
        raise
          (Perso.Error.Typed
             (Perso.Error.Storage
                (Printf.sprintf "no profile store at %s: %s" dir why)))
      in
      let stores =
        if not (Sys.file_exists dir) then no_store "the path does not exist"
        else if holds "SHARDS" then
          List.map
            (fun (sh : Perso_store.Scrub.shard) -> (sh.name ^ "/", sh.report))
            (Perso_store.Scrub.scan_root dir)
        else if holds "MANIFEST" || Perso_store.Store.older_root dir then
          [ ("", Perso_store.Scrub.scan_dir dir) ]
        else no_store "it holds neither a MANIFEST nor a SHARDS marker"
      in
      let damaged = ref 0 in
      List.iter
        (fun (prefix, (rep : Perso_store.Scrub.report)) ->
          List.iter
            (fun (fr : Perso_store.Scrub.file_report) ->
              Printf.printf "%s%s: %s (%d records)\n" prefix fr.file
                (Perso_store.Scrub.status_name fr.status)
                fr.records)
            rep.files;
          damaged := !damaged + List.length rep.damaged)
        stores;
      if !damaged > 0 then begin
        Printf.printf "scrub: %d damaged file(s)\n" !damaged;
        2
      end
      else 0)

let scrub_dir_arg =
  let doc = "Profile-store directory (a store root or one shard's store)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let scrub_cmd =
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Verify a profile store's on-disk file set without writing to it: \
          CRC-check every record and every promised size; exit 2 on damage")
    Term.(const scrub $ scrub_dir_arg)

(* ---------------- sim ---------------- *)

let sim seed runs steps mutate oracle_cases oracle_movies oracle_selections =
  guarded (fun () ->
      Perso_sim.Driver.main
        {
          Perso_sim.Driver.seed;
          runs;
          steps;
          mutate;
          oracle_cases;
          oracle_movies;
          oracle_selections;
        })

let sim_runs_arg =
  let doc = "Number of scenario seeds to simulate (seed, seed+1, …)." in
  Arg.(value & opt int 5 & info [ "runs" ] ~docv:"M" ~doc)

let sim_steps_arg =
  let doc =
    "Replay exactly this encoded step list under --seed instead of \
     generating scenarios (printed by every failure report)."
  in
  Arg.(value & opt (some string) None & info [ "steps" ] ~docv:"STEPS" ~doc)

let sim_mutate_arg =
  let doc =
    "Mutation self-test: inject the dropped-completed_ok ledger bug and \
     require the harness to catch it and shrink the repro to ≤ 10 steps."
  in
  Arg.(value & flag & info [ "mutate" ] ~doc)

let sim_oracle_cases_arg =
  let doc = "Metamorphic/differential oracle cases (0 skips the oracle)." in
  Arg.(value & opt int 2 & info [ "oracle-cases" ] ~docv:"N" ~doc)

let sim_oracle_movies_arg =
  let doc = "Synthetic database size for the oracle layer." in
  Arg.(value & opt int 1200 & info [ "oracle-movies" ] ~docv:"N" ~doc)

let sim_oracle_selections_arg =
  let doc = "Profile size for the oracle layer." in
  Arg.(value & opt int 120 & info [ "oracle-selections" ] ~docv:"N" ~doc)

let sim_cmd =
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Deterministic simulation: seeded client fleets against the server \
          core under a virtual clock, invariant audits, failure shrinking, \
          and metamorphic oracles over the personalization engine")
    Term.(
      const sim $ seed_arg $ sim_runs_arg $ sim_steps_arg $ sim_mutate_arg
      $ sim_oracle_cases_arg $ sim_oracle_movies_arg $ sim_oracle_selections_arg)

(* ---------------- call ---------------- *)

let print_response = function
  | Perso_server.Protocol.Rows { notes; cols; rows } ->
      List.iter (fun n -> Printf.printf "note: %s\n" n) notes;
      if cols <> [] then print_endline (String.concat " | " cols);
      List.iter (fun r -> print_endline (String.concat " | " r)) rows;
      Printf.printf "(%d rows)\n" (List.length rows);
      0
  | Perso_server.Protocol.Stats stats ->
      List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) stats;
      0
  | Perso_server.Protocol.Message m ->
      print_endline m;
      0
  | Perso_server.Protocol.Failed { family; code; message } ->
      Printf.eprintf "%s (family %s)\n" message family;
      code

let call socket wait_ms deadline max_rows max_expansions command =
  guarded (fun () ->
      match Perso_server.Client.connect ~wait_ms socket with
      | exception Unix.Unix_error (e, _, _) ->
          handle_error
            (Perso.Error.Overloaded
               (Printf.sprintf "no server accepted a connection on %s (%s)" socket
                  (Unix.error_message e)))
      | c ->
          Fun.protect
            ~finally:(fun () -> Perso_server.Client.close c)
            (fun () ->
              match
                Perso_server.Client.request ?deadline_ms:deadline ?max_rows
                  ?max_expansions c (String.concat " " command)
              with
              | Ok resp -> print_response resp
              | Error e -> handle_error (Perso.Error.Internal ("client: " ^ e))))

let call_socket_arg =
  let doc = "Unix-domain socket of the running server." in
  Arg.(
    required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let wait_ms_arg =
  let doc = "Keep retrying the connection for this long (server startup)." in
  Arg.(value & opt float 0. & info [ "wait-ms" ] ~docv:"MS" ~doc)

let command_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"COMMAND"
        ~doc:"Request words, e.g. RUN select ... or HEALTH or SHUTDOWN.")

let call_cmd =
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send one request to a running server; exits with the error \
          family's code on ERR")
    Term.(
      const call $ call_socket_arg $ wait_ms_arg $ deadline_arg $ max_rows_arg
      $ max_expansions_arg $ command_arg)

let () =
  let info = Cmd.info "perso_cli" ~doc:"Query personalization (ICDE 2004) toolkit" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            demo_cmd; run_sql_cmd; personalize_cmd; gen_profile_cmd;
            learn_profile_cmd; dump_data_cmd; dot_cmd; serve_cmd; scrub_cmd;
            call_cmd; sim_cmd;
          ]))
