(* perso_repl — an interactive personalized-SQL shell.

   Every SQL statement typed at the prompt is personalized under the
   session's profile before execution, so the shell behaves like the
   paper's Personalized Database System front end.  Dot-commands control
   the session:

     .help                 this text
     .load DIR             load a database from schema.ddl + CSVs
     .tiny                 switch to the built-in example database
     .gen N                switch to a synthetic database with N movies
     .profile FILE         load the session profile (text format)
     .like  [ COND, D ]    add one preference to the session profile
     .unlike [ COND, D ]   add one dislike (negative preference)
     .k N | .l N | .m N    personalization parameters
     .method sq|mq         integration method
     .plain SQL            run SQL without personalization
     .show                 session state (db summary, profile, params)
     .explain SQL          show the personalized SQL without running it
     .quit                 leave

   Run with: dune exec bin/perso_repl.exe *)

type session = {
  mutable db : Relal.Database.t;
  mutable db_desc : string;
  mutable profile : Perso.Profile.t;
  mutable dislikes : Perso.Profile.t;
  mutable k : int;
  mutable l : int;
  mutable m : int;
  mutable method_ : [ `SQ | `MQ ];
}

let fresh () =
  {
    db = Moviedb.Personas.tiny_db ();
    db_desc = "tiny example database";
    profile = Perso.Profile.empty;
    dislikes = Perso.Profile.empty;
    k = 5;
    l = 1;
    m = 0;
    method_ = `MQ;
  }

let params s =
  {
    Perso.Personalize.k = Perso.Criteria.Top_r s.k;
    m = `Count s.m;
    l = `At_least s.l;
    method_ = s.method_;
    rank = s.method_ = `MQ;
  }

let print_result res = Format.printf "%a" (Relal.Exec.pp_result ~max_rows:20) res

let report_error what e = Printf.printf "%s: %s\n" what e

let parse_pref_line text =
  (* Accept both "[ COND, D ]" and bare "COND, D". *)
  let text = String.trim text in
  let text =
    if String.length text >= 2 && text.[0] = '[' then text
    else "[ " ^ text ^ " ]"
  in
  match Perso.Profile.of_string text with
  | Ok p -> (
      match Perso.Profile.entries p with
      | [ (atom, deg) ] -> Ok (atom, deg)
      | _ -> Error "expected exactly one [ condition, degree ] entry")
  | Error e -> Error e

let run_personalized s sql =
    if Perso.Profile.cardinal s.profile = 0 && Perso.Profile.cardinal s.dislikes = 0
    then begin
      Printf.printf "(no profile loaded; running plain)\n";
      print_result (Relal.Engine.run_sql s.db sql)
    end
    else if Perso.Profile.cardinal s.dislikes > 0 then begin
      (* Dislikes present: rank via the negative-preference pipeline. *)
      let q = Relal.Sql_parser.parse sql in
      let o =
        Perso.Negative.personalize
          ~k:(Perso.Criteria.Top_r s.k)
          ~l:s.l s.db ~likes:s.profile ~dislikes:s.dislikes q
      in
      Printf.printf "likes used: %d, dislikes used: %d\n"
        (List.length o.Perso.Negative.liked)
        (List.length o.Perso.Negative.disliked);
      List.iteri
        (fun i r ->
          if i < 20 then
            Printf.printf "  %-40s score=%.4f%s\n"
              (String.concat ", "
                 (Array.to_list (Array.map Relal.Value.to_string r.Perso.Negative.row)))
              r.Perso.Negative.score
              (if r.Perso.Negative.penalty > 0. then
                 Printf.sprintf "  (penalty %.2f)" r.Perso.Negative.penalty
               else ""))
        o.Perso.Negative.rows;
      Printf.printf "(%d rows)\n" (List.length o.Perso.Negative.rows)
    end
    else begin
      let outcome, res =
        Perso.Personalize.personalize_sql ~params:(params s) s.db s.profile sql
      in
      Printf.printf "preferences used: %d\n"
        (List.length outcome.Perso.Personalize.selected);
      print_result res
    end

let show s =
  Printf.printf "database: %s\n" s.db_desc;
  Format.printf "%a" Relal.Database.pp_summary s.db;
  Printf.printf "profile: %d preferences (%d selections)\n"
    (Perso.Profile.cardinal s.profile)
    (Perso.Profile.size s.profile);
  if Perso.Profile.cardinal s.profile > 0 then
    print_string (Perso.Profile.to_string s.profile);
  if Perso.Profile.cardinal s.dislikes > 0 then begin
    Printf.printf "dislikes:\n";
    print_string (Perso.Profile.to_string s.dislikes)
  end;
  Printf.printf "params: K=%d L=%d M=%d method=%s\n" s.k s.l s.m
    (match s.method_ with `SQ -> "sq" | `MQ -> "mq")

let explain s sql =
  let q = Relal.Sql_parser.parse sql in
  let outcome = Perso.Personalize.personalize ~params:(params s) s.db s.profile q in
  print_string (Perso.Explain.outcome_report outcome)

let help () =
  print_string
    "commands: .help .load DIR .tiny .gen N .profile FILE .like [COND, D]\n\
    \          .unlike [COND, D] .k N .l N .m N .method sq|mq\n\
    \          .plain SQL .show .explain SQL .quit — anything else runs as \
     personalized SQL\n"

let int_arg arg ~default =
  match int_of_string_opt (String.trim arg) with Some n when n >= 0 -> n | _ -> default

let handle_command s line =
  let cmd, arg =
    match String.index_opt line ' ' with
    | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line i (String.length line - i)) )
    | None -> (line, "")
  in
  match cmd with
  | ".help" -> help ()
  | ".quit" | ".exit" -> raise Exit
  | ".tiny" ->
      s.db <- Moviedb.Personas.tiny_db ();
      s.db_desc <- "tiny example database";
      Printf.printf "switched to %s\n" s.db_desc
  | ".gen" ->
      let n = int_arg arg ~default:2000 in
      s.db <- Moviedb.Datagen.(generate (scale n));
      s.db_desc <- Printf.sprintf "synthetic database (%d movies)" n;
      Printf.printf "switched to %s\n" s.db_desc
  | ".load" -> (
      match Relal.Csv.load_db_r ~dir:arg with
      | Ok db ->
          s.db <- db;
          s.db_desc <- "loaded from " ^ arg;
          Printf.printf "loaded %s\n" arg
      | Error e ->
          print_endline
            (Perso.Error.to_string (Perso.Error.of_load_error e)))
  | ".profile" -> (
      match Perso.Profile.load arg with
      | Ok p ->
          s.profile <- p;
          Printf.printf "loaded %d preferences\n" (Perso.Profile.cardinal p)
      | Error e -> report_error "profile error" e)
  | ".like" -> (
      match parse_pref_line arg with
      | Ok (atom, deg) ->
          s.profile <- Perso.Profile.add s.profile atom deg;
          Printf.printf "added %s (%s)\n" (Perso.Atom.to_string atom)
            (Perso.Degree.to_string deg)
      | Error e -> report_error "preference error" e)
  | ".unlike" -> (
      match parse_pref_line arg with
      | Ok (atom, deg) ->
          s.dislikes <- Perso.Profile.add s.dislikes atom deg;
          Printf.printf "added dislike %s (%s)\n" (Perso.Atom.to_string atom)
            (Perso.Degree.to_string deg)
      | Error e -> report_error "preference error" e)
  | ".k" -> s.k <- int_arg arg ~default:s.k
  | ".l" -> s.l <- int_arg arg ~default:s.l
  | ".m" -> s.m <- int_arg arg ~default:s.m
  | ".method" -> (
      match String.trim arg with
      | "sq" -> s.method_ <- `SQ
      | "mq" -> s.method_ <- `MQ
      | other -> report_error "unknown method" other)
  | ".plain" -> print_result (Relal.Engine.run_sql s.db arg)
  | ".show" -> show s
  | ".explain" -> explain s arg
  | other -> Printf.printf "unknown command %s (try .help)\n" other

let () =
  let s = fresh () in
  Printf.printf "perdb personalized-SQL shell — .help for commands\n";
  (try
     while true do
       print_string "perdb> ";
       flush stdout;
       match In_channel.input_line stdin with
       | None -> raise Exit
       | Some line -> (
           let line = String.trim line in
           if line = "" then ()
           else
             (* One catch-all per input line: any failure — parse,
                bind, storage, even Stack_overflow or Out_of_memory
                from a pathological query — becomes a one-line typed
                message and the session continues. *)
             try
               if line.[0] = '.' then handle_command s line
               else run_personalized s line
             with
             | Exit -> raise Exit
             | e ->
                 print_endline
                   (Perso.Error.to_string (Perso.Error.of_exn_any e)))
     done
   with Exit -> ());
  print_newline ()
