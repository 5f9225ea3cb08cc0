(* CLI-facing facade: run scenario fleets, the oracle layer, explicit
   step-list replays, and the mutation self-test, with deterministic
   one-line-per-event output and an exact replay command printed for
   every failure. *)

type options = {
  seed : int;
  runs : int;
  steps : string option;
  mutate : bool;
  oracle_cases : int;
  oracle_movies : int;
  oracle_selections : int;
}

let short digest =
  if String.length digest > 12 then String.sub digest 0 12 else digest

let replay_line ~mutate ~seed steps =
  Printf.sprintf "perso_cli sim%s --seed %d --steps '%s'"
    (if mutate then " --mutate" else "")
    seed
    (Scenario.steps_to_string steps)

(* Run one step list; on failure shrink it and print the replay line.
   Returns [true] on PASS. *)
let run_one ~mutate ~seed steps =
  let r = Scenario.run ~seed steps in
  match r.Scenario.verdict with
  | Ok () ->
      Printf.printf "sim: scenario seed=%d steps=%d sched=%d vnow=%.3fs digest=%s PASS\n%!"
        seed r.Scenario.n_steps r.Scenario.sched_steps r.Scenario.vnow
        (short r.Scenario.digest);
      true
  | Error f ->
      Printf.printf "sim: scenario seed=%d FAIL invariant=%s: %s\n%!" seed
        f.Scenario.invariant f.Scenario.detail;
      let shrunk = Scenario.shrink ~seed steps f in
      Printf.printf "sim: shrunk %d -> %d step(s): %s\n%!" (List.length steps)
        (List.length shrunk)
        (Scenario.steps_to_string shrunk);
      Printf.printf "sim: replay: %s\n%!" (replay_line ~mutate ~seed shrunk);
      false

let run_scenarios ~seed ~runs =
  let ok = ref true in
  for i = 0 to runs - 1 do
    let s = seed + i in
    if not (run_one ~mutate:false ~seed:s (Scenario.generate ~seed:s)) then
      ok := false
  done;
  !ok

let run_oracle ~seed ~cases ~movies ~selections =
  if cases <= 0 then true
  else begin
    let report = Oracle.run ~movies ~selections ~cases ~seed () in
    List.iter
      (fun c ->
        if not c.Oracle.ok then
          Printf.printf "sim: oracle FAIL %s: %s\n%!" c.Oracle.name
            c.Oracle.detail)
      report.Oracle.checks;
    let n_fail = List.length (Oracle.failures report) in
    Printf.printf
      "sim: oracle seed=%d cases=%d movies=%d selections=%d checks=%d %s\n%!"
      seed cases movies selections
      (List.length report.Oracle.checks)
      (if n_fail = 0 then "PASS" else Printf.sprintf "FAIL(%d)" n_fail);
    n_fail = 0
  end

(* Inject the ledger bug, expect some generated scenario to trip the
   audit, and require the shrunk repro to be small.  Exit criterion for
   the harness's own health: the bug must be caught AND minimize to at
   most [max_repro] steps. *)
let mutation_selftest ~seed ~runs ~max_repro =
  let attempts = max runs 4 in
  let saved = !Perso_server.Server_core.mutate_drop_completed_ok in
  Perso_server.Server_core.mutate_drop_completed_ok := true;
  Fun.protect
    ~finally:(fun () ->
      Perso_server.Server_core.mutate_drop_completed_ok := saved)
    (fun () ->
      let rec hunt i =
        if i >= attempts then None
        else begin
          let s = seed + i in
          let steps = Scenario.generate ~seed:s in
          let r = Scenario.run ~seed:s steps in
          match r.Scenario.verdict with
          | Error f -> Some (s, steps, f)
          | Ok () -> hunt (i + 1)
        end
      in
      match hunt 0 with
      | None ->
          Printf.printf
            "sim: mutation NOT CAUGHT in %d scenario(s) — harness is blind to \
             a dropped completed_ok\n%!"
            attempts;
          false
      | Some (s, steps, f) ->
          let shrunk = Scenario.shrink ~seed:s steps f in
          let n = List.length shrunk in
          Printf.printf
            "sim: mutation caught seed=%d invariant=%s; shrunk %d -> %d \
             step(s): %s\n%!"
            s f.Scenario.invariant (List.length steps) n
            (Scenario.steps_to_string shrunk);
          Printf.printf "sim: replay: %s\n%!" (replay_line ~mutate:true ~seed:s shrunk);
          if n > max_repro then
            Printf.printf "sim: mutation repro too large (%d > %d steps)\n%!" n
              max_repro;
          n <= max_repro)

let with_mutation mutate f =
  if not mutate then f ()
  else begin
    let saved = !Perso_server.Server_core.mutate_drop_completed_ok in
    Perso_server.Server_core.mutate_drop_completed_ok := true;
    Fun.protect
      ~finally:(fun () ->
        Perso_server.Server_core.mutate_drop_completed_ok := saved)
      f
  end

let main opts =
  match opts.steps with
  | Some s -> (
      (* Explicit replay: run exactly these steps under --seed.  With
         --mutate the injected bug is active, so a shrunk mutation
         repro fails again here (exit 1) — that failing exit IS the
         successful reproduction. *)
      match Scenario.steps_of_string s with
      | Error e ->
          Printf.printf "sim: bad --steps: %s\n%!" e;
          2
      | Ok steps ->
          if with_mutation opts.mutate (fun () ->
                 run_one ~mutate:opts.mutate ~seed:opts.seed steps)
          then 0
          else 1)
  | None ->
      if opts.mutate then
        if mutation_selftest ~seed:opts.seed ~runs:opts.runs ~max_repro:10 then begin
          Printf.printf "sim: mutation self-test OK\n%!";
          0
        end
        else 1
      else begin
        let sc_ok = run_scenarios ~seed:opts.seed ~runs:opts.runs in
        let or_ok =
          run_oracle ~seed:opts.seed ~cases:opts.oracle_cases
            ~movies:opts.oracle_movies ~selections:opts.oracle_selections
        in
        if sc_ok && or_ok then begin
          Printf.printf "sim: OK (runs=%d oracle-cases=%d)\n%!" opts.runs
            opts.oracle_cases;
          0
        end
        else 1
      end
