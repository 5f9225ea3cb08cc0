(* The deterministic-simulation harness testing itself: scheduler
   reproducibility, scenario audits over many seeds, the shrinker, the
   step-list wire format, the mutation self-test (the harness must
   catch an injected ledger bug and minimize the repro), and the
   metamorphic/differential oracle at 10× the unit-suite scale. *)

open Perso_sim

(* --------------------------- scheduler ----------------------------- *)

(* A little contended program: three tasks bump a shared counter under
   a mutex with sleeps and yields in the critical section. *)
let counter_program () =
  let m = Sched.mutex_create () in
  let counter = ref 0 in
  let tasks =
    List.init 3 (fun i ->
        Sched.spawn ~name:(Printf.sprintf "w%d" i) (fun () ->
            for _ = 1 to 5 do
              Sched.lock m;
              let v = !counter in
              Sched.yield ();
              Sched.sleep 0.001;
              counter := v + 1;
              Sched.unlock m
            done))
  in
  List.iter Sched.join tasks;
  if !counter <> 15 then Sched.fail "lost update"

let test_sched_deterministic () =
  let o1 = Sched.run ~seed:11 counter_program in
  let o2 = Sched.run ~seed:11 counter_program in
  Alcotest.(check bool) "run ok" true (o1.Sched.result = Ok ());
  Alcotest.(check string) "same seed, same digest" o1.Sched.digest o2.Sched.digest;
  Alcotest.(check int) "same seed, same steps" o1.Sched.steps o2.Sched.steps;
  (* Different seeds still finish correctly (the mutex protects the
     counter under every interleaving). *)
  let o3 = Sched.run ~seed:12 counter_program in
  Alcotest.(check bool) "other seed ok" true (o3.Sched.result = Ok ())

let test_sched_deadlock_detected () =
  let o =
    Sched.run ~seed:1 (fun () ->
        let m = Sched.mutex_create () in
        let c = Sched.cond_create () in
        Sched.lock m;
        (* Nobody will ever signal. *)
        Sched.wait c m)
  in
  match o.Sched.result with
  | Error msg ->
      Alcotest.(check bool) "reports deadlock" true
        (String.length msg >= 8 && String.sub msg 0 8 = "deadlock")
  | Ok () -> Alcotest.fail "lost wakeup not detected"

let test_sched_virtual_time () =
  (* 10 s of simulated sleeping must cost no wall-clock. *)
  let wall0 = Unix.gettimeofday () in
  let o = Sched.run ~seed:3 (fun () -> Sched.sleep 10.) in
  Alcotest.(check bool) "vnow advanced" true (o.Sched.vnow >= 10.);
  Alcotest.(check bool) "instantaneous in wall time" true
    (Unix.gettimeofday () -. wall0 < 1.)

(* --------------------------- scenarios ----------------------------- *)

(* Seed 22 leaves fault injection armed past stop into the durable
   audit, which must disarm it before its cold reopen of the shard
   stores.  Seed 396 drains with requests queued behind both slots,
   where the slot-cap probe ([in_flight <= workers]) once failed. *)
let test_scenario_seeds_pass () =
  List.iter
    (fun seed ->
      let r = Scenario.run_seed ~seed in
      match r.Scenario.verdict with
      | Ok () -> ()
      | Error f ->
          Alcotest.failf "seed %d: %s: %s (replay: perso_cli sim --seed %d)"
            seed f.Scenario.invariant f.Scenario.detail seed)
    ((22 :: List.init 8 (fun i -> 42 + i)) @ [ 396 ])

let test_scenario_bit_reproducible () =
  List.iter
    (fun seed ->
      let r1 = Scenario.run_seed ~seed in
      let r2 = Scenario.run_seed ~seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d digest" seed)
        r1.Scenario.digest r2.Scenario.digest)
    [ 42; 43; 44 ]

let test_steps_roundtrip () =
  List.iter
    (fun seed ->
      let steps = Scenario.generate ~seed in
      let s = Scenario.steps_to_string steps in
      match Scenario.steps_of_string s with
      | Ok steps' ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d exact round-trip" seed)
            true (steps = steps');
          Alcotest.(check string)
            (Printf.sprintf "seed %d re-encoding" seed)
            s
            (Scenario.steps_to_string steps')
      | Error e -> Alcotest.failf "seed %d: %s does not parse: %s" seed s e)
    [ 42; 43; 44; 45; 46 ]

(* --------------------------- shrinker ------------------------------ *)

let test_shrink_minimizes () =
  let xs = List.init 20 (fun i -> i + 1) in
  let shrunk = Shrink.minimize ~check:(fun ys -> List.mem 7 ys) xs in
  Alcotest.(check (list int)) "1-minimal witness" [ 7 ] shrunk

let test_shrink_pair () =
  let xs = List.init 30 (fun i -> i) in
  let shrunk =
    Shrink.minimize ~check:(fun ys -> List.mem 3 ys && List.mem 23 ys) xs
  in
  Alcotest.(check (list int)) "keeps both causes" [ 3; 23 ] shrunk

(* --------------------------- mutation ------------------------------ *)

(* Inject the dropped-completed_ok bug; the ledger audit must fire and
   the shrinker must minimize the repro to at most 10 steps (the
   acceptance bar for the harness's own sensitivity). *)
let test_mutation_caught_and_shrunk () =
  let saved = !Perso_server.Server_core.mutate_drop_completed_ok in
  Perso_server.Server_core.mutate_drop_completed_ok := true;
  Fun.protect
    ~finally:(fun () ->
      Perso_server.Server_core.mutate_drop_completed_ok := saved)
    (fun () ->
      let rec hunt seed =
        if seed > 50 then Alcotest.fail "ledger bug never caught"
        else
          let steps = Scenario.generate ~seed in
          match (Scenario.run ~seed steps).Scenario.verdict with
          | Error f -> (seed, steps, f)
          | Ok () -> hunt (seed + 1)
      in
      let seed, steps, f = hunt 42 in
      Alcotest.(check string) "ledger audit fired" "ledger" f.Scenario.invariant;
      let shrunk = Scenario.shrink ~seed steps f in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d <= 10 steps (%s)" (List.length shrunk)
           (Scenario.steps_to_string shrunk))
        true
        (List.length shrunk <= 10);
      (* The shrunk trace still reproduces the same invariant. *)
      match (Scenario.run ~seed shrunk).Scenario.verdict with
      | Error f' ->
          Alcotest.(check string) "same invariant on replay" f.Scenario.invariant
            f'.Scenario.invariant
      | Ok () -> Alcotest.fail "shrunk repro no longer fails")

(* ---------------------------- oracle ------------------------------- *)

let test_oracle_10x () =
  (* 1200 movies / 120 selections — 10× test_select's random_setting. *)
  let report = Oracle.run ~movies:1200 ~selections:120 ~cases:2 ~seed:42 () in
  (* 9 theorem/metamorphic checks and 3 SQ checks per case, plus the
     plan-cache relation: 6 edit steps × 2 byte-identity/hit checks + 1
     summary. *)
  Alcotest.(check int) "50 checks" 50 (List.length report.Oracle.checks);
  match Oracle.failures report with
  | [] -> ()
  | fs ->
      Alcotest.failf "%d oracle failures: %s" (List.length fs)
        (String.concat "; "
           (List.map (fun c -> c.Oracle.name ^ ": " ^ c.Oracle.detail) fs))

(* ---------------------------- driver ------------------------------- *)

let test_driver_replay_line_parses () =
  (* The replay command the driver prints must reconstruct the exact
     step list it ran. *)
  let steps = Scenario.generate ~seed:46 in
  let encoded = Scenario.steps_to_string steps in
  match Scenario.steps_of_string encoded with
  | Ok steps' ->
      let r1 = Scenario.run ~seed:46 steps in
      let r2 = Scenario.run ~seed:46 steps' in
      Alcotest.(check string) "replayed digest identical" r1.Scenario.digest
        r2.Scenario.digest
  | Error e -> Alcotest.failf "replay line does not parse: %s" e

let () =
  Alcotest.run "sim"
    [
      ( "sched",
        [
          Alcotest.test_case "deterministic digests" `Quick test_sched_deterministic;
          Alcotest.test_case "deadlock detected" `Quick test_sched_deadlock_detected;
          Alcotest.test_case "virtual time is free" `Quick test_sched_virtual_time;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "seeds 42-49 pass" `Quick test_scenario_seeds_pass;
          Alcotest.test_case "bit-reproducible" `Quick test_scenario_bit_reproducible;
          Alcotest.test_case "step round-trip" `Quick test_steps_roundtrip;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "single cause" `Quick test_shrink_minimizes;
          Alcotest.test_case "pair of causes" `Quick test_shrink_pair;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "ledger bug caught+shrunk" `Quick
            test_mutation_caught_and_shrunk;
        ] );
      ( "oracle",
        [ Alcotest.test_case "metamorphic suite at 10x" `Quick test_oracle_10x ] );
      ( "driver",
        [
          Alcotest.test_case "replay line round-trips" `Quick
            test_driver_replay_line_parses;
        ] );
    ]
