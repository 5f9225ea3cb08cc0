(* Unit tests of the benchmark's own machinery: the seeded script, the
   open-loop clock, the sequential loop's cost charging, and the
   served-path oracle. *)

open Perfbench
open Perso_server

let () = Relal.Chaos.set_sleep ignore

let served (w : Spec.t) =
  match (Spec.smoke w).shape with
  | Spec.Served s -> s
  | Spec.Rewrite _ -> assert false

(* A small edit-churn population: personalize, save and load. *)
let inputs () =
  let s = served Spec.edit_churn in
  let db = Spec.catalog ~smoke:true in
  let sqls = Spec.templates db s.templates in
  let profiles =
    Array.init s.users (fun u ->
        Spec.profile db ~seed:Spec.population_seed ~user:u
          ~selections:s.selections)
  in
  Spec.install_profiles db
    (Array.mapi (fun u p -> (Spec.user_name u, p)) profiles);
  (s, db, sqls, profiles)

let script ~seed =
  let s, db, sqls, profiles = inputs () in
  Script.generate s ~db ~sqls ~profiles ~seed
    [ Script.Open_for 2.; Script.Closed 100 ]

let test_script_seeded () =
  let a = Script.to_string (script ~seed:5) in
  let b = Script.to_string (script ~seed:5) in
  Alcotest.(check bool) "same seed, byte-identical script" true (a = b);
  let c = Script.to_string (script ~seed:6) in
  Alcotest.(check bool) "another seed, another script" true (a <> c);
  let t = script ~seed:5 in
  Alcotest.(check bool)
    "every kind of the mix appears" true
    (List.for_all
       (fun k -> Array.exists (fun r -> r.Script.kind = k) t.Script.reqs)
       [ Script.Personalize; Script.Save; Script.Load ])

(* One user, so one connection: request 2 stalls the server for 200 ms
   and the requests due behind it must be charged the wait. *)
let test_stall_charged () =
  let req i =
    {
      Script.idx = i;
      kind = Script.Personalize;
      user = "u0";
      line = "";
      at = 0.01 *. float_of_int i;
      check = false;
      saved = None;
    }
  in
  let reqs = Array.init 10 req in
  let send _ (r : Script.req) =
    Thread.delay (if r.idx = 2 then 0.2 else 0.001)
  in
  let start = Loop.now () +. 0.01 in
  let records = Loop.open_loop ~send ~conns:2 ~start reqs in
  let r4 = List.find (fun r -> r.Loop.req = 4) (Array.to_list records) in
  Alcotest.(check bool)
    "queued request waits for the stall" true
    (Loop.latency r4 >= 0.15);
  Alcotest.(check bool)
    "timing from the send would have hidden it" true
    (r4.Loop.finished -. r4.Loop.sent < 0.1);
  Alcotest.(check bool)
    "its connection was busy at the due time" false r4.Loop.idle

(* The sequential loop charges each request the probe's change across
   that request alone: here the fake server's "CPU" grows by the
   request's index plus one. *)
let test_sequential_cost () =
  let used = ref 0. in
  let reqs =
    Array.init 5 (fun i ->
        {
          Script.idx = i;
          kind = Script.Run;
          user = "u0";
          line = "";
          at = 0.;
          check = false;
          saved = None;
        })
  in
  let send _ (r : Script.req) = used := !used +. float_of_int (r.idx + 1) in
  let records, complete =
    Loop.sequential ~send ~probe:(fun () -> !used)
      ~until:(Loop.now () +. 10.) reqs
  in
  Alcotest.(check bool) "the whole script was sent" true complete;
  Alcotest.(check (list (float 0.)))
    "each request is charged its own cost" [ 1.; 2.; 3.; 4.; 5. ]
    (Array.to_list (Array.map snd records))

(* What a server answers, rendered and read back as the wire would. *)
let wire_response render =
  let b = Buffer.create 256 in
  render b;
  let path = Filename.temp_file "perf_reply" ".txt" in
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b);
  let r = In_channel.with_open_bin path Protocol.read_response in
  Sys.remove path;
  match r with Ok resp -> resp | Error e -> failwith e

(* The replies of a real, in-process server core to the whole script. *)
let core_replies db (reqs : Script.req array) =
  let module Core = Server_core.Make (Runtime.Threads) in
  let cfg =
    {
      (Server_core.default_config ~socket_path:"<test>") with
      Server_core.deadline_ms = None;
      max_rows = None;
      max_expansions = None;
    }
  in
  let core = Core.create cfg db in
  Fun.protect
    ~finally:(fun () -> ignore (Core.stop core))
    (fun () ->
      Array.map
        (fun (r : Script.req) ->
          match Protocol.parse_command r.line with
          | Error e -> failwith e
          | Ok cmd ->
              wire_response (fun b ->
                  match Core.submit core Protocol.empty_header cmd with
                  | Server_core.R_rows { notes; result } ->
                      Protocol.bprint_rows b ~notes result
                  | Server_core.R_message m -> Protocol.bprint_message b m
                  | Server_core.R_error e -> Protocol.bprint_error b e))
        reqs)

let verdict replies (reqs : Script.req array) =
  let _, db, _, _ = inputs () in
  fst
    (Oracle.check (Oracle.create db) ~reqs
       ~executed:(List.init (Array.length reqs) Fun.id)
       ~reply:(fun i -> Some replies.(i))
       ~cap:1000)

let corrupt = function
  | Protocol.Rows ({ rows = _ :: rest; _ } as r) ->
      Protocol.Rows { r with rows = rest }
  | Protocol.Rows r -> Protocol.Rows { r with rows = [ [ "injected" ] ] }
  | Protocol.Message m -> Protocol.Message (m ^ "!")
  | other -> other

let test_oracle_catches_wrong_reply () =
  let t = script ~seed:7 in
  let reqs = Array.sub t.Script.reqs 0 (min 120 (Array.length t.Script.reqs)) in
  let _, db, _, _ = inputs () in
  let replies = core_replies db reqs in
  let clean = verdict replies reqs in
  Alcotest.(check (list string))
    "the real core's replies pass" [] clean.Oracle.mismatches;
  Alcotest.(check bool) "replies were checked" true (clean.Oracle.checked > 10);
  let victim =
    let rec find i =
      if reqs.(i).Script.kind = Script.Personalize then i
      else find (i + 1)
    in
    find 0
  in
  let bad = Array.copy replies in
  bad.(victim) <- corrupt bad.(victim);
  let v = verdict bad reqs in
  Alcotest.(check int)
    "the injected wrong reply is caught" 1
    (List.length v.Oracle.mismatches)

let () =
  Alcotest.run "perf"
    [
      ( "script",
        [
          Alcotest.test_case "seeded and deterministic" `Quick
            test_script_seeded;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "a stall is charged to the queue behind it"
            `Quick test_stall_charged;
        ] );
      ( "sequential loop",
        [
          Alcotest.test_case "each request is charged its own probe change"
            `Quick test_sequential_cost;
        ] );
      ( "oracle",
        [ Alcotest.test_case "an injected wrong reply is caught" `Quick
            test_oracle_catches_wrong_reply ] );
    ]
