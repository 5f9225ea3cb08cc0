(* One end-to-end run of a served workload against the real server.

   Set-up: five cold starts of [perso_cli serve --data-dir], each
   measured from spawn to the first PING answer; the last server is
   measured.  A warm-up, then rounds of an open loop at the nominal rate
   and a closed loop over two connections, and a sequential loop over
   one.  The gated figures are the server's CPU time: per start, per
   sequential request, and per request of the closed and sequential
   rounds; each is scaled by the CPU time of the reference work timed
   around its start or round.  Wall-clock figures are diagnostics.
   Afterwards: the oracle over a sample of the replies, the client
   tallies against the server's HEALTH delta, and for a disk-backed
   store a restart that must return every user's last acknowledged
   save. *)

open Perso_server

(* Two connections, one load thread each, but never more than the
   host has cores. *)
let conns = max 1 (min 2 (Domain.recommended_domain_count ()))
let setup_starts = 5
let oracle_cap = 300
let slo_ms = 50.

type outcome =
  | Ok_ of Protocol.response option  (* kept when the oracle needs it *)
  | Err of string  (* the ERR family *)
  | Lost of string  (* transport error or receive timeout *)

let overloaded = Perso.Error.family_name (Perso.Error.Overloaded "")
let receive_timeout_s = 10.

let connect socket =
  let c = Client.connect ~wait_ms:5_000. socket in
  Client.set_receive_timeout c receive_timeout_s;
  c

(* A request on connection [c]; [keep] says whether the oracle needs
   its reply. *)
let sender clients ~keep c (r : Script.req) =
  match Client.request clients.(c) r.Script.line with
  | Ok (Protocol.Failed { family; _ }) -> Err family
  | Ok resp -> Ok_ (if keep r then Some resp else None)
  | Error msg -> Lost msg
  | exception
      (Unix.Unix_error _ | Sys_error _ | Sys_blocked_io | End_of_file) ->
      Lost "receive failed"

let health c =
  match Client.request c "HEALTH" with
  | Ok (Protocol.Stats kvs) -> kvs
  | _ -> failwith "HEALTH request failed"

let stat kvs k =
  match List.assoc_opt k kvs with
  | Some v -> Option.value ~default:0 (int_of_string_opt v)
  | None -> 0

(* ------------------------------ inputs ------------------------------ *)

type inputs = { data : string; script : Script.t }

(* Generate the catalog, the users' profiles and the script from the
   seed, and write the data dir the server loads. *)
let prepare (ctx : Spec.ctx) (s : Spec.served) segments =
  let db = Spec.catalog ~smoke:ctx.smoke in
  let sqls = Spec.templates db s.templates in
  let profiles =
    Array.init s.users (fun u ->
        Spec.profile db ~seed:Spec.population_seed ~user:u
          ~selections:s.selections)
  in
  Spec.install_profiles db
    (Array.mapi (fun u p -> (Spec.user_name u, p)) profiles);
  let data = Filename.concat ctx.dir "data" in
  Relal.Csv.save_db ~dir:data db;
  let script =
    Script.generate s ~db ~sqls ~profiles ~seed:ctx.seed segments
  in
  { data; script }

let server_args (s : Spec.served) ~data ~store =
  [ "--data-dir"; data ]
  @
  match s.disk_shards with
  | None -> []
  | Some n -> [ "--store"; "disk:" ^ store; "--shards"; string_of_int n ]

let start_server (ctx : Spec.ctx) s ~data ~store ~tag =
  Server_proc.start ~cli:ctx.cli
    ~log:(Filename.concat ctx.dir "server.log")
    ~socket:(Filename.concat ctx.dir (tag ^ ".sock"))
    (server_args s ~data ~store)

(* ------------------------------ checks ------------------------------ *)

(* Client tallies against the server's own ledger delta.  HEALTH is
   control-plane and never enters the ledger; breaker sheds are errors
   the server also counts in completed_err. *)
let ledger ~h0 ~h1 records =
  let count f =
    Array.fold_left (fun a r -> if f r.Loop.outcome then a + 1 else a) 0 records
  in
  let ok = count (function Ok_ _ -> true | _ -> false) in
  let over = count (function Err f -> f = overloaded | _ -> false) in
  let other = count (function Err f -> f <> overloaded | _ -> false) in
  let lost = count (function Lost _ -> true | _ -> false) in
  let d k = stat h1 k - stat h0 k in
  let sheds =
    d "shed_queue_full" + d "shed_expired" + d "shed_draining"
    + d "shed_breaker"
  in
  List.filter_map
    (fun (what, got, want) ->
      if got = want then None
      else
        Some (Printf.sprintf "ledger: %s: client %d, server %d" what got want))
    [
      ("ok = completed_ok", ok, d "completed_ok");
      ("overloaded = sheds", over, sheds);
      ("other errors = completed_err - shed_breaker", other,
        d "completed_err" - d "shed_breaker");
      ("sent = accepted + pre-admission sheds", Array.length records,
        d "accepted" + d "shed_queue_full" + d "shed_draining");
      ("transport errors", lost, 0);
    ]

(* Restart on the same store and read every user back: each must hold
   its last acknowledged save. *)
let restart_check ctx s ~data ~store ~users (m : Oracle.model) =
  let srv, _, _ = start_server ctx s ~data ~store ~tag:"restart" in
  Fun.protect
    ~finally:(fun () -> Server_proc.shutdown srv)
    (fun () ->
      let c = connect srv.Server_proc.socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.filter_map
            (fun u ->
              let user = Spec.user_name u in
              let want = Oracle.profile_rows (Oracle.profile_of m user) in
              match Client.request c ("PROFILE LOAD " ^ user) with
              | Ok got when got = want -> None
              | Ok got ->
                  Some
                    (Printf.sprintf "restart: %s: got %s, want %s" user
                       (Oracle.describe got) (Oracle.describe want))
              | Error e -> Some (Printf.sprintf "restart: %s: %s" user e))
            (List.init users Fun.id)))

(* -------------------------------- run ------------------------------- *)

let ms x = x *. 1000.

(* The run, as shares of its seconds: a warm-up, then [rounds] rounds,
   each a closed-loop, a sequential and an open-loop round, so that
   every kind is spread over the whole run. *)
let rounds = 20
let warm_s (ctx : Spec.ctx) = 0.1 *. ctx.seconds
let round_share (ctx : Spec.ctx) f = f *. ctx.seconds /. float_of_int rounds
let closed_round_s ctx = round_share ctx 0.15
let seq_round_s ctx = round_share ctx 0.45
let open_round_s ctx = round_share ctx 0.3

(* Host-speed scaling.  The reference work is timed before the first
   start and after every start, and before the first round and after
   the CPU-measured part of every round.  CPU time measured between two
   timings whose mean is [r] CPU seconds per domain is reported as
   [cpu *. nominal_ref_s /. r]: the CPU time on a host whose cores run
   the reference work, two domains at once, in [nominal_ref_s] (about
   its median on the 2-vCPU x86-64 VM the workloads were sized on). *)
let nominal_ref_s = 0.055

(* Closed and sequential rounds send a fixed number of requests, so that
   every run of a seed does the same work and ends in the same state.
   The counts fill a round's share of the run on a host [headroom]
   times slower than the VM the workloads were sized on (a sequential
   round gets through [seq_share_of_capacity] of the closed rate); on a
   faster host a round ends early.  A round is cut at [overrun] times
   its share, which bounds the run's length on a still slower host. *)
let headroom = 2.
let seq_share_of_capacity = 0.7
let overrun = 1.25

(* Segment 0 is the warm-up; round k is segments 3k+1 (closed), 3k+2
   (sequential) and 3k+3 (open). *)
let segments ctx (s : Spec.served) =
  let count rate secs = max 1 (int_of_float (rate *. secs /. headroom)) in
  Script.Open_for (warm_s ctx)
  :: List.concat
       (List.init rounds (fun _ ->
            [
              Script.Closed (count s.capacity (closed_round_s ctx));
              Script.Closed
                (count
                   (seq_share_of_capacity *. s.capacity)
                   (seq_round_s ctx));
              Script.Open_for (open_round_s ctx);
            ]))

(* The run's inputs; the traced replay regenerates exactly these. *)
let plan ctx s = prepare ctx s (segments ctx s)

type round = {
  ref_s : float;  (* the reference work's CPU seconds, bracketing mean *)
  opened : outcome Loop.record array;
  closed : outcome Loop.record array;
  closed_cpu : float;  (* the server's CPU seconds over the closed round *)
  closed_wall : float;
  seq : (outcome Loop.record * float) array;
      (* each with the server's CPU seconds for that request *)
  cut : bool;  (* the closed or sequential round met its deadline *)
}

let run (ctx : Spec.ctx) (s : Spec.served) : Spec.result =
  let inp = plan ctx s in
  let script = inp.script in
  let reqs = script.Script.reqs in
  (* Set-up: cold starts; the last server is the one measured.  Each
     start's wall seconds and scaled CPU seconds. *)
  let store i = Filename.concat ctx.dir (Printf.sprintf "store-%d" i) in
  let reference () = Dist.reference_cpu_s ~domains:conns ~strings:30_000 in
  let last_ref = ref (reference ()) in
  (* The mean of the previous timing and a new one taken now. *)
  let bracket () =
    let r = reference () in
    let m = (!last_ref +. r) /. 2. in
    last_ref := r;
    m
  in
  let setups, srv =
    let rec go i acc =
      let srv, wall, cpu =
        start_server ctx s ~data:inp.data ~store:(store i)
          ~tag:(Printf.sprintf "s%d" i)
      in
      let acc = (wall, cpu *. nominal_ref_s /. bracket ()) :: acc in
      if i = setup_starts - 1 then (acc, srv)
      else begin
        Server_proc.shutdown srv;
        go (i + 1) acc
      end
    in
    go 0 []
  in
  let socket = srv.Server_proc.socket in
  let clients = Array.init conns (fun _ -> connect socket) in
  let keep (r : Script.req) = r.check || r.kind = Script.Save in
  let send = sender clients ~keep in
  let cpu () = Server_proc.cpu_s srv in
  let h0 = health clients.(0) in
  let open_seg seg =
    let start = Loop.now () +. 0.005 in
    Loop.open_loop ~send ~conns ~start (Script.segment script seg)
  in
  let warm = open_seg 0 in
  last_ref := reference ();
  let runs =
    List.init rounds (fun k ->
        let c0 = cpu () and t0 = Loop.now () in
        let closed, closed_done =
          Loop.closed_loop ~send ~conns
            ~until:(t0 +. (overrun *. closed_round_s ctx))
            (Script.segment script ((3 * k) + 1))
        in
        let closed_cpu = cpu () -. c0 in
        let t1 =
          Array.fold_left (fun a r -> Float.max a r.Loop.finished) t0 closed
        in
        let seq, seq_done =
          Loop.sequential ~send ~probe:cpu
            ~until:(Loop.now () +. (overrun *. seq_round_s ctx))
            (Script.segment script ((3 * k) + 2))
        in
        let ref_s = bracket () in
        let opened = open_seg ((3 * k) + 3) in
        {
          ref_s;
          opened;
          closed;
          closed_cpu;
          closed_wall = t1 -. t0;
          seq;
          cut = not (closed_done && seq_done);
        })
  in
  let h1 = health clients.(0) in
  let rss = Server_proc.vm_hwm_mb (string_of_int srv.Server_proc.pid) in
  Array.iter Client.close clients;
  Server_proc.shutdown srv;
  let records =
    Array.concat
      (warm
      :: List.concat_map
           (fun r -> [ r.opened; r.closed; Array.map fst r.seq ])
           runs)
  in
  (* Server CPU time, scaled to the nominal host. *)
  let scale r = nominal_ref_s /. r.ref_s in
  let service =
    List.concat_map
      (fun r -> Array.to_list (Array.map (fun (_, c) -> ms (c *. scale r)) r.seq))
      runs
  in
  (* Requests per server CPU second over the closed and sequential
     rounds. *)
  let ops_per_cpu_s =
    let n =
      List.fold_left
        (fun a r -> a + Array.length r.closed + Array.length r.seq)
        0 runs
    in
    float_of_int n
    /. Dist.sum
         (List.map
            (fun r ->
              (r.closed_cpu +. Array.fold_left (fun a (_, c) -> a +. c) 0. r.seq)
              *. scale r)
            runs)
  in
  (* Wall-clock figures, unscaled: open-loop latency from the due time. *)
  let opened f =
    List.concat_map
      (fun r ->
        Array.to_list r.opened
        |> List.filter_map (fun x ->
               if f x then Some (ms (Loop.latency x)) else None))
      runs
  in
  let lat = opened (fun _ -> true) in
  let saves = opened (fun r -> reqs.(r.Loop.req).Script.kind = Script.Save) in
  let seq_lat =
    List.concat_map
      (fun r -> Array.to_list (Array.map (fun (x, _) -> ms (Loop.latency x)) r.seq))
      runs
  in
  let late =
    List.concat_map (fun r -> Array.to_list r.opened) runs
    |> List.filter_map (fun r ->
           if r.Loop.idle then Some (ms (r.Loop.sent -. r.Loop.due)) else None)
  in
  let ops_wall =
    List.map
      (fun r -> float_of_int (Array.length r.closed) /. r.closed_wall)
      runs
  in
  let failed =
    Array.fold_left
      (fun a r -> match r.Loop.outcome with Ok_ _ -> a | _ -> a + 1)
      0 records
  in
  (* Correctness. *)
  let replies = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      match r.Loop.outcome with
      | Ok_ (Some resp) -> Hashtbl.replace replies r.Loop.req resp
      | _ -> ())
    records;
  let oracle = Oracle.create (Relal.Csv.load_db ~dir:inp.data) in
  let verdict, model =
    Oracle.check oracle ~reqs
      ~executed:(Array.to_list (Array.map (fun r -> r.Loop.req) records))
      ~reply:(Hashtbl.find_opt replies) ~cap:oracle_cap
  in
  let restart =
    match s.disk_shards with
    | None -> []
    | Some _ ->
        restart_check ctx s ~data:inp.data
          ~store:(store (setup_starts - 1))
          ~users:s.users model
  in
  let problems =
    verdict.Oracle.mismatches @ ledger ~h0 ~h1 records @ restart
  in
  let d k = stat h1 k - stat h0 k in
  let hits k = Dist.ratio (d (k ^ "_hit")) (d (k ^ "_hit") + d (k ^ "_miss")) in
  let q l p = if l = [] then Float.nan else Dist.quantile l p in
  let p99 = q lat 0.99 in
  {
    Spec.metrics =
      [
        Spec.m "setup_s" (Dist.median (List.map snd setups)) "s";
        Spec.m "service_p50_ms" (q service 0.5) "ms";
        Spec.m "service_p90_ms" (q service 0.9) "ms";
        Spec.m "ops_per_cpu_s" ops_per_cpu_s "ops/cpu-s";
        Spec.m "rss_mb" rss "MiB";
      ];
    diags =
      [
        Spec.m "samples" (float_of_int (List.length service)) "count";
        Spec.m "cut_rounds"
          (float_of_int (List.length (List.filter (fun r -> r.cut) runs)))
          "count";
        Spec.m "host.ref_cpu_ms"
          (Dist.median (List.map (fun r -> ms r.ref_s) runs))
          "ms";
        Spec.m "setup_wall_s" (Dist.median (List.map fst setups)) "s";
        Spec.m "p50_ms" (q lat 0.5) "ms";
        Spec.m "p90_ms" (q lat 0.9) "ms";
        Spec.m "p99_ms" p99 "ms";
        Spec.m "open_samples" (float_of_int (List.length lat)) "count";
        Spec.m "offered_rate" s.rate "req/s";
        Spec.m "seq_p50_ms" (q seq_lat 0.5) "ms";
        Spec.m "ops_per_s" (Dist.median ops_wall) "ops/s";
      ]
      @ (if saves = [] then []
         else
           [
             Spec.m "save_p50_ms" (q saves 0.5) "ms";
             Spec.m "save_p99_ms" (q saves 0.99) "ms";
             Spec.m "save_samples" (float_of_int (List.length saves)) "count";
           ])
      @ [
        Spec.m "fail_frac"
          (Dist.ratio failed (Array.length records))
          "fraction";
        Spec.m "slo_ok" (if p99 <= slo_ms then 1. else 0.) "bool";
        Spec.m "gen_late_ms.p99" (q late 0.99) "ms";
        Spec.m "cache_hit_ratio"
          (Dist.ratio (d "cache_hit")
             (d "cache_hit" + d "cache_miss" + d "cache_incremental"))
          "ratio";
        Spec.m "profile_lru_hit_ratio" (hits "profile_lru") "ratio";
        Spec.m "oracle_checked" (float_of_int verdict.Oracle.checked) "count";
      ];
    attempted = Array.length records;
    failed;
    problems;
  }
