(* rewrite-large: the paper's architecture, where the personalized SQL
   goes to the DBMS (Figs 6 and 8).  One operation is SQL text ->
   [Sql_parser.parse] -> [Personalize.personalize] -> [Sql_print], on one
   thread in a closed loop, with 100-selection profiles and K cycling
   through 5, 20 and 60 (MQ, L = 1).

   The work runs in a child process that receives only the data dir and
   the operation list, so its set-up time and peak memory are the
   system's own, not the benchmark's. *)

open Relal

let ops_file dir = Filename.concat dir "ops.txt"
let data_dir dir = Filename.concat dir "data"
let n_ops = 3000
let check_every = 10
let oracle_cap = 300

let params k =
  {
    Perso.Personalize.default_params with
    k = Perso.Criteria.Top_r k;
    l = `At_least 1;
    method_ = `MQ;
  }

type op = { user : string; k : int; sql : string }

(* The seeded operation list, shared by the e2e run and the trace. *)
let make_ops (ctx : Spec.ctx) (r : Spec.rewrite) db =
  let sqls = Spec.templates db r.queries in
  let profiles =
    Array.init r.profiles (fun u ->
        ( Spec.user_name u,
          Spec.profile db ~seed:Spec.population_seed ~user:u
            ~selections:r.rselections ))
  in
  let rng = Putil.Rng.split (Putil.Rng.create ctx.seed) in
  let ks = Array.of_list r.ks in
  let ops =
    Array.init n_ops (fun i ->
        let user = fst profiles.(Putil.Rng.int rng r.profiles) in
        let sql = sqls.(Putil.Rng.int rng (Array.length sqls)) in
        { user; k = ks.(i mod Array.length ks); sql })
  in
  (profiles, ops)

let write_inputs (ctx : Spec.ctx) r =
  let db = Spec.catalog ~smoke:ctx.smoke in
  let profiles, ops = make_ops ctx r db in
  Spec.install_profiles db profiles;
  Csv.save_db ~dir:(data_dir ctx.dir) db;
  Out_channel.with_open_text (ops_file ctx.dir) (fun oc ->
      Array.iter
        (fun o -> Printf.fprintf oc "%s\t%d\t%s\n" o.user o.k o.sql)
        ops);
  ops

let read_ops dir =
  In_channel.with_open_text (ops_file dir) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ user; k; sql ] -> { user; k = int_of_string k; sql }
         | _ -> failwith ("rewrite: bad op line: " ^ l))
  |> Array.of_list

let load_profile db user =
  match Perso.Profile_store.load_r db ~user with
  | Ok p -> p
  | Error e -> failwith ("rewrite: " ^ Perso.Error.to_string e)

let rewrite db profile o =
  Sql_print.query_to_string
    (Perso.Personalize.personalize ~params:(params o.k) db profile
       (Sql_parser.parse o.sql))
      .Perso.Personalize.personalized

(* ------------------------------- child ------------------------------ *)

(* The run, as shares of its seconds: a warm-up, then [rounds] rounds.
   The reference work is timed before the first set-up and after every
   set-up and every round; each is scaled by the mean of the two
   timings around it. *)
let rounds = 20
let setup_starts = 5

(* Host-speed scaling as in [Served], except that the reference work
   runs on the child's own thread and with the small working set of a
   rewrite, where it takes about [nominal_ref_s] CPU seconds on the VM
   the workloads were sized on. *)
let nominal_ref_s = 0.024

let cpu_timed f =
  let c0 = Dist.cpu_self () in
  let x = f () in
  (Dist.cpu_self () -. c0, x)

(* Runs in the child process; prints "metric NAME VALUE" and
   "check OP SQL" lines on stdout. *)
let child ~dir ~seconds =
  let ops = read_ops dir in
  (* Set-up, measured [setup_starts] times; the last load is the one
     used.  Each load's wall seconds and scaled CPU seconds. *)
  let reference () = Dist.reference_cpu_s ~domains:1 ~strings:3_000 in
  let last_ref = ref (reference ()) in
  (* The mean of the previous timing and a new one taken now. *)
  let bracket () =
    let r = reference () in
    let m = (!last_ref +. r) /. 2. in
    last_ref := r;
    m
  in
  let setups, (db, profiles) =
    let once () =
      let t0 = Dist.now () in
      let cpu, loaded =
        cpu_timed (fun () ->
            let db = Csv.load_db ~dir:(data_dir dir) in
            let profiles = Hashtbl.create 8 in
            Array.iter
              (fun o ->
                if not (Hashtbl.mem profiles o.user) then
                  Hashtbl.add profiles o.user (load_profile db o.user))
              ops;
            (db, profiles))
      in
      let wall = Dist.now () -. t0 in
      ((wall, cpu *. nominal_ref_s /. bracket ()), loaded)
    in
    let runs = List.init setup_starts (fun _ -> once ()) in
    (List.map fst runs, snd (List.nth runs (setup_starts - 1)))
  in
  let n = Array.length ops in
  let checks = Hashtbl.create 64 in
  let next = ref 0 in
  let step () =
    let i = !next mod n in
    incr next;
    let o = ops.(i) in
    let sql = rewrite db (Hashtbl.find profiles o.user) o in
    if i mod check_every = 0 && Hashtbl.length checks < oracle_cap then
      Hashtbl.replace checks i sql
  in
  let now = Dist.now in
  let run_for s f =
    let until = now () +. s in
    while now () < until do
      f ()
    done
  in
  run_for (0.1 *. seconds) step;
  last_ref := reference ();
  let round_s = 0.9 *. seconds /. float_of_int rounds in
  (* Per round: the reference's CPU seconds, and per operation its
     wall and CPU milliseconds. *)
  let runs =
    List.init rounds (fun _ ->
        let opl = ref [] in
        run_for round_s (fun () ->
            let t0 = now () in
            let cpu, () = cpu_timed step in
            opl := ((now () -. t0) *. 1000., cpu *. 1000.) :: !opl);
        (bracket (), !opl))
  in
  let service =
    List.concat_map
      (fun (r, l) -> List.map (fun (_, c) -> c *. nominal_ref_s /. r) l)
      runs
  in
  let wall = List.concat_map (fun (_, l) -> List.map fst l) runs in
  let p name v = Printf.printf "metric %s %.17g\n" name v in
  p "setup_s" (Dist.median (List.map snd setups));
  p "service_p50_ms" (Dist.quantile service 0.5);
  p "service_p90_ms" (Dist.quantile service 0.9);
  p "ops_per_cpu_s" (1000. *. float_of_int (List.length service) /. Dist.sum service);
  p "samples" (float_of_int (List.length service));
  p "host.ref_cpu_ms" (Dist.median (List.map (fun (r, _) -> r *. 1000.) runs));
  p "setup_wall_s" (Dist.median (List.map fst setups));
  p "p50_ms" (Dist.quantile wall 0.5);
  p "p90_ms" (Dist.quantile wall 0.9);
  p "p99_ms" (Dist.quantile wall 0.99);
  p "ops_per_s" (float_of_int (List.length wall) /. (round_s *. float_of_int rounds));
  Hashtbl.iter (fun i sql -> Printf.printf "check %d %s\n" i sql) checks;
  p "rss_mb" (Server_proc.vm_hwm_mb "self")

(* ------------------------------ parent ------------------------------ *)

let run (ctx : Spec.ctx) (r : Spec.rewrite) : Spec.result =
  let ops = write_inputs ctx r in
  let argv =
    [|
      Sys.executable_name; "--rewrite-child"; ctx.dir; "--seconds";
      Printf.sprintf "%.17g" ctx.seconds;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin wr Unix.stderr in
  let running = ref true in
  at_exit (fun () ->
      if !running then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end);
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let status = snd (Unix.waitpid [] pid) in
  running := false;
  if status <> Unix.WEXITED 0 then failwith "rewrite: child process failed";
  let metrics = Hashtbl.create 8 and checks = ref [] in
  List.iter
    (fun l ->
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = "metric" ->
          Scanf.sscanf l "metric %s %f" (fun k v -> Hashtbl.replace metrics k v)
      | Some i when String.sub l 0 i = "check" ->
          Scanf.sscanf l "check %d %[^\n]" (fun op sql ->
              checks := (op, sql) :: !checks)
      | _ -> ())
    (String.split_on_char '\n' out);
  let get k =
    match Hashtbl.find_opt metrics k with
    | Some v -> v
    | None -> failwith ("rewrite: child did not report " ^ k)
  in
  (* The oracle: the same rewrite, cold, on the benchmark's own load. *)
  let db = Csv.load_db ~dir:(data_dir ctx.dir) in
  let profiles = Hashtbl.create 8 in
  let profile u =
    match Hashtbl.find_opt profiles u with
    | Some p -> p
    | None ->
        let p = load_profile db u in
        Hashtbl.add profiles u p;
        p
  in
  let problems =
    List.filter_map
      (fun (i, got) ->
        let want = rewrite db (profile ops.(i).user) ops.(i) in
        if got = want then None
        else Some (Printf.sprintf "rewrite op %d: got %s, want %s" i got want))
      (List.sort compare !checks)
  in
  let problems =
    if !checks = [] then [ "rewrite: no checked operations" ] else problems
  in
  let samples = int_of_float (get "samples") in
  {
    Spec.metrics =
      List.map
        (fun (k, u) -> Spec.m k (get k) u)
        [
          ("setup_s", "s"); ("service_p50_ms", "ms"); ("service_p90_ms", "ms");
          ("ops_per_cpu_s", "ops/cpu-s"); ("rss_mb", "MiB");
        ];
    diags =
      List.map
        (fun (k, u) -> Spec.m k (get k) u)
        [
          ("samples", "count"); ("host.ref_cpu_ms", "ms");
          ("setup_wall_s", "s"); ("p50_ms", "ms"); ("p90_ms", "ms");
          ("p99_ms", "ms"); ("ops_per_s", "ops/s");
        ]
      @ [ Spec.m "oracle_checked" (float_of_int (List.length !checks)) "count" ];
    attempted = samples;
    failed = 0;
    problems;
  }
