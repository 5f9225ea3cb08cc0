(* Benchmark harness: regenerates every figure of the paper's evaluation
   (§7) on the synthetic movie database, and runs Bechamel micro-bench
   kernels for the timed inner loops (one Test.make per figure).

   Usage:
     dune exec bench/main.exe                 # all figures + kernels
     dune exec bench/main.exe -- fig6 fig8    # a subset
     BENCH_SCALE=quick|default|paper          # workload size

   Absolute numbers will not match the paper's Oracle-9i/2003-hardware
   setup; the claims under test are the *shapes* (see EXPERIMENTS.md). *)

open Perso

(* --------------------------------------------------------------------- *)
(* Scales and timing                                                     *)
(* --------------------------------------------------------------------- *)

type scale = {
  label : string;
  movies : int;
  profiles : int;  (** profiles per parameter point *)
  queries : int;  (** queries per parameter point *)
}

let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some "quick" -> { label = "quick"; movies = 500; profiles = 2; queries = 4 }
  | Some "paper" -> { label = "paper"; movies = 20_000; profiles = 10; queries = 20 }
  | _ -> { label = "default"; movies = 2_000; profiles = 4; queries = 8 }

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let time f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

let avg = function
  | [] -> Float.nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let pct x = 100. *. x

(* --------------------------------------------------------------------- *)
(* Shared setup                                                          *)
(* --------------------------------------------------------------------- *)

let db =
  lazy
    (let cfg = Moviedb.Datagen.scale ~seed:42 scale.movies in
     let t0 = now_ms () in
     let db = Moviedb.Datagen.generate cfg in
     Printf.printf "# generated %d-movie database in %.0f ms (scale: %s)\n%!"
       scale.movies (now_ms () -. t0) scale.label;
     db)

let queries_for seed n =
  let db = Lazy.force db in
  Moviedb.Workload.queries db ~n ~seed

let profile_for ~seed ~size =
  Moviedb.Profile_gen.generate (Lazy.force db)
    { Moviedb.Profile_gen.default with seed; n_selections = size }

let profiles_for ~seed0 ~size n =
  List.init n (fun i -> profile_for ~seed:(seed0 + i) ~size)

(* Personalization plumbing with separately-timed phases. *)

type timed_run = {
  t_select : float;  (** preference selection, ms *)
  t_integrate : float;  (** instantiation + SQ/MQ construction, ms *)
  t_exec : float;  (** personalized-query execution, ms *)
  n_selected : int;
  rows : int;
}

let run_one ?(method_ = `MQ) ~k ~l db profile query =
  let bound = Relal.Binder.bind db query in
  let qg = Qgraph.of_query db bound in
  let g = Pgraph.of_profile profile in
  let selected, t_select =
    time (fun () -> Select.select db g qg (Criteria.Top_r k))
  in
  let q', t_integrate =
    time (fun () ->
        let insts = Integrate.instantiate db qg selected in
        let l = min l (List.length insts) in
        match method_ with
        | `SQ -> Integrate.sq db qg ~mandatory:[] ~optional:insts ~l
        | `MQ ->
            Integrate.mq ~rank:false db qg ~mandatory:[] ~optional:insts
              ~l:(`At_least l) ())
  in
  let res, t_exec = time (fun () -> Relal.Engine.run_query db q') in
  {
    t_select;
    t_integrate;
    t_exec;
    n_selected = List.length selected;
    rows = List.length res.Relal.Exec.rows;
  }

let distinct_initial_rows db query =
  let q = { query with Relal.Sql_ast.distinct = true } in
  List.length (Relal.Engine.run_query db q).Relal.Exec.rows

(* --------------------------------------------------------------------- *)
(* Figure 6: Preference Selection Time vs profile size                   *)
(* --------------------------------------------------------------------- *)

let fig6 () =
  let db = Lazy.force db in
  let ks = [ 5; 10; 15 ] in
  let sizes = [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ] in
  let queries = queries_for 101 scale.queries in
  (* Global warm-up: run the selection path once so the first measured
     cell does not absorb cold-start effects. *)
  (let profile = profile_for ~seed:999 ~size:50 in
   List.iter
     (fun q ->
       let bound = Relal.Binder.bind db q in
       let qg = Qgraph.of_query db bound in
       ignore (Select.select db (Pgraph.of_profile profile) qg (Criteria.Top_r 15)))
     queries);
  Printf.printf
    "\n\
     ## Figure 6 — Preference Selection Time (ms) vs profile size\n\
     ## avg over %d profiles x %d queries; M=0\n" scale.profiles scale.queries;
  Printf.printf "%-13s %10s %10s %10s\n" "profile_size" "K=5" "K=10" "K=15";
  List.iter
    (fun size ->
      let profiles = profiles_for ~seed0:(1000 + size) ~size scale.profiles in
      let cells =
        List.map
          (fun k ->
            let samples =
              List.concat_map
                (fun profile ->
                  List.map
                    (fun q ->
                      let bound = Relal.Binder.bind db q in
                      let qg = Qgraph.of_query db bound in
                      let g = Pgraph.of_profile profile in
                      (* One untimed warm-up call per combination. *)
                      ignore (Select.select db g qg (Criteria.Top_r k));
                      snd (time (fun () -> Select.select db g qg (Criteria.Top_r k))))
                    queries)
                profiles
            in
            avg samples)
          ks
      in
      match cells with
      | [ a; b; c ] -> Printf.printf "%-13d %10.4f %10.4f %10.4f\n%!" size a b c
      | _ -> ())
    sizes

(* --------------------------------------------------------------------- *)
(* Figure 7: result size of personalized queries                         *)
(* --------------------------------------------------------------------- *)

let result_size_pct ~k ~l ~size ~seed0 =
  let db = Lazy.force db in
  let queries = queries_for 202 scale.queries in
  let profiles = profiles_for ~seed0 ~size scale.profiles in
  let samples =
    List.concat_map
      (fun profile ->
        List.filter_map
          (fun q ->
            let initial = distinct_initial_rows db q in
            if initial = 0 then None
            else begin
              let r = run_one ~k ~l db profile q in
              Some (float_of_int r.rows /. float_of_int initial)
            end)
          queries)
      profiles
  in
  pct (avg samples)

let fig7a () =
  Printf.printf "\n## Figure 7(a) — %% of initial query's rows vs K (L=1, M=0)\n";
  Printf.printf "%-6s %14s\n" "K" "%rows";
  List.iter
    (fun k ->
      Printf.printf "%-6d %14.1f\n%!" k (result_size_pct ~k ~l:1 ~size:55 ~seed0:300))
    [ 10; 20; 30; 40; 50 ]

let fig7b () =
  Printf.printf "\n## Figure 7(b) — %% of initial query's rows vs L (K=10, M=0)\n";
  Printf.printf "%-6s %14s\n" "L" "%rows";
  List.iter
    (fun l ->
      Printf.printf "%-6d %14.2f\n%!" l (result_size_pct ~k:10 ~l ~size:20 ~seed0:400))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let fig7c () =
  Printf.printf "\n## Figure 7(c) — %% of initial query's rows vs L (K=60, M=0)\n";
  Printf.printf "%-6s %14s\n" "L" "%rows";
  List.iter
    (fun l ->
      Printf.printf "%-6d %14.1f\n%!" l (result_size_pct ~k:60 ~l ~size:70 ~seed0:500))
    [ 1; 5; 10; 15; 20; 25 ]

(* --------------------------------------------------------------------- *)
(* Figures 8 & 9: SQ vs MQ                                               *)
(* --------------------------------------------------------------------- *)

let sq_mq_point ~k ~l ~size ~seed0 =
  let db = Lazy.force db in
  let queries = queries_for 203 scale.queries in
  let profiles = profiles_for ~seed0 ~size scale.profiles in
  let samples method_ =
    List.concat_map
      (fun profile ->
        List.filter_map
          (fun q ->
            match run_one ~method_ ~k ~l db profile q with
            | r -> Some (r.t_integrate, r.t_exec)
            | exception Integrate.Integration_error _ -> None)
          queries)
      profiles
  in
  let sq = samples `SQ and mq = samples `MQ in
  ( avg (List.map fst sq),
    avg (List.map snd sq),
    avg (List.map fst mq),
    avg (List.map snd mq) )

let fig8 () =
  Printf.printf
    "\n## Figure 8 — SQ vs MQ, integration and execution times (ms) vs K (L=1, M=0)\n";
  Printf.printf "%-6s %12s %12s %12s %12s\n" "K" "SQ_integr" "MQ_integr" "SQ_exec"
    "MQ_exec";
  List.iter
    (fun k ->
      let si, se, mi, me = sq_mq_point ~k ~l:1 ~size:70 ~seed0:600 in
      Printf.printf "%-6d %12.4f %12.4f %12.3f %12.3f\n%!" k si mi se me)
    [ 0; 5; 10; 20; 30; 40; 50; 60 ]

let fig9 () =
  Printf.printf
    "\n## Figure 9 — SQ vs MQ, integration and execution times (ms) vs L (K=10, M=0)\n";
  Printf.printf "%-6s %12s %12s %12s %12s\n" "L" "SQ_integr" "MQ_integr" "SQ_exec"
    "MQ_exec";
  List.iter
    (fun l ->
      let si, se, mi, me = sq_mq_point ~k:10 ~l ~size:20 ~seed0:700 in
      Printf.printf "%-6d %12.4f %12.4f %12.3f %12.3f\n%!" l si mi se me)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

(* --------------------------------------------------------------------- *)
(* Figure 10: performance of personalization (MQ)                        *)
(* --------------------------------------------------------------------- *)

let fig10_point ~k ~l ~size ~seed0 =
  let db = Lazy.force db in
  let queries = queries_for 204 scale.queries in
  let profiles = profiles_for ~seed0 ~size scale.profiles in
  let samples =
    List.concat_map
      (fun profile ->
        List.map
          (fun q ->
            let _, t_initial = time (fun () -> Relal.Engine.run_query db q) in
            let r = run_one ~method_:`MQ ~k ~l db profile q in
            (t_initial, r.t_select +. r.t_integrate, r.t_exec))
          queries)
      profiles
  in
  ( avg (List.map (fun (a, _, _) -> a) samples),
    avg (List.map (fun (_, b, _) -> b) samples),
    avg (List.map (fun (_, _, c) -> c) samples) )

let fig10 () =
  Printf.printf "\n## Figure 10 — Performance of personalization with K (L=1, MQ)\n";
  Printf.printf "%-6s %14s %16s %16s\n" "K" "initial_exec" "personalization"
    "personal_exec";
  List.iter
    (fun k ->
      let i, p, e = fig10_point ~k ~l:1 ~size:70 ~seed0:800 in
      Printf.printf "%-6d %14.3f %16.4f %16.3f\n%!" k i p e)
    [ 0; 5; 10; 20; 30; 40; 50; 60 ];
  Printf.printf "\n## Figure 10 — Performance of personalization with L (K=10, MQ)\n";
  Printf.printf "%-6s %14s %16s %16s\n" "L" "initial_exec" "personalization"
    "personal_exec";
  List.iter
    (fun l ->
      let i, p, e = fig10_point ~k:10 ~l ~size:20 ~seed0:900 in
      Printf.printf "%-6d %14.3f %16.4f %16.3f\n%!" l i p e)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

(* --------------------------------------------------------------------- *)
(* Bechamel kernels — one Test.make per figure's inner loop              *)
(* --------------------------------------------------------------------- *)

let kernels () =
  let open Bechamel in
  let open Toolkit in
  let db = Lazy.force db in
  let profile = profile_for ~seed:9000 ~size:50 in
  let small_profile = profile_for ~seed:9001 ~size:20 in
  let query = Moviedb.Workload.tonight_query () in
  let bound = Relal.Binder.bind db query in
  let qg = Qgraph.of_query db bound in
  let g = Pgraph.of_profile profile in
  let g_small = Pgraph.of_profile small_profile in
  let selected = Select.select db g qg (Criteria.Top_r 10) in
  let insts = Integrate.instantiate db qg selected in
  let selected_small = Select.select db g_small qg (Criteria.Top_r 10) in
  let insts_small = Integrate.instantiate db qg selected_small in
  let mq =
    Integrate.mq ~rank:true db qg ~mandatory:[] ~optional:insts ~l:(`At_least 1) ()
  in
  let sq = Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:1 in
  let tests =
    [
      (* Figure 6 kernel: the preference-selection graph computation. *)
      Test.make ~name:"fig6/select-K10-size50"
        (Staged.stage (fun () -> Select.select db g qg (Criteria.Top_r 10)));
      (* Figure 7 kernel: executing the MQ personalized query. *)
      Test.make ~name:"fig7/exec-mq-K10-L1"
        (Staged.stage (fun () -> Relal.Engine.run_query db mq));
      (* Figure 8 kernels: the two integration methods. *)
      Test.make ~name:"fig8/integrate-sq-K10-L1"
        (Staged.stage (fun () ->
             Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:1));
      Test.make ~name:"fig8/integrate-mq-K10-L1"
        (Staged.stage (fun () ->
             Integrate.mq ~rank:false db qg ~mandatory:[] ~optional:insts
               ~l:(`At_least 1) ()));
      (* Figure 9 kernel: SQ's combination blow-up at L=5 (C(10,5)=252). *)
      Test.make ~name:"fig9/integrate-sq-K10-L5"
        (Staged.stage (fun () ->
             match Integrate.sq db qg ~mandatory:[] ~optional:insts_small ~l:5 with
             | q -> Some q
             | exception Integrate.Integration_error _ -> None));
      (* Figure 9 execution kernel: the SQ query itself. *)
      Test.make ~name:"fig9/exec-sq-K10-L1"
        (Staged.stage (fun () -> Relal.Engine.run_query db sq));
      (* Figure 10 kernel: the whole pipeline. *)
      Test.make ~name:"fig10/pipeline-K10-L1"
        (Staged.stage (fun () ->
             let outcome =
               Personalize.personalize
                 ~params:
                   {
                     Personalize.default_params with
                     k = Criteria.Top_r 10;
                     rank = false;
                   }
                 db profile query
             in
             Personalize.execute db outcome));
    ]
  in
  Printf.printf "\n## Bechamel kernels (OLS estimate per run)\n";
  Printf.printf "%-28s %14s %8s\n" "kernel" "time/run" "r^2";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~stabilize:false () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let res = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name o ->
          let est =
            match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> Float.nan
          in
          let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square o) in
          let human =
            if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
            else Printf.sprintf "%.0f ns" est
          in
          Printf.printf "%-28s %14s %8.4f\n%!" name human r2)
        res)
    tests

(* --------------------------------------------------------------------- *)
(* Ablations — design choices DESIGN.md calls out                        *)
(* --------------------------------------------------------------------- *)

(* Ablation 1: the conjunctive combination function used for ranking.
   The paper picks 1-prod(1-d); alternatives satisfying the same bound
   f(D) >= max(D) are max itself (degenerate) and a capped sum.  We
   compare how well each discriminates between result rows. *)
let ablation_funcs () =
  let db = Lazy.force db in
  let profile = profile_for ~seed:9100 ~size:40 in
  let queries = queries_for 205 scale.queries in
  Printf.printf
    "\n\
     ## Ablation — conjunctive ranking function (K=10, L=1)\n\
     ## distinct-scores: how many distinct rank levels the function yields\n\
     ## (higher = finer discrimination between result rows)\n";
  Printf.printf "%-12s %18s %18s %18s\n" "query" "noisy-or (paper)" "max" "capped-sum";
  let noisy_or ds = 1. -. List.fold_left (fun a d -> a *. (1. -. d)) 1. ds in
  let max_f ds = List.fold_left max 0. ds in
  let capped ds = min 1.0 (List.fold_left ( +. ) 0. ds) in
  List.iteri
    (fun qi q ->
      let bound = Relal.Binder.bind db q in
      let qg = Qgraph.of_query db bound in
      let g = Pgraph.of_profile profile in
      let selected = Select.select db g qg (Criteria.Top_r 10) in
      let insts = Integrate.instantiate db qg selected in
      (* Satisfied-preference sets per row, via the partial queries. *)
      let rows : (string, float list) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun inst ->
          let q' =
            Integrate.mq ~rank:false db qg ~mandatory:[] ~optional:[ inst ]
              ~l:(`At_least 1) ()
          in
          let res = Relal.Engine.run_query db q' in
          let d = Degree.to_float inst.Integrate.path.Path.degree in
          List.iter
            (fun row ->
              let key =
                String.concat "|"
                  (Array.to_list (Array.map Relal.Value.to_string row))
              in
              Hashtbl.replace rows key
                (d :: Option.value ~default:[] (Hashtbl.find_opt rows key)))
            res.Relal.Exec.rows)
        insts;
      let distinct f =
        let scores = Hashtbl.fold (fun _ ds acc -> f ds :: acc) rows [] in
        List.length
          (List.sort_uniq compare (List.map (fun s -> Float.round (s *. 1e6)) scores))
      in
      if Hashtbl.length rows > 0 && qi < 6 then
        Printf.printf "q%-11d %18d %18d %18d   (%d rows)\n%!" qi
          (distinct noisy_or) (distinct max_f) (distinct capped)
          (Hashtbl.length rows))
    queries

(* Ablation 2: top-N early termination vs executing the full ranked MQ.
   Under the paper's noisy-or conjunctive scoring the TA threshold
   1-prod(1-d_rest) stays near 1 while many high-degree preferences
   remain, so early termination only pays when profile degrees decay
   quickly — the two profile shapes below demonstrate exactly that. *)
let ablation_topn () =
  let db = Lazy.force db in
  let uniform = profile_for ~seed:9200 ~size:70 in
  (* Same atoms, geometrically decaying selection degrees. *)
  let decaying =
    let rank = ref (-1) in
    List.fold_left
      (fun acc (atom, d) ->
        match atom with
        | Atom.Join _ -> Profile.add acc atom d
        | Atom.Sel _ ->
            incr rank;
            let d' = Float.max 0.02 (0.9 *. Float.pow 0.55 (float_of_int !rank)) in
            Profile.add acc atom (Degree.of_float d'))
      Profile.empty (Profile.entries uniform)
  in
  let queries = queries_for 206 scale.queries in
  Printf.printf
    "\n## Ablation — top-N early termination vs full MQ (K=20, L=1)\n";
  Printf.printf "%-10s %-6s %12s %12s %16s %14s\n" "degrees" "N" "full_ms"
    "topn_ms" "partials_run" "probes";
  List.iter
    (fun (label, profile) ->
      List.iter
        (fun n ->
          let samples =
            List.filter_map
              (fun q ->
                let bound = Relal.Binder.bind db q in
                let qg = Qgraph.of_query db bound in
                let g = Pgraph.of_profile profile in
                let selected = Select.select db g qg (Criteria.Top_r 20) in
                if selected = [] then None
                else begin
                  let insts = Integrate.instantiate db qg selected in
                  let mq =
                    Integrate.mq ~rank:true db qg ~mandatory:[] ~optional:insts
                      ~l:(`At_least 1) ()
                  in
                  let _, t_full = time (fun () -> Relal.Engine.run_query db mq) in
                  let r, t_top =
                    time (fun () ->
                        Topn.top_n ~n db qg ~mandatory:[] ~optional:insts ())
                  in
                  Some
                    ( t_full,
                      t_top,
                      float_of_int r.Topn.stats.Topn.partials_executed
                      /. float_of_int (max 1 r.Topn.stats.Topn.partials_total),
                      float_of_int r.Topn.stats.Topn.random_probes )
                end)
              queries
          in
          Printf.printf "%-10s %-6d %12.3f %12.3f %15.0f%% %14.1f\n%!" label n
            (avg (List.map (fun (a, _, _, _) -> a) samples))
            (avg (List.map (fun (_, b, _, _) -> b) samples))
            (100. *. avg (List.map (fun (_, _, c, _) -> c) samples))
            (avg (List.map (fun (_, _, _, d) -> d) samples)))
        [ 1; 3; 5; 10 ])
    [ ("uniform", uniform); ("decaying", decaying) ]

(* Ablation 3: index access paths (index-equality materialization +
   index-nested-loop joins) vs pure hash joins over scans. *)
let ablation_index () =
  let cfg = Moviedb.Datagen.scale ~seed:42 scale.movies in
  let with_idx = Moviedb.Datagen.generate cfg in
  let without_idx = Moviedb.Datagen.generate ~index:false cfg in
  let profile_of db =
    Moviedb.Profile_gen.generate db
      { Moviedb.Profile_gen.default with seed = 9300; n_selections = 20 }
  in
  let run_suite db =
    let profile = profile_of db in
    let queries = Moviedb.Workload.queries db ~n:scale.queries ~seed:207 in
    let samples =
      List.map
        (fun q ->
          let r = run_one ~method_:`MQ ~k:10 ~l:1 db profile q in
          r.t_exec)
        queries
    in
    avg samples
  in
  Printf.printf "\n## Ablation — index access paths (MQ execution, K=10, L=1)\n";
  Printf.printf "%-28s %12s\n" "configuration" "exec_ms";
  Printf.printf "%-28s %12.3f\n%!" "hash joins over scans" (run_suite without_idx);
  Printf.printf "%-28s %12.3f\n%!" "index paths + INLJ" (run_suite with_idx)

(* Ablation 4: greedy (smallest input) vs cost-based (estimated output)
   join ordering on the personalized-query workload. *)
let ablation_planner () =
  let db = Lazy.force db in
  let stats = Relal.Stats.create db in
  (* Warm the statistics cache outside the timed region. *)
  List.iter
    (fun t ->
      ignore
        (Relal.Stats.ndv stats
           (Relal.Schema.name (Relal.Table.schema t))
           (Relal.Schema.columns (Relal.Table.schema t)).(0).Relal.Schema.cname))
    (Relal.Database.tables db);
  let profile = profile_for ~seed:9400 ~size:30 in
  let queries = queries_for 208 (2 * scale.queries) in
  let run strategy =
    let samples =
      List.map
        (fun q ->
          let bound = Relal.Binder.bind db q in
          let qg = Qgraph.of_query db bound in
          let g = Pgraph.of_profile profile in
          let selected = Select.select db g qg (Criteria.Top_r 10) in
          let insts = Integrate.instantiate db qg selected in
          let mq =
            Integrate.mq ~rank:false db qg ~mandatory:[] ~optional:insts
              ~l:(`At_least (min 1 (List.length insts))) ()
          in
          snd (time (fun () -> Relal.Exec.run ~strategy ~stats db mq)))
        queries
    in
    avg samples
  in
  Printf.printf "\n## Ablation — join ordering (MQ execution, K=10, L=1)\n";
  Printf.printf "%-36s %12s\n" "strategy" "exec_ms";
  Printf.printf "%-36s %12.3f\n%!" "greedy (smallest input)" (run `Auto);
  Printf.printf "%-36s %12.3f\n%!" "cost-based (estimated join output)" (run `Cost)

(* --------------------------------------------------------------------- *)
(* Executor benchmark — machine-readable baseline (BENCH_EXEC.json)      *)
(* --------------------------------------------------------------------- *)

(* Times the relational executor alone (queries pre-built outside the
   timed region) on the §7 figure workloads, and writes per-figure
   timings to BENCH_EXEC.json so perf PRs are judged against recorded
   numbers rather than folklore.  Override the output path with
   BENCH_EXEC_OUT. *)

let bench_exec () =
  let db = Lazy.force db in
  let personalized ~method_ ~k ~l ~size ~seed0 =
    let queries = queries_for 210 scale.queries in
    let profiles = profiles_for ~seed0 ~size scale.profiles in
    List.concat_map
      (fun profile ->
        List.filter_map
          (fun q ->
            let bound = Relal.Binder.bind db q in
            let qg = Qgraph.of_query db bound in
            let g = Pgraph.of_profile profile in
            let selected = Select.select db g qg (Criteria.Top_r k) in
            let insts = Integrate.instantiate db qg selected in
            let l = min l (List.length insts) in
            match method_ with
            | `SQ -> (
                match Integrate.sq db qg ~mandatory:[] ~optional:insts ~l with
                | q' -> Some q'
                | exception Integrate.Integration_error _ -> None)
            | `MQ ->
                Some
                  (Integrate.mq ~rank:false db qg ~mandatory:[] ~optional:insts
                     ~l:(`At_least l) ()))
          queries)
      profiles
  in
  let figures =
    [
      (* Multi-join SPJ workload, no personalization: the raw executor. *)
      ("workload_spj", queries_for 210 (4 * scale.queries));
      (* §7 figure workloads: MQ/SQ personalized queries. *)
      ("fig7_mq_k10_l1", personalized ~method_:`MQ ~k:10 ~l:1 ~size:70 ~seed0:600);
      ("fig7_mq_k30_l1", personalized ~method_:`MQ ~k:30 ~l:1 ~size:70 ~seed0:600);
      ("fig7_mq_k60_l1", personalized ~method_:`MQ ~k:60 ~l:1 ~size:70 ~seed0:600);
      ("fig8_sq_k10_l1", personalized ~method_:`SQ ~k:10 ~l:1 ~size:70 ~seed0:600);
      ("fig9_mq_k10_l5", personalized ~method_:`MQ ~k:10 ~l:5 ~size:20 ~seed0:700);
    ]
  in
  let reps = 3 in
  Printf.printf "\n## Executor benchmark (avg of %d reps; queries pre-built)\n" reps;
  Printf.printf "%-18s %8s %12s %14s %10s\n" "figure" "queries" "ms_total"
    "ms_per_query" "rows";
  let results =
    List.map
      (fun (name, qs) ->
        (* Warm-up pass, then timed repetitions. *)
        let run_all () =
          List.fold_left
            (fun acc q ->
              acc + List.length (Relal.Engine.run_query db q).Relal.Exec.rows)
            0 qs
        in
        let rows = run_all () in
        let times =
          List.init reps (fun _ -> snd (time (fun () -> ignore (run_all ()))))
        in
        let ms = avg times in
        let n = List.length qs in
        Printf.printf "%-18s %8d %12.3f %14.4f %10d\n%!" name n ms
          (ms /. float_of_int (max 1 n))
          rows;
        (name, n, ms, rows))
      figures
  in
  let total_ms = List.fold_left (fun a (_, _, ms, _) -> a +. ms) 0. results in
  (* ---- multicore scaling: fig7 K=60 across domain counts ---------- *)
  (* The heaviest §7 workload re-timed under the domain pool.  Results
     are byte-identical at every domain count (enforced by test_par);
     what this records is the wall-clock scaling, which only shows on
     hardware that actually has the cores — so the physical core count
     travels with the figures and `make bench-par` gates on speedup
     only when cores >= 4. *)
  let cores = Domain.recommended_domain_count () in
  let par_figure = "fig7_mq_k60_l1" in
  let par_qs = List.assoc par_figure figures in
  let par_run () =
    List.fold_left
      (fun acc q ->
        acc + List.length (Relal.Engine.run_query db q).Relal.Exec.rows)
      0 par_qs
  in
  let time_at_domains d =
    let timed () =
      ignore (par_run () : int) (* warm-up *);
      avg (List.init reps (fun _ -> snd (time (fun () -> ignore (par_run (): int)))))
    in
    if d <= 1 then timed ()
    else begin
      let pool = Putil.Dpool.create ~domains:d in
      Relal.Exec.set_pool (Some pool);
      Fun.protect
        ~finally:(fun () ->
          Relal.Exec.set_pool None;
          Putil.Dpool.shutdown pool)
        timed
    end
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let par_results = List.map (fun d -> (d, time_at_domains d)) domain_counts in
  let par_base = List.assoc 1 par_results in
  Printf.printf "\n## Multicore scaling — %s (%d cores on this host)\n"
    par_figure cores;
  Printf.printf "%-10s %12s %10s\n" "domains" "ms_total" "speedup";
  List.iter
    (fun (d, ms) ->
      Printf.printf "%-10d %12.3f %9.2fx\n%!" d ms (par_base /. ms))
    par_results;
  (* ---- sharded profile store: serve-path throughput ---------------- *)
  (* Mixed PROFILE SAVE / PROFILE LOAD pressure through the server core
     (no sockets): with one shard every save excludes everything; with
     N shards only same-shard traffic queues behind it. *)
  let store_threads = 8 and store_per_thread = 100 in
  let store_reqs = store_threads * store_per_thread in
  let store_db =
    Moviedb.Datagen.generate
      (Moviedb.Datagen.scale ~seed:7 (min 300 scale.movies))
  in
  let bench_store shards =
    let module Core = Perso_server.Server_core.Make (Perso_server.Runtime.Threads) in
    let cfg =
      {
        (Perso_server.Server_core.default_config ~socket_path:"<bench>") with
        Perso_server.Server_core.workers = store_threads;
        queue_capacity = store_threads * 4;
        shards;
      }
    in
    let core = Core.create cfg store_db in
    let run tid =
      for i = 0 to store_per_thread - 1 do
        let user = Printf.sprintf "u%02d" (((tid * 7) + i) mod 32) in
        let cmd =
          if i land 1 = 0 then
            (* Degrees vary so every save is an effective mutation, not
               the identical-resave no-op. *)
            Perso_server.Protocol.Profile_save
              {
                user;
                entries =
                  Printf.sprintf "[ GENRE.genre = 'comedy', 0.%d ]"
                    (1 + ((tid + i) mod 9));
              }
          else Perso_server.Protocol.Profile_show user
        in
        ignore
          (Core.submit core Perso_server.Protocol.empty_header cmd
            : Perso_server.Server_core.reply)
      done
    in
    let _, ms =
      time (fun () ->
          let ts = List.init store_threads (fun tid -> Thread.create run tid) in
          List.iter Thread.join ts)
    in
    ignore (Core.stop core : Perso_server.Server_core.drain_outcome);
    ms
  in
  let store_results = List.map (fun s -> (s, bench_store s)) [ 1; 4; 8 ] in
  Printf.printf
    "\n## Sharded profile store — %d threads x %d requests (save/load mix)\n"
    store_threads store_per_thread;
  Printf.printf "%-10s %12s %12s\n" "shards" "ms_total" "req/s";
  List.iter
    (fun (s, ms) ->
      Printf.printf "%-10d %12.3f %12.0f\n%!" s ms
        (float_of_int store_reqs /. ms *. 1000.))
    store_results;
  let path =
    Option.value ~default:"BENCH_EXEC.json" (Sys.getenv_opt "BENCH_EXEC_OUT")
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"exec\",\n  \"scale\": %S,\n  \"reps\": %d,\n"
    scale.label reps;
  Printf.fprintf oc "  \"cores\": %d,\n" cores;
  Printf.fprintf oc "  \"figures\": [\n";
  List.iteri
    (fun i (name, n, ms, rows) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"queries\": %d, \"ms_total\": %.3f, \
         \"ms_per_query\": %.4f, \"rows\": %d}%s\n"
        name n ms
        (ms /. float_of_int (max 1 n))
        rows
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"parallel\": {\"figure\": %S, \"queries\": %d, \"domains\": [\n"
    par_figure (List.length par_qs);
  List.iteri
    (fun i (d, ms) ->
      Printf.fprintf oc
        "    {\"domains\": %d, \"ms_total\": %.3f, \"speedup\": %.3f}%s\n" d ms
        (par_base /. ms)
        (if i = List.length par_results - 1 then "" else ","))
    par_results;
  Printf.fprintf oc "  ]},\n";
  Printf.fprintf oc
    "  \"sharded_store\": {\"threads\": %d, \"requests\": %d, \"configs\": [\n"
    store_threads store_reqs;
  List.iteri
    (fun i (s, ms) ->
      Printf.fprintf oc
        "    {\"shards\": %d, \"ms_total\": %.3f, \"req_per_s\": %.0f}%s\n" s ms
        (float_of_int store_reqs /. ms *. 1000.)
        (if i = List.length store_results - 1 then "" else ","))
    store_results;
  Printf.fprintf oc "  ]},\n  \"total_ms\": %.3f\n}\n" total_ms;
  close_out oc;
  Printf.printf "# wrote %s (total %.3f ms)\n%!" path total_ms

(* --------------------------------------------------------------------- *)
(* Plan-cache benchmark — machine-readable (BENCH_PERSO.json)            *)
(* --------------------------------------------------------------------- *)

(* Cold / warm / edited personalization cost under a Zipf-skewed
   (user, query-template) workload.  Personalization only — no query
   execution — since the cache saves the pipeline, not the executor.
   Three passes over the same request sequence:

     cold         every request runs the full §4 pipeline, no cache
     warm         a primed {!Perso.Perso_cache}; every request hits
     invalidate   a primed cache, but every 10th request first retunes
                  one of that user's selections and saves it to
                  {!Perso.Profile_store} — the save drops the user's
                  cached plans, so consults after an edit recompute cold

   Writes BENCH_PERSO.json (override with BENCH_PERSO_OUT); `make check`
   gates on warm being >= 5x faster than cold. *)

let bench_perso () =
  let movies = min 1000 scale.movies in
  let pdb = Moviedb.Datagen.generate (Moviedb.Datagen.scale ~seed:7 movies) in
  let n_users = 8 and n_templates = 12 in
  let users = Array.init n_users (fun i -> Printf.sprintf "u%02d" i) in
  let profiles =
    Array.init n_users (fun i ->
        let p =
          Moviedb.Profile_gen.generate pdb
            {
              Moviedb.Profile_gen.default with
              seed = 900 + i;
              n_selections = 30;
            }
        in
        Profile_store.save pdb ~user:users.(i) p;
        ref p)
  in
  let templates =
    Array.of_list (Moviedb.Workload.queries pdb ~n:n_templates ~seed:210)
  in
  let n_req = 30 * n_users in
  let rng = Putil.Rng.create 4242 in
  let zu = Putil.Zipf.create ~n:n_users ~s:1.1 in
  let zt = Putil.Zipf.create ~n:n_templates ~s:1.1 in
  let reqs =
    List.init n_req (fun _ ->
        (Putil.Zipf.sample zu rng, Putil.Zipf.sample zt rng))
  in
  (* K above the profiles' related-path count, so selection emits every
     related path: the setting of every committed BENCH_PERSO.json. *)
  let params = { Personalize.default_params with k = Criteria.top_r 50 } in
  let pass ?cache ?erng ?(edit_every = 0) () =
    (* One sweep over [reqs]; returns total ms inside personalization. *)
    let i = ref 0 in
    List.fold_left
      (fun acc (u, t) ->
        incr i;
        (match erng with
        | Some erng when edit_every > 0 && !i mod edit_every = 0 -> (
            let p = profiles.(u) in
            match Profile.selections !p with
            | [] -> ()
            | sels ->
                let a, _ =
                  List.nth sels (Putil.Rng.int erng (List.length sels))
                in
                let d =
                  Degree.of_float
                    (Float.round ((0.3 +. Putil.Rng.float erng 0.7) *. 1000.)
                    /. 1000.)
                in
                p := Profile.add !p (Atom.Sel a) d;
                Profile_store.save pdb ~user:users.(u) !p)
        | _ -> ());
        let _, ms =
          time (fun () ->
              match cache with
              | None ->
                  ignore
                    (Personalize.personalize ~params pdb !(profiles.(u))
                       templates.(t)
                      : Personalize.outcome)
              | Some c ->
                  ignore
                    (Perso_cache.personalize c ~params ~user:users.(u)
                       !(profiles.(u)) templates.(t)
                      : Personalize.outcome * Perso_cache.source))
        in
        acc +. ms)
      0. reqs
  in
  (* Prime a fresh cache, then time one pass through it; returns
     (ms, hits, misses) of the timed pass. *)
  let cached ?erng ?edit_every () =
    let c = Perso_cache.create pdb in
    ignore (pass ~cache:c () : float) (* prime *);
    let st0 = Perso_cache.stats c in
    let ms = pass ~cache:c ?erng ?edit_every () in
    let st1 = Perso_cache.stats c in
    ( ms,
      st1.Perso_cache.hits - st0.Perso_cache.hits,
      st1.Perso_cache.misses - st0.Perso_cache.misses )
  in
  let ms_cold = pass () in
  let ms_warm, warm_hits, _ = cached () in
  let ms_inv, inv_hits, inv_cold =
    cached ~erng:(Putil.Rng.create 777) ~edit_every:10 ()
  in
  let per ms = ms /. float_of_int n_req in
  let speedup_warm = per ms_cold /. per ms_warm in
  Printf.printf
    "\n## Plan cache (%d movies, %d users x %d templates, %d requests, Zipf \
     s=1.1)\n"
    movies n_users n_templates n_req;
  Printf.printf "%-12s %12s %14s %30s\n" "mode" "ms_total" "ms_per_query"
    "served";
  Printf.printf "%-12s %12.3f %14.4f %30s\n" "cold" ms_cold (per ms_cold) "-";
  Printf.printf "%-12s %12.3f %14.4f %30s\n" "warm" ms_warm (per ms_warm)
    (Printf.sprintf "%d hits" warm_hits);
  Printf.printf "%-12s %12.3f %14.4f %30s\n" "invalidate" ms_inv (per ms_inv)
    (Printf.sprintf "%d hits, %d cold" inv_hits inv_cold);
  Printf.printf "# speedup: warm %.1fx vs cold\n%!" speedup_warm;
  let path =
    Option.value ~default:"BENCH_PERSO.json" (Sys.getenv_opt "BENCH_PERSO_OUT")
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"perso\",\n\
    \  \"scale\": %S,\n\
    \  \"movies\": %d,\n\
    \  \"users\": %d,\n\
    \  \"templates\": %d,\n\
    \  \"requests\": %d,\n\
    \  \"zipf_s\": 1.1,\n\
    \  \"modes\": [\n"
    scale.label movies n_users n_templates n_req;
  Printf.fprintf oc
    "    {\"name\": \"cold\", \"ms_total\": %.3f, \"ms_per_query\": %.4f},\n"
    ms_cold (per ms_cold);
  Printf.fprintf oc
    "    {\"name\": \"warm\", \"ms_total\": %.3f, \"ms_per_query\": %.4f, \
     \"hits\": %d},\n"
    ms_warm (per ms_warm) warm_hits;
  Printf.fprintf oc
    "    {\"name\": \"invalidate\", \"ms_total\": %.3f, \"ms_per_query\": \
     %.4f, \"hits\": %d, \"misses\": %d}\n"
    ms_inv (per ms_inv) inv_hits inv_cold;
  Printf.fprintf oc "  ],\n  \"speedup_warm\": %.2f\n}\n" speedup_warm;
  close_out oc;
  Printf.printf "# wrote %s\n%!" path

(* --------------------------------------------------------------------- *)
(* Durable store benchmark — machine-readable (BENCH_STORE.json)         *)
(* --------------------------------------------------------------------- *)

(* The I/O face of Figure 6: profile size drives record size, which
   drives save (WAL append + fsync) and point-load latency.  Also times
   what only a durable tier has — cold recovery (reopen replaying
   sealed segments + WAL) and compaction.  Writes BENCH_STORE.json
   (override with BENCH_STORE_OUT); `make check` validates it. *)
let bench_store () =
  let module Store = Perso_store.Store in
  Printf.printf "\n== store: durable profile tier (scale=%s) ==\n%!"
    scale.label;
  let movies = max 200 (scale.movies / 4) in
  let db = Moviedb.Datagen.(generate (Moviedb.Datagen.scale ~seed:3 movies)) in
  let sizes, users_per_size =
    match scale.label with
    | "quick" -> ([ 8; 32 ], 48)
    | "paper" -> ([ 8; 32; 128; 512 ], 256)
    | _ -> ([ 8; 32; 128 ], 96)
  in
  let dir = Filename.temp_file "bench_store" "" in
  Sys.remove dir;
  (* Small segments so the workload crosses rotation and compaction. *)
  let config =
    { Store.default_config with segment_bytes = 64 * 1024 }
  in
  let s = ref (Store.open_ ~config dir) in
  let rev = ref 0 in
  let rows =
    List.map
      (fun n_selections ->
        let entries =
          List.init users_per_size (fun i ->
              Perso.Profile_store.entries_of_profile
                (Moviedb.Profile_gen.generate db
                   { Moviedb.Profile_gen.default with seed = i; n_selections }))
        in
        let usernames =
          List.mapi (fun i _ -> Printf.sprintf "s%d-u%03d" n_selections i)
            entries
        in
        let (), save_ms =
          time (fun () ->
              List.iter2
                (fun user es ->
                  incr rev;
                  Store.save !s ~user ~revision:!rev es)
                usernames entries)
        in
        let (), load_ms =
          time (fun () ->
              List.iter
                (fun user -> ignore (Store.load !s ~user))
                usernames)
        in
        let ops = float_of_int users_per_size in
        Printf.printf
          "  size %3d: save %.3f ms/op (%.0f ops/s), load %.3f ms/op\n%!"
          n_selections (save_ms /. ops)
          (1000. /. (save_ms /. ops))
          (load_ms /. ops);
        (n_selections, save_ms /. ops, load_ms /. ops))
      sizes
  in
  let work = Store.stats !s in
  let appends = work.Store.appends in
  Store.close !s;
  let s', reopen_ms = time (fun () -> Store.open_ ~config dir) in
  s := s';
  let before = Store.stats !s in
  let (), compact_ms = time (fun () -> Store.compact_now !s) in
  let after = Store.stats !s in
  Printf.printf
    "  recovery: %d records replayed in %.1f ms; compaction %d -> %d \
     segments in %.1f ms\n%!"
    appends reopen_ms before.Store.segments after.Store.segments compact_ms;
  (* recovery of the compacted store *)
  Store.close !s;
  let s'', reopen2_ms = time (fun () -> Store.open_ ~config dir) in
  let live = (Store.stats s'').Store.live_users in
  Store.close s'';
  let path =
    Option.value ~default:"BENCH_STORE.json" (Sys.getenv_opt "BENCH_STORE_OUT")
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"store\",\n\
    \  \"scale\": %S,\n\
    \  \"movies\": %d,\n\
    \  \"users_per_size\": %d,\n\
    \  \"sizes\": [\n"
    scale.label movies users_per_size;
  List.iteri
    (fun i (n, save_ms, load_ms) ->
      Printf.fprintf oc
        "    {\"selections\": %d, \"save_ms_per_op\": %.4f, \
         \"load_ms_per_op\": %.4f}%s\n"
        n save_ms load_ms
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n\
    \  \"workload\": {\"appends\": %d, \"rotations\": %d, \
     \"compactions\": %d},\n\
    \  \"recovery\": {\"records\": %d, \"reopen_ms\": %.3f, \
     \"reopen_compacted_ms\": %.3f, \"live_users\": %d},\n\
    \  \"compaction\": {\"segments_before\": %d, \"segments_after\": %d, \
     \"ms\": %.3f}\n\
     }\n"
    appends work.Store.rotations work.Store.compactions appends reopen_ms
    reopen2_ms live before.Store.segments after.Store.segments compact_ms;
  close_out oc;
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  Printf.printf "# wrote %s\n%!" path

(* --------------------------------------------------------------------- *)
(* Serve-path benchmark — machine-readable (BENCH_SERVE.json)            *)
(* --------------------------------------------------------------------- *)

(* End-to-end: a real [perso_cli serve]-shaped server (socket and all,
   thread-per-connection), driven by {!Perso_server.Loadgen}'s open-loop
   Poisson arrivals with Zipf-skewed users.  Latency quantiles come from
   the mergeable log-bucketed histogram; every client-side tally is
   cross-checked against the server's own HEALTH ledger delta, so a
   dropped or double-counted request anywhere on the serve path fails
   the ledger_balanced gate in `make check`.

   The load generator's client threads share the host's cores with the
   server, so the JSON records the core count and `make check` gates
   only on sanity (ledger balance, quantile monotonicity), never
   absolute numbers.  Writes BENCH_SERVE.json; override with
   BENCH_SERVE_OUT. *)

let bench_serve () =
  let open Perso_server in
  let rate, requests, clients, users =
    match scale.label with
    | "quick" -> (300., 600, 4, 50)
    | "paper" -> (800., 10_000, 8, 200)
    | _ -> (400., 2_000, 4, 100)
  in
  let movies = min 500 scale.movies in
  let sdb = Moviedb.Datagen.generate (Moviedb.Datagen.scale ~seed:11 movies) in
  let sqls =
    Moviedb.Workload.queries sdb ~n:6 ~seed:77
    |> List.map Relal.Sql_print.query_to_string
    |> Array.of_list
  in
  (* Wire-format profile entry lists (one line) for PROFILE SAVE. *)
  let profile_wires =
    Array.init 4 (fun i ->
        Moviedb.Profile_gen.generate sdb
          { Moviedb.Profile_gen.default with seed = 50 + i; n_selections = 15 }
        |> Perso.Profile.to_string
        |> String.split_on_char '\n'
        |> List.map String.trim
        |> List.filter (fun l -> l <> "")
        |> String.concat " ")
  in
  let health_of c =
    match Client.request c "HEALTH" with
    | Ok (Protocol.Stats kvs) -> kvs
    | _ -> failwith "bench serve: HEALTH request failed"
  in
  let stat kvs k =
    match List.assoc_opt k kvs with
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> 0)
    | None -> 0
  in
  let io = "threads" in
  let run () =
    let socket_path = Filename.temp_file "bench_serve" ".sock" in
    Sys.remove socket_path;
    let cfg =
      {
        (Server.default_config ~socket_path) with
        Server.workers = 4;
        queue_capacity = 64;
        shards = 4;
        deadline_ms = None;
      }
    in
    let t = Server.start cfg sdb in
    Fun.protect
      ~finally:(fun () -> ignore (Server.stop t : Server.drain_outcome))
      (fun () ->
        (* Preseed every user's profile so PERSONALIZE and PROFILE LOAD
           hit real data, then snapshot the ledger: the benchmark is
           reconciled against the delta, not absolute counters. *)
        let c = Client.connect ~wait_ms:5_000. socket_path in
        for u = 0 to users - 1 do
          match
            Client.request c
              (Printf.sprintf "PROFILE SAVE u%d %s" u
                 profile_wires.(u mod Array.length profile_wires))
          with
          | Ok (Protocol.Message _) -> ()
          | _ -> failwith "bench serve: preseed save failed"
        done;
        let h0 = health_of c in
        Client.close c;
        let lcfg =
          {
            (Loadgen.default_config ~socket_path) with
            Loadgen.rate;
            requests;
            clients;
            users;
            seed = 1234;
          }
        in
        let r =
          match Loadgen.run lcfg ~sqls ~profiles:profile_wires with
          | Ok r -> r
          | Error e -> failwith ("bench serve: " ^ Perso.Error.to_string e)
        in
        let c = Client.connect ~wait_ms:5_000. socket_path in
        let h1 = health_of c in
        Client.close c;
        let d k = stat h1 k - stat h0 k in
        (* Client tallies vs the server's ledger delta.  HEALTH probes
           are control-plane (answered off-queue), hence data_sent;
           shed_breaker replies are errors the server also counts in
           completed_err, hence the subtraction. *)
        let shed_total =
          d "shed_queue_full" + d "shed_expired" + d "shed_draining"
          + d "shed_breaker"
        in
        let checks =
          [
            ("ok = completed_ok", r.Loadgen.ok, d "completed_ok");
            ("overloaded = sheds", r.Loadgen.err_overloaded, shed_total);
            ( "err_other = completed_err - shed_breaker",
              r.Loadgen.err_other,
              d "completed_err" - d "shed_breaker" );
            ( "data_sent = accepted + pre-admission sheds",
              r.Loadgen.data_sent,
              d "accepted" + d "shed_queue_full" + d "shed_draining" );
            ("hist count = sent", Putil.Histogram.count r.Loadgen.hist,
              r.Loadgen.sent);
            ("no transport errors", r.Loadgen.err_transport, 0);
          ]
        in
        let balanced =
          List.for_all
            (fun (what, got, want) ->
              if got <> want then
                Printf.printf "# LEDGER MISMATCH (%s): %s: client %d vs server %d\n%!"
                  io what got want;
              got = want)
            checks
        in
        let q p = Putil.Histogram.quantile r.Loadgen.hist p in
        let row =
          Printf.sprintf
            "    {\"io\": %S, \"req_per_s\": %.1f, \"elapsed_s\": %.3f, \
             \"sent\": %d, \"ok\": %d, \"ok_health\": %d, \
             \"err_overloaded\": %d, \"err_other\": %d, \
             \"err_transport\": %d, \"p50_us\": %d, \"p99_us\": %d, \
             \"p999_us\": %d, \"max_us\": %d, \"mean_us\": %.1f, \
             \"shed_queue_full\": %d, \"shed_expired\": %d, \
             \"shed_draining\": %d, \"shed_breaker\": %d, \
             \"ledger_balanced\": %b}"
            io
            (float_of_int r.Loadgen.sent /. r.Loadgen.elapsed_s)
            r.Loadgen.elapsed_s r.Loadgen.sent r.Loadgen.ok
            r.Loadgen.ok_health r.Loadgen.err_overloaded r.Loadgen.err_other
            r.Loadgen.err_transport (q 0.50) (q 0.99) (q 0.999)
            (Putil.Histogram.max_value r.Loadgen.hist)
            (Putil.Histogram.mean r.Loadgen.hist)
            (d "shed_queue_full") (d "shed_expired") (d "shed_draining")
            (d "shed_breaker") balanced
        in
        Printf.printf
          "%-8s %9.1f %9.1f %9.3f %9.3f %9.3f %6d %6d %6s\n%!" io rate
          (float_of_int r.Loadgen.sent /. r.Loadgen.elapsed_s)
          (float_of_int (q 0.50) /. 1e3)
          (float_of_int (q 0.99) /. 1e3)
          (float_of_int (q 0.999) /. 1e3)
          r.Loadgen.ok r.Loadgen.err_overloaded
          (if balanced then "yes" else "NO");
        row)
  in
  Printf.printf
    "\n\
     ## Serve benchmark — open-loop Poisson @ %.0f req/s, %d requests, %d \
     clients, %d Zipf users\n"
    rate requests clients users;
  Printf.printf "%-8s %9s %9s %9s %9s %9s %6s %6s %6s\n" "io" "offered"
    "achieved" "p50_ms" "p99_ms" "p999_ms" "ok" "shed" "ledger";
  let row = run () in
  let path =
    Option.value ~default:"BENCH_SERVE.json" (Sys.getenv_opt "BENCH_SERVE_OUT")
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"serve\",\n\
    \  \"scale\": %S,\n\
    \  \"cores\": %d,\n\
    \  \"movies\": %d,\n\
    \  \"rate\": %.1f,\n\
    \  \"requests\": %d,\n\
    \  \"clients\": %d,\n\
    \  \"users\": %d,\n\
    \  \"zipf_s\": 1.1,\n\
    \  \"runtimes\": [\n%s\n  ]\n\
     }\n"
    scale.label
    (Domain.recommended_domain_count ())
    movies rate requests clients users
    row;
  close_out oc;
  Printf.printf "# wrote %s\n%!" path

(* --------------------------------------------------------------------- *)
(* Driver                                                                *)
(* --------------------------------------------------------------------- *)

let all_figs =
  [
    ("fig6", fig6); ("fig7a", fig7a); ("fig7b", fig7b); ("fig7c", fig7c);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("exec", bench_exec);
    ("perso", bench_perso); ("kernels", kernels);
    ("ablation-funcs", ablation_funcs); ("ablation-topn", ablation_topn);
    ("ablation-index", ablation_index); ("ablation-planner", ablation_planner);
    ("store", bench_store); ("serve", bench_serve);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all_figs
  in
  let t0 = now_ms () in
  List.iter
    (fun name ->
      match List.assoc_opt name all_figs with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown figure %s (have: %s)\n" name
            (String.concat ", " (List.map fst all_figs)))
    requested;
  Printf.printf "\n# total bench time: %.1f s\n" ((now_ms () -. t0) /. 1000.)
