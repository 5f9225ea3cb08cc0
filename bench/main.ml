(* Benchmark harness: regenerates every figure of the paper's evaluation
   (§7) on the synthetic movie database, and runs Bechamel micro-bench
   kernels for the timed inner loops (one Test.make per figure).

   Usage:
     dune exec bench/main.exe                 # all figures + kernels
     dune exec bench/main.exe -- fig6 fig8    # a subset; an unknown name exits 2
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

(* Words [f ()] allocates: minor-heap words plus blocks allocated
   directly in the major heap (too large for the minor one); a promotion
   is not an allocation.  Unlike a time, the count is the same on every
   run of one build, so it ranks two builds on a host whose clock
   drifts.  The minor count comes from [Gc.minor_words], because the one
   [Gc.counters] returns moves by whole minor heaps under OCaml 5. *)
let allocated_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let avg = function
  | [] -> Float.nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let pct x = 100. *. x

(* The checkout's [git describe --always --dirty], the [commit] of a
   committed BENCH_*.json header; "unknown" outside a git checkout. *)
let commit () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, l when l <> "" -> l
      | _ -> "unknown")

(* The header every BENCH_*.json opens with: the benchmark, and the
   commit, core count and scale its figures were taken at. *)
let json_header oc bench =
  Printf.fprintf oc
    "{\n  \"bench\": %S,\n  \"commit\": %S,\n  \"cores\": %d,\n\
    \  \"scale\": %S,\n"
    bench (commit ())
    (Domain.recommended_domain_count ())
    scale.label

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
  w_exec : float;  (** words the execution allocates *)
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
  (* Integration builds a bound query; the server runs it as built. *)
  let (res, t_exec), w_exec =
    allocated_words (fun () -> time (fun () -> Relal.Exec.run db q'))
  in
  {
    t_select;
    t_integrate;
    t_exec;
    w_exec;
    n_selected = List.length selected;
    rows = List.length res.Relal.Exec.rows;
  }

(* Figures 6 and 8–10 and [bench exec] time each cell as one untimed
   warm-up sample, then the median of [cell_reps] timed samples (phase
   by phase in Figures 8–10): a single sample moves by up to 2x with
   where a GC slice lands. *)
let cell_reps = 9

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let timed_cell f =
  ignore (f ());
  List.init cell_reps (fun _ -> f ())

let run_cell ?method_ ~k ~l db profile query =
  let runs = timed_cell (fun () -> run_one ?method_ ~k ~l db profile query) in
  let med f = median (List.map f runs) in
  {
    (List.hd runs) with
    t_select = med (fun r -> r.t_select);
    t_integrate = med (fun r -> r.t_integrate);
    t_exec = med (fun r -> r.t_exec);
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
     ## avg over %d profiles x %d queries, each the median of %d batches of \
     20 calls; M=0\n"
    scale.profiles scale.queries cell_reps;
  Printf.printf "%-13s %10s %10s %10s\n" "profile_size" "K=5" "K=10" "K=15";
  List.iter
    (fun size ->
      let profiles = profiles_for ~seed0:(1000 + size) ~size scale.profiles in
      let cells =
        List.map
          (fun k ->
            (* Profile generation and the previous cell leave major-GC
               work pending; finish it here, not inside this cell. *)
            Gc.full_major ();
            let samples =
              List.concat_map
                (fun profile ->
                  List.map
                    (fun q ->
                      let bound = Relal.Binder.bind db q in
                      let qg = Qgraph.of_query db bound in
                      let g = Pgraph.of_profile profile in
                      (* One call takes about 10 us, near the clock's and
                         the GC's noise, so each timed sample is a batch
                         of [reps] calls. *)
                      let reps = 20 in
                      median
                        (timed_cell (fun () ->
                             snd
                               (time (fun () ->
                                    for _ = 1 to reps do
                                      ignore
                                        (Select.select db g qg
                                           (Criteria.Top_r k))
                                    done))
                             /. float_of_int reps)))
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
  Gc.full_major ();
  let samples method_ =
    List.concat_map
      (fun profile ->
        List.map (fun q -> run_cell ~method_ ~k ~l db profile q) queries)
      profiles
  in
  let sq = samples `SQ and mq = samples `MQ in
  let mean rs f = avg (List.map f rs) in
  ( mean sq (fun r -> r.t_integrate),
    mean mq (fun r -> r.t_integrate),
    mean sq (fun r -> r.t_exec),
    mean mq (fun r -> r.t_exec),
    mean sq (fun r -> r.w_exec),
    mean mq (fun r -> r.w_exec) )

(* Figures 8 and 9 print the same columns: integration and execution
   times, and the words execution allocates per query. *)
let sq_mq_header x =
  Printf.printf "%-6s %12s %12s %12s %12s %10s %10s\n" x "SQ_integr" "MQ_integr"
    "SQ_exec" "MQ_exec" "SQ_words" "MQ_words"

let sq_mq_row x (si, mi, se, me, sw, mw) =
  Printf.printf "%-6d %12.4f %12.4f %12.3f %12.3f %10.0f %10.0f\n%!" x si mi se me sw
    mw

let fig8 () =
  Printf.printf
    "\n## Figure 8 — SQ vs MQ, integration and execution times (ms) vs K (L=1, M=0)\n";
  sq_mq_header "K";
  List.iter
    (fun k -> sq_mq_row k (sq_mq_point ~k ~l:1 ~size:70 ~seed0:600))
    [ 0; 5; 10; 20; 30; 40; 50; 60 ]

let fig9 () =
  Printf.printf
    "\n## Figure 9 — SQ vs MQ, integration and execution times (ms) vs L (K=10, M=0)\n";
  sq_mq_header "L";
  List.iter
    (fun l -> sq_mq_row l (sq_mq_point ~k:10 ~l ~size:20 ~seed0:700))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

(* --------------------------------------------------------------------- *)
(* Figure 10: performance of personalization (MQ)                        *)
(* --------------------------------------------------------------------- *)

let fig10_point ~k ~l ~size ~seed0 =
  let db = Lazy.force db in
  let queries = queries_for 204 scale.queries in
  let profiles = profiles_for ~seed0 ~size scale.profiles in
  Gc.full_major ();
  let samples =
    List.concat_map
      (fun profile ->
        List.map
          (fun q ->
            let t_initial =
              median
                (timed_cell (fun () -> snd (time (fun () -> Relal.Engine.run_query db q))))
            in
            let r = run_cell ~method_:`MQ ~k ~l db profile q in
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
  (* K = 60 on a 100-selection profile, rewrite-large's largest K. *)
  let g_large = Pgraph.of_profile (profile_for ~seed:9002 ~size:100) in
  let insts_large =
    Integrate.instantiate db qg (Select.select db g_large qg (Criteria.Top_r 60))
  in
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
        (Staged.stage (fun () -> Relal.Exec.run db mq));
      (* Figure 8 kernels: the two integration methods. *)
      Test.make ~name:"fig8/integrate-sq-K10-L1"
        (Staged.stage (fun () ->
             Integrate.sq db qg ~mandatory:[] ~optional:insts ~l:1));
      Test.make ~name:"fig8/integrate-mq-K10-L1"
        (Staged.stage (fun () ->
             Integrate.mq ~rank:false db qg ~mandatory:[] ~optional:insts
               ~l:(`At_least 1) ()));
      (* The same at K = 60: how integration cost grows with K. *)
      Test.make ~name:"fig8/integrate-sq-K60-L1"
        (Staged.stage (fun () ->
             Integrate.sq db qg ~mandatory:[] ~optional:insts_large ~l:1));
      Test.make ~name:"fig8/integrate-mq-K60-L1"
        (Staged.stage (fun () ->
             Integrate.mq ~rank:false db qg ~mandatory:[] ~optional:insts_large
               ~l:(`At_least 1) ()));
      (* Figure 9 kernel: SQ's combination blow-up at L=5 (C(10,5)=252). *)
      Test.make ~name:"fig9/integrate-sq-K10-L5"
        (Staged.stage (fun () ->
             Integrate.sq db qg ~mandatory:[] ~optional:insts_small ~l:5));
      (* Figure 9 execution kernel: the SQ query itself. *)
      Test.make ~name:"fig9/exec-sq-K10-L1"
        (Staged.stage (fun () -> Relal.Exec.run db sq));
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
          let res = Relal.Exec.run db q' in
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

(* Ablation 2: index access paths (index-equality materialization +
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

(* --------------------------------------------------------------------- *)
(* Executor benchmark — machine-readable baseline (BENCH_EXEC.json)      *)
(* --------------------------------------------------------------------- *)

(* Times the relational executor alone (queries pre-built outside the
   timed region) on the §7 figure workloads, and writes per-figure
   timings and allocated words per query to BENCH_EXEC.json so perf PRs
   are judged against recorded numbers rather than folklore.  Override
   the output path with BENCH_EXEC_OUT.  Except at quick scale, a timed
   sample repeats the figure's pass until it lasts [min_sample_ms]: a
   pass of 20 ms spreads by a quarter between runs on a shared host, far
   more than two builds differ by. *)

let min_sample_ms = 100.

(* One figure's [pass]: the words it allocates, and the median of
   [cell_reps] timed samples after a warm-up pass, a sample repeating
   the pass to last [min_sample_ms] except at quick scale.  Returns the
   warm-up pass's result, the repeats, the ms per pass and the words. *)
let measure_pass pass =
  (* Building the inputs and the previous figure leave major-GC work
     pending; finish it before this figure's passes. *)
  Gc.full_major ();
  let r, warm_ms = time pass in
  let repeats =
    if scale.label = "quick" then 1
    else max 1 (int_of_float (Float.ceil (min_sample_ms /. warm_ms)))
  in
  let _, words = allocated_words pass in
  let ms =
    median
      (List.init cell_reps (fun _ ->
           let (), ms =
             time (fun () ->
                 for _ = 1 to repeats do
                   ignore (pass ())
                 done)
           in
           ms /. float_of_int repeats))
  in
  (r, repeats, ms, words)

(* SQ integration alone ([Integrate.sq] on instantiated preferences) at
   three (K, L) points over the 200-selection profiles and the workload
   queries: ms and words per call, and how many calls were refused
   ([Governor.Exhausted]) or found every combination conflicting. *)
let sq_integrate_points db =
  let queries = queries_for 210 scale.queries in
  let profiles = profiles_for ~seed0:600 ~size:200 scale.profiles in
  List.map
    (fun (k, l) ->
      let calls =
        List.concat_map
          (fun profile ->
            let g = Pgraph.of_profile profile in
            List.map
              (fun q ->
                let qg = Qgraph.of_query db (Relal.Binder.bind db q) in
                let insts =
                  Integrate.instantiate db qg (Select.select db g qg (Criteria.Top_r k))
                in
                (qg, insts, min l (List.length insts)))
              queries)
          profiles
      in
      let pass () =
        List.fold_left
          (fun (refused, conflicting) (qg, optional, l) ->
            match Integrate.sq db qg ~mandatory:[] ~optional ~l with
            | { Relal.Sql_ast.where = Relal.Sql_ast.P_false; _ } -> (refused, conflicting + 1)
            | _ -> (refused, conflicting)
            | exception Relal.Governor.Exhausted _ -> (refused + 1, conflicting))
          (0, 0) calls
      in
      let (refused, conflicting), _, ms, words = measure_pass pass in
      let n = float_of_int (max 1 (List.length calls)) in
      (k, l, List.length calls, ms /. n, words /. n, refused, conflicting))
    [ (20, 3); (30, 3); (40, 4) ]

(* Three joins through [Exec.run], each query bound once: ns per probe
   row (the call's time over its probe side's rows) and words per call.
   - [inlj_directed_movie]: every [directed] row (2,000 at default
     scale) probes [movie.mid]'s index;
   - [hash_int_cast_movie]: on an unindexed copy of the catalog, the
     [cast] rows of one role, a table of their own so that no filter
     runs in the call, are the build side of a hash join that every
     movie probes on the int [mid];
   - [hash_str_cast_movie]: the same shape with both [mid] columns
     stored as strings, which hash: the control that value-indexed
     chains leave alone. *)
let join_kernels () =
  let open Relal in
  let indexed = Lazy.force db in
  let plain =
    Moviedb.Datagen.generate ~index:false (Moviedb.Datagen.scale ~seed:42 scale.movies)
  in
  let add name cols rows =
    Database.add_table plain (Schema.make ~name ~cols ());
    List.iter (fun row -> Table.insert (Database.table plain name) row) rows
  in
  let lead =
    List.filter
      (fun row -> Value.equal row.(3) (Value.Str "lead"))
      (Table.to_list (Database.table plain "cast"))
  in
  let movies = Table.to_list (Database.table plain "movie") in
  let str = function Value.Int i -> Value.Str (string_of_int i) | v -> v in
  add "lead_cast" [ ("mid", Value.TInt) ] (List.map (fun row -> [| row.(0) |]) lead);
  add "lead_cast_s" [ ("mid", Value.TStr) ] (List.map (fun row -> [| str row.(0) |]) lead);
  add "movie_s"
    [ ("mid", Value.TStr); ("year", Value.TInt) ]
    (List.map (fun row -> [| str row.(0); row.(2) |]) movies);
  List.map
    (fun (name, db, probe_table, sql) ->
      let q = Binder.bind db (Sql_parser.parse sql) in
      let pass () = List.length (Exec.run db q).Exec.rows in
      let rows, _, ms, words = measure_pass pass in
      let probes = Table.cardinality (Database.table db probe_table) in
      (name, probes, rows, ms *. 1e6 /. float_of_int (max 1 probes), words))
    [
      ( "inlj_directed_movie",
        indexed,
        "directed",
        "select m.year from directed d, movie m where d.mid = m.mid" );
      ( "hash_int_cast_movie",
        plain,
        "movie",
        "select m.year from lead_cast c, movie m where c.mid = m.mid" );
      ( "hash_str_cast_movie",
        plain,
        "movie_s",
        "select m.year from lead_cast_s c, movie_s m where c.mid = m.mid" );
    ]

let bench_exec () =
  let db = Lazy.force db in
  let personalized ~method_ ~k ~l ~size ~seed0 =
    let queries = queries_for 210 scale.queries in
    let profiles = profiles_for ~seed0 ~size scale.profiles in
    List.concat_map
      (fun profile ->
        List.map
          (fun q ->
            let bound = Relal.Binder.bind db q in
            let qg = Qgraph.of_query db bound in
            let g = Pgraph.of_profile profile in
            let selected = Select.select db g qg (Criteria.Top_r k) in
            let insts = Integrate.instantiate db qg selected in
            let l = min l (List.length insts) in
            match method_ with
            | `SQ -> Integrate.sq db qg ~mandatory:[] ~optional:insts ~l
            | `MQ ->
                Integrate.mq ~rank:false db qg ~mandatory:[] ~optional:insts
                  ~l:(`At_least l) ())
          queries)
      profiles
  in
  let served queries =
    List.concat_map
      (fun profile ->
        List.map (fun q -> (Personalize.personalize db profile q).personalized) queries)
      (profiles_for ~seed0:700 ~size:20 scale.profiles)
  in
  let pins_projection (q : Relal.Sql_ast.query) =
    let open Relal.Sql_ast in
    List.for_all
      (function
        | Sel_attr (a, _) ->
            List.exists
              (function
                | P_cmp (Eq, S_attr b, S_const _) | P_cmp (Eq, S_const _, S_attr b) ->
                    a.col = b.col && String.lowercase_ascii a.tv = String.lowercase_ascii b.tv
                | _ -> false)
              (conjuncts q.where)
        | _ -> true)
      q.select
  in
  (* A plain query is bound and run, as RUN does; a personalized one
     runs as integration built it, as PERSONALIZE does. *)
  let built = Relal.Exec.run db in
  let figures =
    [
      (* Multi-join SPJ workload, no personalization: the raw executor. *)
      ("workload_spj", Relal.Engine.run_query db, queries_for 210 (4 * scale.queries));
      (* §7 figure workloads: MQ/SQ personalized queries. *)
      ("fig7_mq_k10_l1", built, personalized ~method_:`MQ ~k:10 ~l:1 ~size:70 ~seed0:600);
      ("fig7_mq_k30_l1", built, personalized ~method_:`MQ ~k:30 ~l:1 ~size:70 ~seed0:600);
      ("fig7_mq_k60_l1", built, personalized ~method_:`MQ ~k:60 ~l:1 ~size:70 ~seed0:600);
      ("fig8_sq_k10_l1", built, personalized ~method_:`SQ ~k:10 ~l:1 ~size:70 ~seed0:600);
      ("fig9_mq_k10_l5", built, personalized ~method_:`MQ ~k:10 ~l:5 ~size:20 ~seed0:700);
      (* The served shape: every served PERSONALIZE runs
         [Personalize.default_params], ranked MQ at K = 5 and L = 1. *)
      ("served_mq_k5", built, served (queries_for 210 scale.queries));
      (* The same over queries whose own WHERE pins their projection
         ([select genre.genre from genre where genre.genre = 'drama']):
         every partial has at most one row. *)
      ( "served_mq_k5_pinned",
        built,
        served
          (List.filteri
             (fun i _ -> i < scale.queries)
             (List.filter pins_projection (queries_for 210 (100 * scale.queries)))) );
    ]
  in
  Printf.printf
    "\n## Executor benchmark (median of %d samples after a warm-up pass; a \
     sample repeats the pass to last %.0f ms, except at quick scale; queries \
     pre-built)\n"
    cell_reps min_sample_ms;
  Printf.printf "%-20s %8s %8s %12s %14s %10s %16s\n" "figure" "queries" "repeats"
    "ms_total" "ms_per_query" "rows" "words_per_query";
  let results =
    List.map
      (fun (name, run, qs) ->
        let run_all () =
          List.fold_left (fun acc q -> acc + List.length (run q).Relal.Exec.rows) 0 qs
        in
        let rows, repeats, ms, words = measure_pass run_all in
        let n = List.length qs in
        let per_query x = x /. float_of_int (max 1 n) in
        let wpq = per_query words in
        Printf.printf "%-20s %8d %8d %12.3f %14.4f %10d %16.0f\n%!" name n repeats
          ms (per_query ms) rows wpq;
        (name, n, repeats, ms, rows, wpq))
      figures
  in
  let total_ms = List.fold_left (fun a (_, _, _, ms, _, _) -> a +. ms) 0. results in
  let kernels = join_kernels () in
  Printf.printf "\n## Join kernels (Exec.run, one query bound once)\n";
  Printf.printf "%-22s %10s %8s %18s %14s\n" "join" "probe_rows" "rows"
    "ns_per_probe_row" "words_per_call";
  List.iter
    (fun (name, probes, rows, ns, words) ->
      Printf.printf "%-22s %10d %8d %18.1f %14.0f\n%!" name probes rows ns words)
    kernels;
  let sq_points = sq_integrate_points db in
  Printf.printf
    "\n## SQ integration (Integrate.sq alone; %d profiles of 200 selections x %d queries)\n"
    scale.profiles scale.queries;
  Printf.printf "%-4s %-4s %8s %12s %14s %8s %12s\n" "K" "L" "calls" "ms_per_call"
    "words_per_call" "refused" "conflicting";
  List.iter
    (fun (k, l, calls, ms, words, refused, conflicting) ->
      Printf.printf "%-4d %-4d %8d %12.4f %14.0f %8d %12d\n%!" k l calls ms words refused
        conflicting)
    sq_points;
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
  json_header oc "exec";
  Printf.fprintf oc "  \"reps\": %d,\n" cell_reps;
  Printf.fprintf oc "  \"figures\": [\n";
  List.iteri
    (fun i (name, n, repeats, ms, rows, wpq) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"queries\": %d, \"repeats\": %d, \"ms_total\": \
         %.3f, \"ms_per_query\": %.4f, \"rows\": %d, \"words_per_query\": %.0f}%s\n"
        name n repeats ms
        (ms /. float_of_int (max 1 n))
        rows wpq
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ],\n";
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
  Printf.fprintf oc "  ]},\n";
  Printf.fprintf oc "  \"join_kernels\": [\n";
  List.iteri
    (fun i (name, probes, rows, ns, words) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"probe_rows\": %d, \"rows\": %d, \"ns_per_probe_row\": \
         %.1f, \"words_per_call\": %.0f}%s\n"
        name probes rows ns words
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"sq_integrate\": {\"profiles\": %d, \"queries\": %d, \"points\": [\n"
    scale.profiles scale.queries;
  List.iteri
    (fun i (k, l, calls, ms, words, refused, conflicting) ->
      Printf.fprintf oc
        "    {\"k\": %d, \"l\": %d, \"calls\": %d, \"ms_per_call\": %.4f, \
         \"words_per_call\": %.0f, \"refused\": %d, \"all_conflicting\": %d}%s\n"
        k l calls ms words refused conflicting
        (if i = List.length sq_points - 1 then "" else ","))
    sq_points;
  Printf.fprintf oc "  ]},\n  \"total_ms\": %.3f\n}\n" total_ms;
  close_out oc;
  Printf.printf "# wrote %s (total %.3f ms)\n%!" path total_ms

(* The cost of a parsed-profile LRU miss on the serve path: the user's
   stored rows decoded into a profile ([Profile_store.load_r]), then its
   personalization graph built by the first selection
   ([Pgraph.of_profile]).  cold-users' shape: profiles of 30 selections
   and all 14 directed joins, 44 rows each, over the 2,000-movie
   catalog.  Each round loads every user once; µs and words per miss
   are the medians of 9 rounds (words are the same every round). *)
let profile_miss () =
  let db = Moviedb.Datagen.generate (Moviedb.Datagen.scale ~seed:11 2_000) in
  let users =
    Array.init
      (if scale.label = "quick" then 200 else 2_000)
      (fun u -> Printf.sprintf "u%04d" u)
  in
  Array.iteri
    (fun u user ->
      Profile_store.save db ~user
        (Moviedb.Profile_gen.generate db
           {
             Moviedb.Profile_gen.default with
             seed = 23 * 100_003 + u;
             n_selections = 30;
           }))
    users;
  let rows =
    Relal.Table.cardinality
      (Relal.Database.table db Profile_store.table_name)
  in
  let miss user =
    match Profile_store.load_r db ~user with
    | Ok p -> ignore (Pgraph.of_profile p : Pgraph.t)
    | Error e -> failwith (Error.to_string e)
  in
  let round () =
    Gc.full_major ();
    let ((), ms), words =
      allocated_words (fun () -> time (fun () -> Array.iter miss users))
    in
    (ms, words)
  in
  let rounds = List.init 9 (fun _ -> round ()) in
  let per x = x /. float_of_int (Array.length users) in
  ( Array.length users,
    rows,
    per (median (List.map fst rounds)) *. 1000.,
    per (median (List.map snd rounds)) )

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

   Every timed pass starts from a full major collection, and warm, a few
   ms in all, is the median of 9 passes, so [speedup_warm] follows the
   cache and not where a GC slice lands.

   Then the cost of a profile-LRU miss ([profile_miss], above).  Writes
   BENCH_PERSO.json (override with BENCH_PERSO_OUT); `make check` gates
   on warm being >= 5x faster than cold, and on positive [profile_miss]
   figures. *)

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
    (* One sweep over [reqs]; returns total ms inside personalization.
       A full major collection first, so no pass pays for the garbage
       the one before it left. *)
    Gc.full_major ();
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
  (* Prime a fresh cache, then time [passes] passes through it; returns
     (ms, hits, misses) of the pass of median time. *)
  let cached ?erng ?edit_every ?(passes = 1) () =
    let c = Perso_cache.create pdb in
    ignore (pass ~cache:c () : float) (* prime *);
    let timed () =
      let st0 = Perso_cache.stats c in
      let ms = pass ~cache:c ?erng ?edit_every () in
      let st1 = Perso_cache.stats c in
      ( ms,
        st1.Perso_cache.hits - st0.Perso_cache.hits,
        st1.Perso_cache.misses - st0.Perso_cache.misses )
    in
    let runs =
      List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
        (List.init passes (fun _ -> timed ()))
    in
    List.nth runs (passes / 2)
  in
  let ms_cold = pass () in
  (* The warm pass is a few ms in all: the median of 9. *)
  let ms_warm, warm_hits, _ = cached ~passes:9 () in
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
  let miss_users, miss_rows, us_per_miss, words_per_miss = profile_miss () in
  Printf.printf
    "\n## Profile-LRU miss (%d users, %d rows: load_r + Pgraph.of_profile)\n\
     us_per_miss %.2f  words_per_miss %.0f\n%!"
    miss_users miss_rows us_per_miss words_per_miss;
  let path =
    Option.value ~default:"BENCH_PERSO.json" (Sys.getenv_opt "BENCH_PERSO_OUT")
  in
  let oc = open_out path in
  json_header oc "perso";
  Printf.fprintf oc
    "  \"movies\": %d,\n\
    \  \"users\": %d,\n\
    \  \"templates\": %d,\n\
    \  \"requests\": %d,\n\
    \  \"zipf_s\": 1.1,\n\
    \  \"modes\": [\n"
    movies n_users n_templates n_req;
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
  Printf.fprintf oc "  ],\n  \"speedup_warm\": %.2f,\n" speedup_warm;
  Printf.fprintf oc
    "  \"profile_miss\": {\"movies\": 2000, \"users\": %d, \"rows\": %d, \
     \"us_per_miss\": %.3f, \"words_per_miss\": %.1f}\n}\n"
    miss_users miss_rows us_per_miss words_per_miss;
  close_out oc;
  Printf.printf "# wrote %s\n%!" path

(* --------------------------------------------------------------------- *)
(* Durable store benchmark — machine-readable (BENCH_STORE.json)         *)
(* --------------------------------------------------------------------- *)

(* A server root's first open on edit-churn's shape: 500 users with
   30-selection profiles over the 2,000-movie catalog (seed 11), on 4
   shards (fewer users and movies at quick scale).  The CPU ms of
   [Sharded_store.create] on a fresh root, which exports every profile,
   and of its reopen, which recovers them: medians over [runs] rounds,
   each a fresh root made and then reopened. *)
let root_open () =
  let module Shards = Perso_server.Sharded_store.Make (Perso_server.Runtime.Threads) in
  let users, movies, runs =
    if scale.label = "quick" then (100, 300, 3) else (500, 2_000, 7)
  in
  let selections = 30 and shards = 4 in
  let db = Moviedb.Datagen.(generate (scale ~seed:11 movies)) in
  Perso.Profile_store.install db;
  let t = Relal.Database.table db Perso.Profile_store.table_name in
  for u = 0 to users - 1 do
    let p =
      Moviedb.Profile_gen.generate db
        { Moviedb.Profile_gen.default with seed = (23 * 100_003) + u; n_selections = selections }
    in
    List.iter
      (fun { Perso_store.Codec.cond; degree } ->
        Relal.Table.insert t
          [| Relal.Value.Str (Printf.sprintf "u%d" u); Relal.Value.Str cond; Relal.Value.Float degree |])
      (Perso.Profile_store.entries_of_profile p)
  done;
  let rows = Relal.Table.cardinality t in
  (* [merge_back] closes the stores and puts the rows back in [db]. *)
  let cpu_ms root =
    Gc.full_major ();
    let t0 = Sys.time () in
    let s = Shards.create ~persist:root ~shards db in
    let ms = (Sys.time () -. t0) *. 1000. in
    Shards.merge_back s;
    ms
  in
  let rounds =
    List.init runs (fun _ ->
        let root = Filename.temp_file "bench_root" "" in
        Sys.remove root;
        let fresh = cpu_ms root in
        let reopen = cpu_ms root in
        Relal.Csv.rm_rf root;
        (fresh, reopen))
  in
  let create_ms = median (List.map fst rounds) and reopen_ms = median (List.map snd rounds) in
  Printf.printf
    "  root: %d users (%d rows) on %d shards: create %.1f ms CPU, reopen %.1f ms CPU \
     (medians of %d)\n%!"
    users rows shards create_ms reopen_ms runs;
  Printf.sprintf
    "  \"root\": {\"users\": %d, \"selections\": %d, \"rows\": %d, \"shards\": %d, \
     \"runs\": %d, \"create_cpu_ms\": %.3f, \"reopen_cpu_ms\": %.3f}"
    users selections rows shards runs create_ms reopen_ms

(* The I/O face of Figure 6: profile size drives record size, which
   drives save (WAL append + fsync) and point-load latency, each the
   median of [cell_reps] timed passes over the size's users.  Also times
   what only a durable tier has — cold recovery (reopen replaying
   sealed segments + WAL), compaction, and a server root's first open
   ([root_open]).  Writes BENCH_STORE.json (override with
   BENCH_STORE_OUT); `make check` validates it. *)
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
  (* Small segments so the workload reaches automatic maintenance. *)
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
        (* A pass saves, or loads, every user once; each figure is the
           median pass after a warm-up ([measure_pass]). *)
        let (), _, save_ms, _ =
          measure_pass (fun () ->
              List.iter2
                (fun user es ->
                  incr rev;
                  Store.save !s ~user ~revision:!rev es)
                usernames entries)
        in
        let (), _, load_ms, _ =
          measure_pass (fun () ->
              List.iter (fun user -> ignore (Store.load !s ~user)) usernames)
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
  let root = root_open () in
  let path =
    Option.value ~default:"BENCH_STORE.json" (Sys.getenv_opt "BENCH_STORE_OUT")
  in
  let oc = open_out path in
  json_header oc "store";
  Printf.fprintf oc
    "  \"reps\": %d,\n\
    \  \"movies\": %d,\n\
    \  \"users_per_size\": %d,\n\
    \  \"sizes\": [\n"
    cell_reps movies users_per_size;
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
    \  \"workload\": {\"appends\": %d, \"compactions\": %d},\n\
    \  \"recovery\": {\"records\": %d, \"reopen_ms\": %.3f, \
     \"reopen_compacted_ms\": %.3f, \"live_users\": %d},\n\
    \  \"compaction\": {\"segments_before\": %d, \"segments_after\": %d, \
     \"ms\": %.3f},\n\
     %s\n\
     }\n"
    appends work.Store.compactions appends reopen_ms
    reopen2_ms live before.Store.segments after.Store.segments compact_ms root;
  close_out oc;
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  Printf.printf "# wrote %s\n%!" path

(* --------------------------------------------------------------------- *)
(* Driver                                                                *)
(* --------------------------------------------------------------------- *)

let all_figs =
  [
    ("fig6", fig6); ("fig7a", fig7a); ("fig7b", fig7b); ("fig7c", fig7c);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("exec", bench_exec);
    ("perso", bench_perso); ("kernels", kernels);
    ("ablation-funcs", ablation_funcs); ("ablation-index", ablation_index);
    ("store", bench_store);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all_figs
  in
  (* Every name is checked before any figure runs, so a script naming a
     figure that no longer exists fails at once instead of passing. *)
  (match List.filter (fun name -> not (List.mem_assoc name all_figs)) requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown figure: %s (have: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " (List.map fst all_figs));
      exit 2);
  let t0 = now_ms () in
  List.iter (fun name -> (List.assoc name all_figs) ()) requested;
  Printf.printf "\n# total bench time: %.1f s\n" ((now_ms () -. t0) /. 1000.)
