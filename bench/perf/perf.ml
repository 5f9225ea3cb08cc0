(* The repository benchmark.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1
     perf.exe --smoke --spec BENCHMARK.json --layers bench/perf/layer_map.json

   With --trace 0 a run prints the end-to-end metrics of one workload,
   with --trace 1 the per-layer metrics of its traced replay; without
   --workload every workload runs in turn.  The last line of standard
   output is the result as one JSON object.  The exit code is 0 only
   when every output checked was correct.  See README.md. *)

open Perfbench

let smoke_seconds = 2.

let usage () =
  prerr_endline
    "usage: perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--cli PATH] [--out DIR] | --smoke --spec FILE --layers FILE";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable cli : string;
  mutable out : string;
  mutable smoke : bool;
  mutable spec : string option;
  mutable layers : string option;
  mutable child : string option;
}

let parse_args () =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 25.;
      trace = false;
      cli = "_build/default/bin/perso_cli.exe";
      out = "bench/perf/out";
      smoke = false;
      spec = None;
      layers = None;
      child = None;
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workload <- Some v; go rest
    | "--seed" :: v :: rest -> o.seed <- int_of_string v; go rest
    | "--seconds" :: v :: rest -> o.seconds <- float_of_string v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | "--trace" :: rest -> o.trace <- true; go rest
    | "--cli" :: v :: rest -> o.cli <- v; go rest
    | "--out" :: v :: rest -> o.out <- v; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--spec" :: v :: rest -> o.spec <- Some v; go rest
    | "--layers" :: v :: rest -> o.layers <- Some v; go rest
    | "--rewrite-child" :: v :: rest -> o.child <- Some v; go rest
    | a :: _ ->
        prerr_endline ("unknown argument " ^ a);
        usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv))
   with Failure _ -> usage ());
  if o.seconds <= 0. then usage ();
  o

(* CPU time the hypervisor took from the virtual machine, summed over CPUs
   (the steal column of /proc/stat): a run-validity diagnostic. *)
let steal_s () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some l -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          float_of_string steal /. 100.
      | _ -> 0.)
  | None | (exception Sys_error _) -> 0.

let run_one ?(quiet = false) o ~smoke ~trace (w : Spec.t) =
  let w = if smoke then Spec.smoke w else w in
  let dir =
    Printf.sprintf "%s-%d%s" w.name (Unix.getpid ())
      (if trace then "-trace" else "")
    |> Filename.concat o.out
  in
  Spec.rm_rf dir;
  Spec.mkdir_p dir;
  (* Removed on every way out, a stop signal included. *)
  let clean () = Spec.rm_rf dir in
  at_exit clean;
  let ctx =
    { Spec.cli = o.cli; dir; seed = o.seed; seconds = o.seconds; smoke }
  in
  let t0 = Unix.gettimeofday () and steal0 = steal_s () in
  let r =
    match (w.shape, trace) with
    | Spec.Served s, false -> Served.run ctx s
    | Spec.Rewrite r, false -> Rewrite.run ctx r
    | Spec.Served s, true -> Trace.run_served ctx w.name s
    | Spec.Rewrite r, true -> Trace.run_rewrite ctx w.name r
  in
  clean ();
  let r =
    {
      r with
      Spec.diags =
        r.Spec.diags @ [ Spec.m "host_steal_s" (steal_s () -. steal0) "s" ];
    }
  in
  if not quiet then begin
    Printf.printf "# %s seed=%d seconds=%g trace=%d took %.1f s\n" w.name o.seed
      o.seconds (Bool.to_int trace) (Unix.gettimeofday () -. t0);
    Report.print_result ~workload:w.name r
  end;
  r

(* Tiny sizes, about a second per phase, every workload, both modes:
   the metric names and units BENCHMARK.json lists must all be printed,
   the layer map must cover its per-layer metrics, and the oracle must
   be clean.  No timing is asserted. *)
let smoke o =
  let spec, map =
    match (o.spec, o.layers) with
    | Some s, Some l -> (s, l)
    | _ -> usage ()
  in
  o.seconds <- smoke_seconds;
  let e2e = Report.spec_metrics spec "end_to_end" in
  let layers = Report.spec_metrics spec "per_layer" in
  let failures =
    Report.check_layer_map ~spec ~map
    @ List.concat_map
      (fun w ->
        List.concat_map
          (fun trace ->
            let r = run_one ~quiet:true o ~smoke:true ~trace w in
            let wrong =
              if Report.correct r then []
              else "incorrect output" :: r.Spec.problems
            in
            let expected = if trace then layers else e2e in
            List.map
              (fun p -> w.Spec.name ^ ": " ^ p)
              (wrong @ Report.check_names ~expected r))
          [ false; true ])
      Spec.all
  in
  List.iter (fun f -> Printf.printf "SMOKE FAILURE %s\n" f) failures;
  if failures = [] then
    print_endline
      "perf smoke: every listed metric printed with its unit, oracle clean";
  exit (if failures = [] then 0 else 1)

let () =
  (* A stop signal still runs the exit hooks, which stop the servers. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let o = parse_args () in
  match o.child with
  | Some dir -> Rewrite.child ~dir ~seconds:o.seconds
  | None ->
      if o.smoke then smoke o
      else begin
        let ws =
          match o.workload with
          | None -> Spec.all
          | Some n -> (
              match Spec.find n with
              | Some w -> [ w ]
              | None ->
                  prerr_endline ("unknown workload " ^ n);
                  exit 2)
        in
        if not (Sys.file_exists o.cli) then begin
          prerr_endline ("no server executable at " ^ o.cli);
          exit 2
        end;
        let ok =
          List.fold_left
            (fun ok w ->
              let r = run_one o ~smoke:false ~trace:o.trace w in
              print_endline (Report.json_line r);
              ok && Report.correct r)
            true ws
        in
        exit (if ok then 0 else 1)
      end
