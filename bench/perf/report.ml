(* Printing: one human-readable line per metric, then the result as one
   JSON object on the last line of standard output. *)

let finite (r : Spec.result) =
  List.for_all (fun (m : Spec.metric) -> Float.is_finite m.value) r.metrics

let print_result ~workload (r : Spec.result) =
  List.iter
    (fun (m : Spec.metric) ->
      Printf.printf "%-14s %-32s %16s %s\n" workload m.name (Json.num m.value)
        m.unit_)
    r.metrics;
  List.iter
    (fun (m : Spec.metric) ->
      Printf.printf "%-14s %-32s %16s %s (diagnostic)\n" workload m.name
        (Json.num m.value) m.unit_)
    r.diags;
  List.iter (Printf.printf "%-14s MISMATCH %s\n" workload) r.problems;
  if not (finite r) then
    Printf.printf "%-14s a metric had no samples\n" workload

let correct (r : Spec.result) = r.problems = [] && r.failed = 0 && finite r

let json_line (r : Spec.result) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Spec.metric) ->
                  ( m.name,
                    Json.Obj
                      [
                        ("value", Json.Num m.value); ("unit", Json.Str m.unit_);
                      ] ))
                r.metrics) );
       ])

let read_json path = Json.parse (In_channel.with_open_bin path In_channel.input_all)

(* The (name, unit) pairs BENCHMARK.json lists under [section]. *)
let spec_metrics path section =
  let doc = read_json path in
  match Json.member section doc with
  | Some (Json.Arr items) ->
      List.map
        (fun it ->
          match (Json.member "name" it, Json.member "unit" it) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> failwith ("malformed metric in " ^ section))
        items
  | _ -> failwith ("no " ^ section ^ " in " ^ path)

(* Every listed metric printed, with its unit, and nothing else gated. *)
let check_names ~expected (r : Spec.result) =
  let got = List.map (fun (m : Spec.metric) -> (m.name, m.unit_)) r.metrics in
  List.filter_map
    (fun (n, u) ->
      match List.assoc_opt n got with
      | Some u' when u' = u -> None
      | Some u' ->
          Some (Printf.sprintf "%s printed with unit %s, spec says %s" n u' u)
      | None -> Some (n ^ " not printed"))
    expected
  @ List.filter_map
      (fun (n, _) ->
        if List.mem_assoc n expected then None
        else Some (n ^ " printed but not in the spec"))
      got

(* layer_map.json against BENCHMARK.json: one entry per per-layer
   metric, each naming only end-to-end metrics and workloads the spec
   lists, and at least one workload it should move. *)
let check_layer_map ~spec ~map =
  let strs k it =
    match Json.member k it with
    | Some (Json.Arr l) ->
        List.filter_map (function Json.Str s -> Some s | _ -> None) l
    | _ -> []
  in
  let names section =
    match Json.member section (read_json spec) with
    | Some (Json.Arr l) ->
        List.filter_map
          (fun it ->
            match Json.member "name" it with
            | Some (Json.Str n) -> Some n
            | _ -> None)
          l
    | _ -> []
  in
  let layers = names "per_layer"
  and e2e = names "end_to_end"
  and workloads = names "workloads" in
  let entries =
    match Json.member "layers" (read_json map) with
    | Some (Json.Arr l) -> l
    | _ -> []
  in
  let mapped =
    List.filter_map
      (fun it ->
        match Json.member "name" it with
        | Some (Json.Str n) -> Some (n, it)
        | _ -> None)
      entries
  in
  let unknown what known l =
    List.filter_map
      (fun x ->
        if List.mem x known then None else Some (Printf.sprintf "%s %s" what x))
      l
  in
  List.concat_map
    (fun n ->
      match List.assoc_opt n mapped with
      | None -> [ n ^ ": no entry in the layer map" ]
      | Some it ->
          List.map
            (fun p -> n ^ ": unknown " ^ p)
            (unknown "metric" e2e (strs "moves" it)
            @ unknown "workload" workloads
                (strs "on" it @ strs "no_change_on" it))
          @ if strs "on" it = [] then [ n ^ ": moves on no workload" ] else [])
    layers
  @ List.filter_map
      (fun (n, _) ->
        if List.mem n layers then None
        else Some (n ^ ": in the layer map but not in the spec"))
      mapped
