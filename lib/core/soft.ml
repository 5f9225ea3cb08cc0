open Relal

type t = {
  path : Path.t;
  att : string;
  target : float;
  tolerance : float;
  weight : Degree.t;
}

let make ~path ~att ~target ~tolerance ~weight =
  if Path.is_selection path then
    Error "soft preference path must be a join path (no terminal selection)"
  else if tolerance <= 0. then Error "tolerance must be positive"
  else Ok { path; att = String.lowercase_ascii att; target; tolerance; weight }

let closeness t v = Float.max 0. (1. -. (Float.abs (v -. t.target) /. t.tolerance))

(* The partial query: the original query joined with the soft path,
   projecting the original outputs plus the soft attribute. *)
let soft_query db qg t =
  match Integrate.instantiate db qg [ t.path ] with
  | [ inst ] ->
      let q0 = Qgraph.query qg in
      (* The tuple variable holding the soft attribute: the last alias the
         instantiation introduced, or the anchor itself for an empty
         path. *)
      let end_tv =
        match List.rev inst.Integrate.trefs with
        | last :: _ -> last.Sql_ast.alias
        | [] -> t.path.Path.anchor_tv
      in
      let select =
        q0.Sql_ast.select
        @ [ Sql_ast.Sel_attr (Sql_ast.attr end_tv t.att, Some "soft_val") ]
      in
      (Integrate.partial ~select qg ~mandatory:[] inst, List.length q0.Sql_ast.select)
  | _ -> assert false

let row_degrees db qg t =
  let q, n_out = soft_query db qg t in
  let res = Engine.run_query db q in
  let best : float Exec.Row_tbl.t = Exec.Row_tbl.create 32 in
  List.iter
    (fun row ->
      let out = Array.sub row 0 n_out in
      let v =
        match row.(n_out) with
        | Value.Int i -> Some (float_of_int i)
        | Value.Float f -> Some f
        | _ -> None
      in
      match v with
      | None -> ()
      | Some v ->
          let c = closeness t v in
          if c > 0. then begin
            let prev = Option.value ~default:0. (Exec.Row_tbl.find_opt best out) in
            if c > prev then Exec.Row_tbl.replace best out c
          end)
    res.Exec.rows;
  let path_degree = Degree.to_float t.path.Path.degree in
  Exec.Row_tbl.fold
    (fun row c acc ->
      match
        Degree.of_float_opt (Degree.to_float t.weight *. path_degree *. c)
      with
      | Some d when not (Degree.equal d Degree.zero) -> (row, d) :: acc
      | _ -> acc)
    best []

let rank ?(l = 1) db qg ~likes ~soft () =
  let acc = Integrate.accumulate db qg ~mandatory:[] likes in
  List.iter
    (fun s ->
      List.iter (fun (row, d) -> Integrate.credit acc row d) (row_degrees db qg s))
    soft;
  Exec.Row_tbl.fold
    (fun row ds rows ->
      if List.length ds >= l then (row, Degree.conj ds) :: rows else rows)
    acc []
  |> Integrate.sort_ranked ~score:(fun (_, d) -> Degree.to_float d) ~row:fst
