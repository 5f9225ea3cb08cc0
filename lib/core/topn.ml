open Relal

type stats = {
  partials_total : int;
  partials_executed : int;
  rows_tracked : int;
  random_probes : int;
}

type result = {
  rows : (Value.t array * Degree.t) list;
  stats : stats;
}

let conj_deg = function [] -> 0. | ds -> Degree.to_float (Degree.conj ds)

let top_n ?(l = 1) ~n db qg ~mandatory ~optional () =
  if n < 0 then invalid_arg "Topn.top_n: negative n";
  let partials = Array.of_list optional in
  let k = Array.length partials in
  (* Degrees in partial order (decreasing). *)
  let degs =
    Array.map (fun i -> i.Integrate.path.Path.degree) partials
  in
  (* suffix_degrees.(i) = degrees of partials i..k-1 (the "remaining"
     degrees before executing partial i). *)
  let suffix i = Array.to_list (Array.sub degs i (k - i)) in
  (* candidate rows: key -> satisfied degrees *)
  let seen : Degree.t list Exec.Row_tbl.t = Exec.Row_tbl.create 64 in
  (* Rows whose exact final score is already known, through random-access
     probes against every remaining partial (Fagin's TA).  Such rows must
     not be re-credited when those partials later execute. *)
  let complete : unit Exec.Row_tbl.t = Exec.Row_tbl.create 16 in
  let executed = ref 0 in
  let probes = ref 0 in
  let finished = ref false in
  let i = ref 0 in
  (* Lower bound (confirmed score) of a row: qualified rows score their
     current conjunction, unqualified rows score 0. *)
  let lower ds = if List.length ds >= l then conj_deg ds else 0. in
  (* Upper bound: the row additionally satisfies every remaining partial
     — unless its score is already exact. *)
  let upper row remaining ds =
    if Exec.Row_tbl.mem complete row then lower ds
    else if List.length ds + List.length remaining >= l then
      conj_deg (ds @ remaining)
    else 0.
  in
  (* The current top-n candidate set by confirmed score, with a
     deterministic tie-break, so the termination check can bound the
     rows *outside* it (ties included) rather than everything below the
     n-th score. *)
  let row_key row = Array.map Value.to_string row in
  let current_top_set () =
    let scored =
      Exec.Row_tbl.fold (fun row ds acc -> (row, lower ds) :: acc) seen []
    in
    List.filteri
      (fun idx _ -> idx < n)
      (Integrate.sort_ranked ~score:snd ~row:fst scored)
  in
  (* Random access: does [row] satisfy [inst]?  A LIMIT-1 run of the
     partial query with the projection pinned to the row's values. *)
  let probe_row inst row =
    incr probes;
    let q0 = Qgraph.query qg in
    let proj_attrs =
      List.filter_map
        (function Sql_ast.Sel_attr (a, _) -> Some a | _ -> None)
        q0.Sql_ast.select
    in
    let pin =
      List.mapi
        (fun idx a -> Sql_ast.P_cmp (Eq, S_attr a, S_const row.(idx)))
        proj_attrs
    in
    let q = Integrate.partial ~limit:1 qg ~mandatory inst in
    let q = { q with Sql_ast.where = Sql_ast.conj (q.Sql_ast.where :: pin) } in
    (Engine.run_query db q).Exec.rows <> []
  in
  (* Complete a row's score exactly against the unexecuted partials. *)
  let complete_row row =
    if not (Exec.Row_tbl.mem complete row) then begin
      let remaining_insts = Array.to_list (Array.sub partials !i (k - !i)) in
      let ds = Option.value ~default:[] (Exec.Row_tbl.find_opt seen row) in
      let extra =
        List.filter_map
          (fun inst ->
            if probe_row inst row then Some inst.Integrate.path.Path.degree
            else None)
          remaining_insts
      in
      Exec.Row_tbl.replace seen row (ds @ extra);
      Exec.Row_tbl.replace complete row ()
    end
  in
  (* Termination: the n-th best confirmed score must dominate the upper
     bound of every row outside the candidate window and of unseen rows.
     When only a handful of seen rows block termination, resolve them by
     random access instead of executing more partials (TA's trade). *)
  let rec try_finish () =
    if n > 0 then begin
      let remaining = suffix !i in
      let top = current_top_set () in
      if List.length top = n then begin
        let nth = snd (List.nth top (n - 1)) in
        let in_top row = List.exists (fun (r, _) -> row_key r = row_key row) top in
        let unseen_upper =
          if List.length remaining >= l then conj_deg remaining else 0.
        in
        if unseen_upper <= nth then begin
          let blockers =
            Exec.Row_tbl.fold
              (fun row ds acc ->
                if (not (in_top row)) && upper row remaining ds > nth then
                  row :: acc
                else acc)
              seen []
          in
          if blockers = [] then finished := true
          else if List.length blockers <= max 4 (2 * n) then begin
            List.iter complete_row blockers;
            (* Completion may promote a blocker into the window; recheck
               with exact uppers.  Progress is guaranteed: completed rows
               never block again. *)
            try_finish ()
          end
        end
      end
    end
  in
  while (not !finished) && !i < k do
    ignore
      (Integrate.accumulate ~into:seen ~skip:(Exec.Row_tbl.mem complete) db qg
         ~mandatory [ partials.(!i) ]);
    incr executed;
    incr i;
    try_finish ();
    if !i >= k then finished := true
  done;
  (* When the loop stopped early, the candidate window's membership is
     settled but not every member's exact score; complete the window with
     random-access probes (no-ops for rows already completed), then take
     the qualified top-n. *)
  let qualified row ds =
    if List.length ds >= l && ds <> [] then Some (row, Degree.conj ds) else None
  in
  let sort_scored =
    Integrate.sort_ranked ~score:(fun (_, d) -> Degree.to_float d) ~row:fst
  in
  let top =
    if !i >= k then begin
      (* Every partial ran: scores are exact, no probing needed. *)
      let scored =
        Exec.Row_tbl.fold
          (fun row ds acc ->
            match qualified row ds with Some r -> r :: acc | None -> acc)
          seen []
      in
      List.filteri (fun idx _ -> idx < n) (sort_scored scored)
    end
    else begin
      (* The candidate window includes rows that have not yet satisfied
         [l] preferences, since the probes may still qualify them. *)
      let candidates = current_top_set () in
      List.iter (fun (row, _) -> complete_row row) candidates;
      let completed =
        List.filter_map
          (fun (row, _) -> qualified row (Exec.Row_tbl.find seen row))
          candidates
      in
      List.filteri (fun idx _ -> idx < n) (sort_scored completed)
    end
  in
  {
    rows = top;
    stats =
      {
        partials_total = k;
        partials_executed = !executed;
        rows_tracked = Exec.Row_tbl.length seen;
        random_probes = !probes;
      };
  }
