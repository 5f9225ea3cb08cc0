type stats = {
  mutable pops : int;
  mutable pushes : int;
  mutable expansions : int;
  mutable discarded_conflicts : int;
  mutable discarded_cycles : int;
  mutable max_queue : int;
}

let fresh_stats () =
  {
    pops = 0;
    pushes = 0;
    expansions = 0;
    discarded_conflicts = 0;
    discarded_cycles = 0;
    max_queue = 0;
  }

(* Build the extension of [path] by one atomic element, applying pruning
   rules (i) and (ii).  Returns None when pruned. *)
let try_extend db qg st path (atom, d) =
  match atom with
  | Atom.Sel s -> (
      match Path.extend_sel path s d with
      | Error _ -> None
      | Ok p ->
          if Conflict.conflicts_with_query db qg p then begin
            st.discarded_conflicts <- st.discarded_conflicts + 1;
            None
          end
          else Some p)
  | Atom.Join j ->
      if Qgraph.mem_relation qg j.Atom.j_to_rel then begin
        (* Rule (i): expanding back into the query graph is a cycle. *)
        st.discarded_cycles <- st.discarded_cycles + 1;
        None
      end
      else begin
        match Path.extend_join path j d with
        | Error _ ->
            (* Covers both non-composability and path-internal cycles. *)
            st.discarded_cycles <- st.discarded_cycles + 1;
            None
        | Ok p -> Some p
      end

let select ?stats ?gov ?(related = fun _ -> true) db g qg ci =
  (* A discarded per-call record, not a module-level one: a shared
     [no_stats] silently accumulated counts across every stats-less call,
     so any later reader saw garbage totals. *)
  let st = match stats with Some s -> s | None -> fresh_stats () in
  let g_poll () =
    match gov with None -> () | Some g -> Relal.Governor.poll g
  in
  let g_expand () =
    match gov with None -> () | Some g -> Relal.Governor.add_expansion g
  in
  let qp : Path.t Putil.Pqueue.t = Putil.Pqueue.create () in
  let push p =
    Putil.Pqueue.push qp (Degree.to_float p.Path.degree) p;
    st.pushes <- st.pushes + 1;
    st.max_queue <- max st.max_queue (Putil.Pqueue.length qp)
  in
  (* Step 1: seed with the atomic elements adjacent to the query graph. *)
  List.iter
    (fun (tv, rel) ->
      let anchor = Path.start ~anchor_tv:tv ~anchor_rel:rel in
      List.iter
        (fun edge ->
          match try_extend db qg st anchor edge with
          | Some p -> push p
          | None -> ())
        (Pgraph.out_edges g rel))
    (Qgraph.tvs qg);
  (* Step 2: best-first loop. *)
  let selected = ref [] in
  let acc = ref Criteria.acc_empty (* the degrees of [!selected] *) in
  let prune = Criteria.expansion_prunable ci in
  let stop = ref false in
  while (not !stop) && not (Putil.Pqueue.is_empty qp) do
    match Putil.Pqueue.pop qp with
    | None -> stop := true
    | Some (_, p) ->
        g_poll ();
        st.pops <- st.pops + 1;
        if Path.is_selection p then begin
          if Criteria.admits ci !acc p.Path.degree then begin
            if related p then begin
              selected := p :: !selected;
              acc := Criteria.acc_push !acc p.Path.degree
            end
          end
          else stop := true
        end
        else if Criteria.admits ci !acc p.Path.degree then begin
          g_expand ();
          st.expansions <- st.expansions + 1;
          (* Expand with composable elements in decreasing degree order;
             rule (iv) stops at the first failing extension — but only
             for criteria whose expansion-time rejection is permanent
             (see Criteria.expansion_prunable); otherwise every valid
             extension is queued and judged at pop time. *)
          let edges = Pgraph.out_edges g (Path.end_rel p) in
          (try
             List.iter
               (fun (atom, d) ->
                 if
                   prune
                   && not (Criteria.admits ci !acc (Degree.trans2 p.Path.degree d))
                 then raise Exit;
                 match try_extend db qg st p (atom, d) with
                 | Some p' -> push p'
                 | None -> ())
               edges
           with Exit -> ())
        end
        else stop := true
  done;
  List.rev !selected
