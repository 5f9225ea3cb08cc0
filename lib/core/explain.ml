let path_line p =
  Printf.sprintf "%-70s doi=%s  (via %s)"
    (Path.to_condition_string p)
    (Degree.to_string p.Path.degree)
    p.Path.anchor_tv

let selection_report paths =
  match paths with
  | [] -> "no preferences selected\n"
  | _ ->
      String.concat "\n"
        (List.mapi (fun i p -> Printf.sprintf "%2d. %s" (i + 1) (path_line p)) paths)
      ^ "\n"

let outcome_report (o : Personalize.outcome) =
  let b = Buffer.create 512 in
  Buffer.add_string b "== Selected preferences (P_K) ==\n";
  Buffer.add_string b (selection_report o.selected);
  Buffer.add_string b
    (Printf.sprintf "mandatory: %d, optional: %d\n" (List.length o.mandatory)
       (List.length o.optional));
  let st = o.selection_stats in
  Buffer.add_string b
    (Printf.sprintf
       "selection stats: %d pops, %d pushes, %d expansions, %d conflicts \
        discarded, %d cycles pruned, max queue %d\n"
       st.Select.pops st.Select.pushes st.Select.expansions
       st.Select.discarded_conflicts st.Select.discarded_cycles st.Select.max_queue);
  Buffer.add_string b "== Personalized query ==\n";
  Buffer.add_string b (Relal.Sql_print.query_to_pretty o.personalized);
  Buffer.add_string b "\n";
  Buffer.contents b
