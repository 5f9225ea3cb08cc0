open Relal

type scored_row = {
  row : Value.t array;
  positive : Degree.t;
  penalty : float;
  score : float;
}

let rank ?(l = 1) db qg ~likes ~dislikes () =
  let pos = Integrate.accumulate db qg ~mandatory:[] likes in
  let neg = Integrate.accumulate db qg ~mandatory:[] dislikes in
  let rows =
    Exec.Row_tbl.fold
      (fun row pos_degs acc ->
        if List.length pos_degs < l then acc
        else begin
          let positive = Degree.conj pos_degs in
          let penalty =
            match Exec.Row_tbl.find_opt neg row with
            | None | Some [] -> 0.
            | Some neg_degs -> Degree.to_float (Degree.conj neg_degs)
          in
          if penalty >= 1. then acc (* hard veto *)
          else begin
            let score = Degree.to_float positive *. (1. -. penalty) in
            { row; positive; penalty; score } :: acc
          end
        end)
      pos []
  in
  Integrate.sort_ranked ~score:(fun r -> r.score) ~row:(fun r -> r.row) rows

type outcome = {
  liked : Path.t list;
  disliked : Path.t list;
  rows : scored_row list;
}

let personalize ?(k = Criteria.Top_r 5) ?(k_neg = Criteria.Top_r 5) ?l db ~likes
    ~dislikes q =
  let q = Binder.bind db q in
  let qg = Qgraph.of_query db q in
  let liked = Select.select db (Pgraph.of_profile likes) qg k in
  let disliked = Select.select db (Pgraph.of_profile dislikes) qg k_neg in
  let like_insts = Integrate.instantiate db qg liked in
  let dislike_insts = Integrate.instantiate db qg disliked in
  let rows = rank ?l db qg ~likes:like_insts ~dislikes:dislike_insts () in
  { liked; disliked; rows }
