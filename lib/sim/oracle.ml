open Perso
open Relal

type check = { name : string; ok : bool; detail : string }

type report = {
  cases : int;
  movies : int;
  selections : int;
  checks : check list;
}

let all_ok r = List.for_all (fun c -> c.ok) r.checks
let failures r = List.filter (fun c -> not c.ok) r.checks

(* One generated setting: a scaled database, a synthetic profile over
   it, and a random conjunctive query — the same shape as
   test_select.random_setting, ~10× larger. *)
let setting ~movies ~selections seed =
  let db = Moviedb.Datagen.(generate (scale ~seed movies)) in
  let profile =
    Moviedb.Profile_gen.generate db
      { Moviedb.Profile_gen.default with seed = seed + 1; n_selections = selections }
  in
  let rng = Putil.Rng.create (seed + 2) in
  let q = Binder.bind db (Moviedb.Workload.random_query db rng) in
  (db, profile, q)

let degs paths =
  List.map (fun p -> Float.round (Degree.to_float p.Path.degree *. 1e9)) paths

let path_keys paths =
  List.map
    (fun p ->
      ( Path.to_condition_string p,
        Float.round (Degree.to_float p.Path.degree *. 1e9) ))
    paths

(* (condition, rounded degree) multiset — stable under reordering of
   equal-degree paths. *)
let path_multiset paths = List.sort compare (path_keys paths)

let rows_multiset (r : Exec.result) =
  r.Exec.rows
  |> List.map (fun row ->
         Array.to_list row |> List.map Value.to_string |> String.concat "\t")
  |> List.sort compare

(* [sub] is a sub-multiset of [super]; both sorted. *)
let rec sub_multiset sub super =
  match (sub, super) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys ->
      if x = y then sub_multiset xs ys
      else if compare x y > 0 then sub_multiset sub ys
      else false

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _, [] -> false

let rank_of_atom paths (s : Atom.selection) =
  let rec go i = function
    | [] -> None
    | p :: rest -> (
        match Path.selection p with
        | Some (s', _) when s' = s -> Some i
        | _ -> go (i + 1) rest)
  in
  go 0 paths

let case_checks ~movies ~selections case_seed tag =
  let db, profile, q = setting ~movies ~selections case_seed in
  let qg = Qgraph.of_query db q in
  let g = Pgraph.of_profile profile in
  let check name ok detail = { name = tag ^ ":" ^ name; ok; detail } in
  let checks = ref [] in
  let add c = checks := c :: !checks in

  (* ----- Theorem 1: ordered emission (differential with sort) ----- *)
  let top40 = Select.select db g qg (Criteria.top_r 40) in
  let rec decreasing = function
    | a :: (b :: _ as rest) ->
        Degree.to_float a.Path.degree >= Degree.to_float b.Path.degree -. 1e-12
        && decreasing rest
    | _ -> true
  in
  add
    (check "theorem1-ordered" (decreasing top40)
       (Printf.sprintf "%d paths emitted" (List.length top40)));

  (* ----- Theorem 2: completeness vs brute force ----- *)
  List.iter
    (fun (cname, ci) ->
      let fast = Select.select db g qg ci in
      let slow = Brute.select db g qg ci in
      add
        (check
           (Printf.sprintf "theorem2-%s" cname)
           (degs fast = degs slow)
           (Printf.sprintf "select=%d brute=%d paths" (List.length fast)
              (List.length slow))))
    [
      ("top5", Criteria.top_r 5);
      ("top25", Criteria.top_r 25);
      ("above05", Criteria.above 0.5);
      ("disj06", Criteria.disj_above 0.6);
    ];

  (* ----- K-prefix: raising K only appends ----- *)
  let top10 = Select.select db g qg (Criteria.top_r 10) in
  let top25 = Select.select db g qg (Criteria.top_r 25) in
  add
    (check "k-prefix"
       (is_prefix (path_keys top10) (path_keys top25))
       (Printf.sprintf "%d then %d" (List.length top10) (List.length top25)));

  (* ----- raise-rank: boosting a preference never demotes it ----- *)
  let all_paths = Select.select db g qg (Criteria.top_r 1_000) in
  (match
     (* a selected atom with headroom to raise, not already first *)
     List.filteri (fun i _ -> i > 0) all_paths
     |> List.find_map (fun p ->
            match Path.selection p with
            | Some (s, _) -> (
                match
                  List.find_map
                    (fun (a, deg) ->
                      match a with
                      | Atom.Sel s' when s' = s ->
                          Some (a, Degree.to_float deg)
                      | _ -> None)
                    (Profile.entries profile)
                with
                | Some (a, d) when d < 0.95 -> Some (s, a, d)
                | _ -> None)
            | None -> None)
   with
  | None -> add (check "raise-rank" true "no raisable atom; vacuous")
  | Some (s, a, d) -> (
      let raised = Float.min 1.0 ((d *. 1.3) +. 0.05) in
      let profile' = Profile.add profile a (Degree.of_float raised) in
      let paths' =
        Select.select db (Pgraph.of_profile profile') qg (Criteria.top_r 1_000)
      in
      match (rank_of_atom all_paths s, rank_of_atom paths' s) with
      | Some before, Some after ->
          add
            (check "raise-rank" (after <= before)
               (Printf.sprintf "%s: %.2f->%.2f rank %d->%d" (Atom.to_string a)
                  d raised before after))
      | before, after ->
          add
            (check "raise-rank" false
               (Printf.sprintf "%s: rank %s -> %s" (Atom.to_string a)
                  (match before with Some i -> string_of_int i | None -> "-")
                  (match after with Some i -> string_of_int i | None -> "-")))));

  (* ----- delete-unselected: dropping a non-contributing preference
     leaves the top-K unchanged ----- *)
  let k = 10 in
  let topk = Select.select db g qg (Criteria.top_r k) in
  let contributes a =
    List.exists
      (fun p ->
        match (a, Path.selection p) with
        | Atom.Sel s, Some (s', _) -> s = s'
        | _ -> false)
      topk
  in
  (match
     Profile.entries profile
     |> List.find_opt (fun (a, _) ->
            match a with Atom.Sel _ -> not (contributes a) | Atom.Join _ -> false)
   with
  | None -> add (check "delete-unselected" true "every selection in top-K; vacuous")
  | Some (a, _) ->
      let profile' = Profile.remove profile a in
      let topk' =
        Select.select db (Pgraph.of_profile profile') qg (Criteria.top_r k)
      in
      add
        (check "delete-unselected"
           (path_multiset topk = path_multiset topk')
           (Printf.sprintf "removed %s" (Atom.to_string a))));

  (* ----- subset: personalized answers ⊆ plain answers ----- *)
  let params =
    {
      Personalize.k = Criteria.top_r 5;
      m = `Count 0;
      l = `At_least 1;
      method_ = `MQ;
      rank = false;
    }
  in
  (match
     Error.guard (fun () ->
         let outcome = Personalize.personalize ~params db profile q in
         let pers = Personalize.execute db outcome in
         let plain = Engine.run_sql db (Sql_print.query_to_string q) in
         (pers, plain))
   with
  | Ok (pers, plain) ->
      add
        (check "subset"
           (sub_multiset (rows_multiset pers) (rows_multiset plain))
           (Printf.sprintf "personalized %d rows, plain %d rows"
              (List.length pers.Exec.rows)
              (List.length plain.Exec.rows)))
  | Error e ->
      add (check "subset" false ("execution failed: " ^ Error.to_string e)));

  List.rev !checks

(* ----- cache: cold / cached byte-equality ---------------------------

   The plan-cache relation: drive the same (profile-edit, query)
   sequence cold and through a cache, saving each edited profile to the
   store (the revision/invalidation signal) and asserting the
   personalized SQL and the executed rows are byte-identical on every
   step.  Repeat consults must be served as [Hit], and the first consult
   after every effective save must recompute ([Miss]).  Runs at a
   reduced scale: each step costs a cold pipeline plus two cache
   consults and three executions. *)
let cache_checks ~movies ~selections case_seed tag =
  let movies = max 120 (movies / 4) in
  let selections = max 8 (selections / 3) in
  let db, profile0, q = setting ~movies ~selections (case_seed + 31) in
  let user = "oracle" in
  let params =
    {
      (* Alternate the cutoff regime by seed: a tight K cuts the
         selection off at the top-K; a K above the path count selects
         every related path. *)
      Personalize.k =
        (if case_seed land 1 = 0 then Criteria.top_r 5 else Criteria.top_r 40);
      m = `Count 0;
      l = `At_least 1;
      method_ = `MQ;
      rank = false;
    }
  in
  let cache = Perso_cache.create db in
  let rng = Putil.Rng.create (case_seed + 77) in
  (* Withhold a few selections from the starting profile so the edit
     sequence has fresh atoms to add back. *)
  let profile = ref profile0 in
  let stash = ref [] in
  List.iteri
    (fun i (s, d) ->
      if i < 3 then begin
        stash := (Atom.Sel s, d) :: !stash;
        profile := Profile.remove !profile (Atom.Sel s)
      end)
    (Profile.selections profile0);
  let checks = ref [] in
  let add name ok detail = checks := { name = tag ^ ":" ^ name; ok; detail } :: !checks in
  let n_edits = ref 0 and n_recomputed = ref 0 in
  let render o =
    ( Sql_print.query_to_string o.Personalize.personalized,
      (Personalize.execute db o).Exec.rows
      |> List.map (fun row ->
             Array.to_list row |> List.map Value.to_string |> String.concat "\t")
    )
  in
  let src_name = function
    | Perso_cache.Hit -> "hit"
    | Perso_cache.Miss | Perso_cache.Incremental -> "miss"
    | Perso_cache.Bypass -> "bypass"
  in
  let random_degree () =
    Degree.of_float
      (Float.round ((0.3 +. Putil.Rng.float rng 0.7) *. 1000.) /. 1000.)
  in
  let edit () =
    let sels =
      List.filter
        (fun (a, _) -> match a with Atom.Sel _ -> true | Atom.Join _ -> false)
        (Profile.entries !profile)
    in
    let joins =
      List.filter
        (fun (a, _) -> match a with Atom.Join _ -> true | Atom.Sel _ -> false)
        (Profile.entries !profile)
    in
    let pick l = List.nth l (Putil.Rng.int rng (List.length l)) in
    match Putil.Rng.int rng 8 with
    | 0 | 1 when !stash <> [] ->
        let a, d = List.hd !stash in
        stash := List.tl !stash;
        profile := Profile.add !profile a d
    | 2 when List.length sels > 1 ->
        let a, d = pick sels in
        stash := (a, d) :: !stash;
        profile := Profile.remove !profile a
    | 7 when joins <> [] ->
        (* join retune: moves the degree of every path through it *)
        let a, _ = pick joins in
        profile := Profile.add !profile a (random_degree ())
    | _ when sels <> [] ->
        let a, _ = pick sels in
        profile := Profile.add !profile a (random_degree ())
    | _ -> ()
  in
  let steps = 6 in
  for i = 0 to steps - 1 do
    if i > 0 then edit ();
    let rev = Profile_store.revision db ~user in
    Profile_store.save db ~user !profile;
    let edited = i > 0 && Profile_store.revision db ~user > rev in
    match
      Error.guard (fun () ->
          let cold = render (Personalize.personalize ~params db !profile q) in
          let o1, s1 = Perso_cache.personalize cache ~params ~user !profile q in
          let o2, s2 = Perso_cache.personalize cache ~params ~user !profile q in
          if edited then begin
            incr n_edits;
            if s1 = Perso_cache.Miss then incr n_recomputed
          end;
          add
            (Printf.sprintf "cache-bytes-%d" i)
            (render o1 = cold && render o2 = cold)
            (Printf.sprintf "sources %s,%s" (src_name s1) (src_name s2));
          add
            (Printf.sprintf "cache-hit-%d" i)
            (s2 = Perso_cache.Hit)
            ("repeat consult served as " ^ src_name s2))
    with
    | Ok () -> ()
    | Error e ->
        add
          (Printf.sprintf "cache-step-%d" i)
          false
          ("cache oracle step failed: " ^ Error.to_string e)
  done;
  add "cache-exercised"
    (!n_recomputed = !n_edits)
    (Printf.sprintf "recomputed=%d edits=%d over %d steps" !n_recomputed
       !n_edits steps);
  List.rev !checks

let run ?(movies = 1200) ?(selections = 120) ?(cases = 2) ~seed () =
  let checks =
    List.concat
      (List.init cases (fun i ->
           let case_seed = seed + (i * 101) in
           let tag = Printf.sprintf "case%d" i in
           case_checks ~movies ~selections case_seed tag
           @ cache_checks ~movies ~selections case_seed tag))
  in
  { cases; movies; selections; checks }
