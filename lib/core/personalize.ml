open Relal

type params = {
  k : Criteria.t;
  m : [ `Count of int | `Min_degree of float ];
  l : [ `At_least of int | `Min_doi of float ];
  method_ : [ `SQ | `MQ ];
  rank : bool;
}

let default_params =
  { k = Criteria.Top_r 5; m = `Count 0; l = `At_least 1; method_ = `MQ; rank = true }

type outcome = {
  selected : Path.t list;
  mandatory : Integrate.instantiated list;
  optional : Integrate.instantiated list;
  personalized : Sql_ast.query;
  selection_stats : Select.stats;
}

let integrate_selected ?(params = default_params) db qg ~stats selected =
  let instantiated = Integrate.instantiate db qg selected in
  let mandatory, optional =
    Integrate.split_mandatory ~m:params.m instantiated (fun i ->
        i.Integrate.path.Path.degree)
  in
  (* Clamp L to the available optional preferences so interactive callers
     get the best achievable requirement rather than an error. *)
  let personalized =
    match params.method_ with
    | `SQ ->
        let l =
          match params.l with
          | `At_least n -> min n (List.length optional)
          | `Min_doi _ ->
              invalid_arg "SQ integration does not support a minimum-degree L"
        in
        Integrate.sq db qg ~mandatory ~optional ~l
    | `MQ ->
        let l =
          match params.l with
          | `At_least n -> `At_least (min n (List.length optional))
          | `Min_doi d -> `Min_doi d
        in
        Integrate.mq ~rank:params.rank db qg ~mandatory ~optional ~l ()
  in
  { selected; mandatory; optional; personalized; selection_stats = stats }

(* [personalize] on a query already bound. *)
let personalize_bound ~params ?related ?gov db profile q =
  let qg = Qgraph.of_query db q in
  let g = Pgraph.of_profile profile in
  let stats = Select.fresh_stats () in
  let selected = Select.select ~stats ?gov ?related db g qg params.k in
  integrate_selected ~params db qg ~stats selected

let personalize ?(params = default_params) ?related ?gov db profile q =
  personalize_bound ~params ?related ?gov db profile (Binder.bind db q)

(* Integration builds a bound query: it runs as built, with no second
   bind. *)
let execute ?gov db outcome = Exec.run ?gov db outcome.personalized

let personalize_sql ?params db profile sql =
  let q = Sql_parser.parse sql in
  let outcome = personalize ?params db profile q in
  (outcome, execute db outcome)

(* ------------------------- resilient entry points ------------------- *)

type degradation =
  | Reduced of { params : params; cause : Error.t }
  | Unpersonalized of { cause : Error.t }

type run = {
  outcome : outcome option;
  result : Exec.result;
  degradations : degradation list;
}

(* One rung down the ladder: halve how much personalization the request
   asks for.  Top-K halves; degree thresholds move halfway towards 1
   (stricter admission, smaller P_K); the L requirement weakens. *)
let halve_params p =
  let towards_one d = Degree.of_float ((1. +. Degree.to_float d) /. 2.) in
  let k =
    match p.k with
    | Criteria.Top_r r -> Criteria.Top_r (max 1 (r / 2))
    | Criteria.Above d -> Criteria.Above (towards_one d)
    | Criteria.Disj_above d -> Criteria.Disj_above (towards_one d)
    | Criteria.Conj_above d -> Criteria.Conj_above (towards_one d)
  in
  let l =
    match p.l with
    | `At_least n -> `At_least (n / 2)
    | `Min_doi d -> `Min_doi (d /. 2.)
  in
  { p with k; l }

(* Which failures another rung can plausibly fix: smaller K/L (or no
   personalization at all) shrinks the rewritten query, so resource
   exhaustion and internal/engine failures are worth retrying under.
   Parse/bind/profile/storage failures are invariant down the ladder. *)
let degradable = function
  | Error.Resource_exhausted _ | Error.Internal _ | Error.Not_conjunctive _ ->
      true
  | Error.Parse _ | Error.Lex _ | Error.Bind _ | Error.Profile _
  | Error.Storage _ | Error.Overloaded _ | Error.Usage _ ->
      false

let personalize_r_with ?(params = default_params) ?(budget = Governor.unlimited)
    ~compute db q =
  (* Each rung gets the full budget: the deadline measures one attempt's
     work, not the ladder's total (callers wanting a global cap can arm
     a shorter deadline). *)
  let fresh_gov () =
    if Governor.is_unlimited budget then None else Some (Governor.start budget)
  in
  let attempt ps =
    Chaos.retry (fun () ->
        let gov = fresh_gov () in
        let outcome = compute ~params:ps ~gov in
        let res = execute ?gov db outcome in
        (outcome, res))
  in
  let unpersonalized steps cause =
    let step = Unpersonalized { cause } in
    match Chaos.retry (fun () -> Exec.run ?gov:(fresh_gov ()) db q) with
    | res ->
        Ok { outcome = None; result = res; degradations = steps @ [ step ] }
    | exception e -> Error (Error.of_exn_any e)
  in
  match attempt params with
  | outcome, res ->
      Ok { outcome = Some outcome; result = res; degradations = [] }
  | exception e -> (
      let cause = Error.of_exn_any e in
      if not (degradable cause) then Error cause
      else
        match cause with
        | Error.Not_conjunctive _ ->
            (* No amount of K/L reduction makes a non-SPJ query
               personalizable; execute it plain. *)
            unpersonalized [] cause
        | _ -> (
            let ps = halve_params params in
            let step = Reduced { params = ps; cause } in
            match attempt ps with
            | outcome, res ->
                Ok
                  {
                    outcome = Some outcome;
                    result = res;
                    degradations = [ step ];
                  }
            | exception e2 ->
                let cause2 = Error.of_exn_any e2 in
                if degradable cause2 then unpersonalized [ step ] cause2
                else Error cause2))

let personalize_r ?params ?budget ?related db profile q =
  match Binder.bind db q with
  | exception e -> Error (Error.of_exn_any e)
  | q ->
      personalize_r_with ?params ?budget db q ~compute:(fun ~params ~gov ->
          personalize_bound ~params ?related ?gov db profile q)

let personalize_sql_r ?params ?budget ?related db profile sql =
  match Sql_parser.parse sql with
  | q -> personalize_r ?params ?budget ?related db profile q
  | exception e -> Error (Error.of_exn_any e)

let degradation_to_string = function
  | Reduced { params; cause } ->
      let l =
        match params.l with
        | `At_least n -> string_of_int n
        | `Min_doi d -> Printf.sprintf "doi>=%.2f" d
      in
      Printf.sprintf "reduced personalization (K: %s, L: %s) after %s"
        (Criteria.to_string params.k) l (Error.to_string cause)
  | Unpersonalized { cause } ->
      "dropped personalization after " ^ Error.to_string cause

let top_n ~n db outcome =
  if n < 0 then invalid_arg "Personalize.top_n: negative n";
  let res = execute db outcome in
  { res with Exec.rows = List.filteri (fun i _ -> i < n) res.Exec.rows }

module Context = struct
  type device = Mobile | Desktop | Voice

  type t = { device : device; latency_budget_ms : float option }

  let params_for t =
    let base =
      match t.device with
      | Mobile -> { default_params with k = Criteria.Top_r 3 }
      | Desktop -> { default_params with k = Criteria.Top_r 10 }
      | Voice ->
          {
            default_params with
            k = Criteria.Top_r 2;
            l = `Min_doi 0.5;
          }
    in
    match t.latency_budget_ms with
    | Some ms when ms < 50. -> (
        match base.k with
        | Criteria.Top_r r -> { base with k = Criteria.Top_r (max 1 (r / 2)) }
        | _ -> base)
    | _ -> base
end
