(* The preference model's numeric backbone (§3): combination functions,
   their required bounds, and the subsumption theorem — all checked both
   on the paper's worked examples and by qcheck properties. *)

open Perso

let d = Helpers.deg
let f = Degree.to_float

(* ------------------------- Worked examples ------------------------- *)

let test_paper_transitive () =
  (* Movies starring N. Kidman: 0.8 * 1 * 0.9 = 0.72 (§3.2). *)
  Helpers.check_float "kidman" 0.72 (f (Degree.trans [ d 0.8; d 1.0; d 0.9 ]))

let test_paper_conjunction () =
  (* Comedies directed by W. Allen: 1-(1-0.7)(1-0.81) = 0.943 (§3.3). *)
  Helpers.check_float "comedy+allen" 0.943 (f (Degree.conj [ d 0.7; d 0.81 ]))

let test_paper_disjunction () =
  (* Comedy or W. Allen movie: (0.7+0.81)/2 = 0.755 (§3.3). *)
  Helpers.check_float "comedy|allen" 0.755 (f (Degree.disj [ d 0.7; d 0.81 ]))

let test_validation () =
  Alcotest.(check bool) "1.1 rejected" true (Degree.of_float_opt 1.1 = None);
  Alcotest.(check bool) "-0.1 rejected" true (Degree.of_float_opt (-0.1) = None);
  Alcotest.(check bool) "nan rejected" true (Degree.of_float_opt Float.nan = None);
  Alcotest.(check bool) "bounds accepted" true
    (Degree.of_float_opt 0. <> None && Degree.of_float_opt 1. <> None);
  Alcotest.check_raises "of_float raises"
    (Invalid_argument "Degree.of_float: 2 not in [0,1]") (fun () ->
      ignore (Degree.of_float 2.))

let test_empty_cases () =
  Helpers.check_float "empty transitive = 1" 1.0 (f (Degree.trans []));
  Alcotest.(check bool) "empty conj rejected" true
    (try
       ignore (Degree.conj []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty disj rejected" true
    (try
       ignore (Degree.disj []);
       false
     with Invalid_argument _ -> true)

let test_to_string () =
  Alcotest.(check string) "trim zeros" "0.81" (Degree.to_string (d 0.81));
  Alcotest.(check string) "full precision" "0.943" (Degree.to_string (d 0.943));
  Alcotest.(check string) "one" "1.0" (Degree.to_string (d 1.0))

(* --------------------------- Properties ---------------------------- *)

let degrees_gen = QCheck.(list_of_size Gen.(1 -- 8) (float_range 0.0 1.0))
let to_ds = List.map Degree.of_float

(* §3.2: f⊙(D) <= min(D). *)
let prop_trans_bound =
  QCheck.Test.make ~name:"trans <= min" ~count:500 degrees_gen (fun fs ->
      let ds = to_ds fs in
      f (Degree.trans ds) <= List.fold_left min 1.0 fs +. 1e-12)

(* §3.3: f∧(D) >= max(D). *)
let prop_conj_bound =
  QCheck.Test.make ~name:"conj >= max" ~count:500 degrees_gen (fun fs ->
      let ds = to_ds fs in
      f (Degree.conj ds) >= List.fold_left max 0.0 fs -. 1e-12)

(* §3.3: min(D) <= f∨(D) <= max(D). *)
let prop_disj_bounds =
  QCheck.Test.make ~name:"min <= disj <= max" ~count:500 degrees_gen (fun fs ->
      let ds = to_ds fs in
      let v = f (Degree.disj ds) in
      v >= List.fold_left min 1.0 fs -. 1e-12
      && v <= List.fold_left max 0.0 fs +. 1e-12)

(* All three stay inside [0,1]. *)
let prop_closed =
  QCheck.Test.make ~name:"combinators closed over [0,1]" ~count:500 degrees_gen
    (fun fs ->
      let ds = to_ds fs in
      let ok v = v >= -.1e-12 && v <= 1. +. 1e-12 in
      ok (f (Degree.trans ds)) && ok (f (Degree.conj ds)) && ok (f (Degree.disj ds)))

(* Monotonicity: growing a transitive chain can only lower the degree;
   growing a conjunction can only raise it. *)
let prop_monotone_growth =
  QCheck.Test.make ~name:"trans anti-monotone / conj monotone in extension"
    ~count:500
    QCheck.(pair degrees_gen (float_range 0.0 1.0))
    (fun (fs, x) ->
      let ds = to_ds fs in
      let dx = Degree.of_float x in
      f (Degree.trans (dx :: ds)) <= f (Degree.trans ds) +. 1e-12
      && f (Degree.conj (dx :: ds)) >= f (Degree.conj ds) -. 1e-12)

(* Commutativity: all three combinators are set functions — a
   permutation of the inputs cannot change the result (§3 defines them
   over sets of preferences, not sequences). *)
let shuffled seed fs =
  let a = Array.of_list fs in
  Putil.Rng.shuffle (Putil.Rng.create seed) a;
  Array.to_list a

let prop_commutative =
  QCheck.Test.make ~name:"trans/conj/disj commutative" ~count:500
    QCheck.(pair degrees_gen small_int)
    (fun (fs, seed) ->
      let eq g xs ys = Float.abs (f (g (to_ds xs)) -. f (g (to_ds ys))) < 1e-9 in
      let fs' = shuffled seed fs in
      eq Degree.trans fs fs' && eq Degree.conj fs fs' && eq Degree.disj fs fs')

(* Associativity where the paper's choices support it: the product
   (transitive) and the complement-product (conjunction) both split
   over any partition of the inputs.  The disjunction (an average) does
   not, and no such property is claimed for it. *)
let prop_trans_conj_associative =
  QCheck.Test.make ~name:"trans/conj associative over partitions" ~count:500
    QCheck.(pair degrees_gen degrees_gen)
    (fun (xs, ys) ->
      let t = f (Degree.trans (to_ds (xs @ ys))) in
      let t' = f (Degree.trans [ Degree.trans (to_ds xs); Degree.trans (to_ds ys) ]) in
      let c = f (Degree.conj (to_ds (xs @ ys))) in
      let c' = f (Degree.conj [ Degree.conj (to_ds xs); Degree.conj (to_ds ys) ]) in
      Float.abs (t -. t') < 1e-9 && Float.abs (c -. c') < 1e-9)

(* The full ordering chain on one input set:
   f⊙ <= min <= f∨ <= max <= f∧. *)
let prop_combinator_chain =
  QCheck.Test.make ~name:"trans <= min <= disj <= max <= conj" ~count:500
    degrees_gen (fun fs ->
      let ds = to_ds fs in
      let lo = List.fold_left min 1.0 fs and hi = List.fold_left max 0.0 fs in
      f (Degree.trans ds) <= lo +. 1e-12
      && lo <= f (Degree.disj ds) +. 1e-12
      && f (Degree.disj ds) <= hi +. 1e-12
      && hi <= f (Degree.conj ds) +. 1e-12)

(* The subsumption theorem (§3.3): conditions express "any L of the top K"
   over the same preference set; c1 is subsumed by c2 when K1 <= K2 and
   L1 >= L2 (satisfying more of fewer/better preferences is strictly
   harder), and the theorem requires degree(c1) >= degree(c2) where
   degree(any L of K) = f∨ over the f∧ of every L-subset of the top K. *)
let rec subsets xs k =
  match (xs, k) with
  | _, 0 -> [ [] ]
  | [], _ -> []
  | x :: rest, k -> List.map (fun s -> x :: s) (subsets rest (k - 1)) @ subsets rest k

let any_l_of_k_degree ds l k =
  let top_k = List.filteri (fun i _ -> i < k) ds in
  Degree.disj (List.map Degree.conj (subsets top_k l))

let prop_subsumption =
  QCheck.Test.make ~name:"subsumption theorem (any-L-of-K monotonicity)" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(3 -- 6) (float_range 0.01 1.0))
        (int_range 1 3) (int_range 1 3))
    (fun (fs, l_extra, k_extra) ->
      let ds = List.sort (fun a b -> compare b a) fs |> List.map Degree.of_float in
      let n = List.length ds in
      let k2 = min n (1 + k_extra) in
      let k1 = max 1 (k2 - 1) in
      let l2 = min k1 1 in
      let l1 = min k1 (l2 + l_extra) in
      f (any_l_of_k_degree ds l1 k1) >= f (any_l_of_k_degree ds l2 k2) -. 1e-9)

let () =
  Alcotest.run "degree"
    [
      ( "worked-examples",
        [
          Alcotest.test_case "transitive (Kidman)" `Quick test_paper_transitive;
          Alcotest.test_case "conjunction (comedy+Allen)" `Quick test_paper_conjunction;
          Alcotest.test_case "disjunction (comedy|Allen)" `Quick test_paper_disjunction;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "empty cases" `Quick test_empty_cases;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_trans_bound; prop_conj_bound; prop_disj_bounds; prop_closed;
            prop_monotone_growth; prop_commutative;
            prop_trans_conj_associative; prop_combinator_chain;
            prop_subsumption;
          ] );
    ]
