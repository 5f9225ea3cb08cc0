(* Unit + property tests for the utility library: RNG determinism, Zipf
   distribution shape, priority-queue ordering and stability,
   combinatorics. *)

open Putil

(* ------------------------------ Rng ------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_int_bounds () =
  let r = Rng.create 99 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "0 <= v < 7" true (v >= 0 && v < 7)
  done

let test_rng_int_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "n=0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 5 in
  for _ = 1 to 500 do
    let v = Rng.int_in r (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_rng_float_range () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (f >= 0. && f < 2.5)
  done

let test_rng_copy_independent () =
  let a = Rng.create 4 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split () =
  let a = Rng.create 4 in
  let b = Rng.split a in
  let xs = List.init 16 (fun _ -> Rng.bits64 a) in
  let ys = List.init 16 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let r = Rng.create 8 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let r = Rng.create 3 in
  (* Both the dense and the sparse branch. *)
  List.iter
    (fun (k, n) ->
      let s = Rng.sample_without_replacement r k n in
      Alcotest.(check int) "count" k (List.length s);
      Alcotest.(check int) "distinct" k (List.length (List.sort_uniq compare s));
      List.iter
        (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < n))
        s)
    [ (10, 12); (5, 1000); (0, 4); (4, 4) ]

(* ------------------------------ Zipf ------------------------------ *)

let test_zipf_uniform_when_s0 () =
  let z = Zipf.create ~n:4 ~s:0. in
  List.iter
    (fun i -> Alcotest.(check (float 1e-9)) "uniform pmf" 0.25 (Zipf.pmf z i))
    [ 0; 1; 2; 3 ]

let test_zipf_skew () =
  let z = Zipf.create ~n:100 ~s:1.0 in
  Alcotest.(check bool) "rank 0 most popular" true (Zipf.pmf z 0 > Zipf.pmf z 1);
  Alcotest.(check bool) "monotone" true (Zipf.pmf z 10 > Zipf.pmf z 90)

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create ~n:50 ~s:1.3 in
  let total = ref 0. in
  for i = 0 to 49 do
    total := !total +. Zipf.pmf z i
  done;
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 !total

let test_zipf_sample_distribution () =
  let z = Zipf.create ~n:10 ~s:1.0 in
  let r = Rng.create 17 in
  let counts = Array.make 10 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let i = Zipf.sample z r in
    counts.(i) <- counts.(i) + 1
  done;
  (* Empirical frequency of rank 0 should be close to its pmf. *)
  let freq0 = float_of_int counts.(0) /. float_of_int trials in
  Alcotest.(check bool) "rank-0 frequency near pmf" true
    (abs_float (freq0 -. Zipf.pmf z 0) < 0.02);
  Alcotest.(check bool) "rank order respected" true (counts.(0) > counts.(9))

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.));
  Alcotest.check_raises "s<0" (Invalid_argument "Zipf.create: s must be non-negative")
    (fun () -> ignore (Zipf.create ~n:3 ~s:(-1.)))

(* ----------------------------- Pqueue ----------------------------- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (0.3, "c"); (0.9, "a"); (0.5, "b") ];
  let popped = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string)) "descending priority" [ "a"; "b"; "c" ] popped

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iteri (fun i v -> Pqueue.push q 0.5 (i, v)) [ "x"; "y"; "z" ];
  Pqueue.push q 0.7 (99, "first");
  let popped = List.init 4 (fun _ -> snd (snd (Option.get (Pqueue.pop q)))) in
  Alcotest.(check (list string)) "ties pop FIFO" [ "first"; "x"; "y"; "z" ] popped

let test_pqueue_interleaved () =
  let q = Pqueue.create () in
  Pqueue.push q 1.0 "a";
  Pqueue.push q 0.2 "e";
  Alcotest.(check (option (pair (float 0.) string))) "peek max" (Some (1.0, "a"))
    (Pqueue.peek q);
  ignore (Pqueue.pop q);
  Pqueue.push q 0.6 "b";
  Pqueue.push q 0.6 "c";
  ignore (Pqueue.pop q);
  (* popped b *)
  Pqueue.push q 0.6 "d";
  let rest = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string)) "stable among equals" [ "c"; "d"; "e" ] rest;
  Alcotest.(check bool) "now empty" true (Pqueue.is_empty q)

let test_pqueue_to_sorted_list () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q p p) [ 0.1; 0.9; 0.4; 0.9 ];
  let l = Pqueue.to_sorted_list q in
  Alcotest.(check (list (float 0.))) "sorted non-destructively"
    [ 0.9; 0.9; 0.4; 0.1 ] (List.map fst l);
  Alcotest.(check int) "queue intact" 4 (Pqueue.length q)

let prop_pqueue_matches_sort =
  QCheck.Test.make ~name:"pqueue pops = stable sort desc" ~count:200
    QCheck.(list (pair (float_range 0. 1.) small_int))
    (fun items ->
      let q = Pqueue.create () in
      List.iteri (fun i (p, v) -> Pqueue.push q p (i, v)) items;
      let popped = ref [] in
      let rec drain () =
        match Pqueue.pop q with
        | None -> ()
        | Some (_, x) ->
            popped := x :: !popped;
            drain ()
      in
      drain ();
      let expected =
        List.mapi (fun i (p, v) -> (p, (i, v))) items
        |> List.stable_sort (fun (p1, (i1, _)) (p2, (i2, _)) ->
               match compare p2 p1 with 0 -> compare i1 i2 | c -> c)
        |> List.map snd
      in
      List.rev !popped = expected)

(* Interleaved push/pop/peek sequences against a sorted-list model.
   Priorities are drawn from six values, so duplicates are the common
   case and tie-stability is exercised on every run. *)
let prop_pqueue_ops_model =
  QCheck.Test.make ~name:"pqueue op sequences = sorted-list model" ~count:300
    QCheck.(list (pair (int_range 0 3) (int_range 0 5)))
    (fun ops ->
      let q = Pqueue.create () in
      (* Model: (priority, insertion seq, value), kept sorted by
         priority desc then seq asc — the queue's documented order. *)
      let model = ref [] in
      let seq = ref 0 in
      let insert (p, s, v) =
        let rec go = function
          | [] -> [ (p, s, v) ]
          | ((p', s', _) :: rest as l) ->
              if p > p' || (p = p' && s < s') then (p, s, v) :: l
              else List.hd l :: go rest
        in
        model := go !model
      in
      let ok = ref true in
      List.iter
        (fun (op, pi) ->
          let p = float_of_int pi /. 4. in
          match op with
          | 0 | 1 ->
              let v = !seq in
              incr seq;
              Pqueue.push q p v;
              insert (p, v, v)
          | 2 -> (
              match (Pqueue.pop q, !model) with
              | Some (pp, vv), (p', _, v') :: rest ->
                  model := rest;
                  if pp <> p' || vv <> v' then ok := false
              | None, [] -> ()
              | _ -> ok := false)
          | _ -> (
              match (Pqueue.peek q, !model) with
              | Some (pp, vv), (p', _, v') :: _ ->
                  if pp <> p' || vv <> v' then ok := false
              | None, [] -> ()
              | _ -> ok := false))
        ops;
      !ok && Pqueue.length q = List.length !model)

(* Statistical sanity + exact reproducibility for the Zipf sampler. *)
let test_zipf_same_seed_sequence () =
  let z = Zipf.create ~n:50 ~s:1.1 in
  let draw seed =
    let r = Rng.create seed in
    List.init 200 (fun _ -> Zipf.sample z r)
  in
  Alcotest.(check (list int)) "same seed, identical samples" (draw 21) (draw 21);
  Alcotest.(check bool) "different seed diverges" true (draw 21 <> draw 22)

let test_zipf_bucket_ranks_monotone () =
  let z = Zipf.create ~n:12 ~s:1.0 in
  let r = Rng.create 31 in
  let counts = Array.make 12 0 in
  for _ = 1 to 30_000 do
    let i = Zipf.sample z r in
    counts.(i) <- counts.(i) + 1
  done;
  (* Per-rank counts are noisy; sums over rank buckets must decrease. *)
  let bucket lo hi =
    let s = ref 0 in
    for i = lo to hi do s := !s + counts.(i) done;
    !s
  in
  let b0 = bucket 0 3 and b1 = bucket 4 7 and b2 = bucket 8 11 in
  Alcotest.(check bool)
    (Printf.sprintf "bucket frequencies monotone (%d > %d > %d)" b0 b1 b2)
    true
    (b0 > b1 && b1 > b2)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pqueue_matches_sort; prop_pqueue_ops_model ]

let () =
  Alcotest.run "putil"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_rng_sample_without_replacement;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "uniform at s=0" `Quick test_zipf_uniform_when_s0;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "pmf sums to 1" `Quick test_zipf_pmf_sums_to_one;
          Alcotest.test_case "sample distribution" `Quick test_zipf_sample_distribution;
          Alcotest.test_case "same-seed sequence exact" `Quick
            test_zipf_same_seed_sequence;
          Alcotest.test_case "bucket ranks monotone" `Quick
            test_zipf_bucket_ranks_monotone;
          Alcotest.test_case "invalid args" `Quick test_zipf_invalid;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_pqueue_interleaved;
          Alcotest.test_case "to_sorted_list" `Quick test_pqueue_to_sorted_list;
        ] );
      ("properties", qsuite);
    ]
