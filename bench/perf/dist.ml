(* Seconds on the monotonic clock, at nanosecond resolution: spans of a
   microsecond or two must not round to the wall clock's microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Order statistics over raw samples.  Quantiles are exact nearest-rank
   values of the recorded samples, not bucket bounds, so a reported
   figure carries every digit the clock gave. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest rank: the ceil(q * n)-th smallest sample (rank 1 at q = 0). *)
let quantile l q =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> Float.nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let sum l = List.fold_left ( +. ) 0. l

(* Ratio with a stated base; 0 when the base is empty. *)
let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ------------------------- the host's speed ------------------------- *)

(* CPU seconds this process has run, all its threads and domains
   together.  The kernel counts it in nanoseconds and leaves out the
   time the hypervisor took the virtual CPU away. *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A fixed piece of work that uses none of the repository's code:
   building, hashing and sorting 30,000 short strings in all, [strings]
   at a time.  Its CPU time, measured around each round, says how fast
   the host's cores ran then; on a shared VM that changes by up to 1.8x
   from minute to minute.  A neighbour's cache traffic slows work with
   a large working set more than work that stays in the core's own
   caches, so the reference's working set should be like the
   workload's: 30,000 strings at once take a few megabytes, like a
   served request's table scans; 3,000 at a time stay small, like a
   rewrite. *)
let reference_work ~strings () =
  for _ = 1 to 30_000 / strings do
    let t = Hashtbl.create 4096 in
    for i = 0 to strings do
      Hashtbl.replace t (string_of_int (i * 7919 mod 100_003)) i
    done;
    let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] in
    ignore (Sys.opaque_identity (List.sort compare l))
  done

(* CPU seconds the reference work takes per domain, with [domains]
   domains running it at once, so that every core the workload uses is
   sampled. *)
let reference_cpu_s ~domains ~strings =
  let c0 = cpu_self () in
  let others =
    List.init (domains - 1) (fun _ ->
        Domain.spawn (reference_work ~strings))
  in
  reference_work ~strings ();
  List.iter Domain.join others;
  (cpu_self () -. c0) /. float_of_int domains
