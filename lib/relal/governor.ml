type budget = {
  deadline_ms : float option;
  max_rows : int option;
  max_expansions : int option;
}

let unlimited = { deadline_ms = None; max_rows = None; max_expansions = None }

let is_unlimited b =
  b.deadline_ms = None && b.max_rows = None && b.max_expansions = None

type progress = {
  exhausted : string;
  rows_produced : int;
  expansions : int;
  elapsed_ms : float;
}

exception Exhausted of progress

(* The clock is process-settable so a deterministic simulation can run
   every governor in the process — including those armed deep inside
   [Personalize.personalize_r] — on virtual time, the same way
   [Chaos.set_sleep] virtualizes retry backoff.  Production never calls
   [set_clock]; the default is the real wall clock. *)
let real_clock = Unix.gettimeofday
let clock = ref real_clock
let set_clock f = clock := f

type t = {
  budget : budget;
  started : float;  (* !clock at arm time, seconds *)
  mutable rows : int;
  mutable exps : int;
  mutable polls : int;  (* amortizes the clock read in [poll] *)
}

let start budget =
  { budget; started = !clock (); rows = 0; exps = 0; polls = 0 }

let elapsed_ms g = (!clock () -. g.started) *. 1000.

let progress ?(exhausted = "") g =
  { exhausted; rows_produced = g.rows; expansions = g.exps;
    elapsed_ms = elapsed_ms g }

let exhaust g what = raise (Exhausted (progress ~exhausted:what g))

let check_deadline g =
  match g.budget.deadline_ms with
  | Some limit when elapsed_ms g > limit -> exhaust g "deadline"
  | _ -> ()

(* How many [poll]s skip the clock read.  Wall-clock reads are cheap
   (vDSO) but not free; one read per 64 cooperative checks keeps the
   governor invisible in the executor's inner loops while bounding the
   overshoot past a deadline to a few microseconds of work. *)
let poll_stride = 64

let poll g =
  g.polls <- g.polls + 1;
  if g.polls >= poll_stride then begin
    g.polls <- 0;
    check_deadline g
  end

(* Batch-sized accounting reads the clock immediately: a single
   [add_rows] call can represent an arbitrarily large cross product
   about to be materialized, and amortizing that behind the poll stride
   would let a runaway product overshoot its deadline by the whole
   allocation.  Row-at-a-time accounting stays on the cheap stride. *)
let add_rows g n =
  g.rows <- g.rows + n;
  (match g.budget.max_rows with
  | Some limit when g.rows > limit -> exhaust g "rows"
  | _ -> ());
  if n >= poll_stride then begin
    g.polls <- 0;
    check_deadline g
  end
  else poll g

let add_expansion g =
  g.exps <- g.exps + 1;
  (match g.budget.max_expansions with
  | Some limit when g.exps > limit -> exhaust g "expansions"
  | _ -> ());
  poll g

let pp_progress fmt p =
  Format.fprintf fmt "%s after %d rows, %d expansions, %.2f ms" p.exhausted
    p.rows_produced p.expansions p.elapsed_ms

let progress_to_string p = Format.asprintf "%a" pp_progress p
