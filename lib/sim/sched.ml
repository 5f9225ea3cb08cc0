exception Failed of string

(* A waiter is a parked slice of a task: resuming it runs the task until
   its next suspension (or completion), then control returns to the
   scheduler loop. *)
type waiter = { wtid : int; wname : string; resume : unit -> unit }

type task = {
  tid : int;
  name : string;
  mutable finished : bool;
  mutable joiners : waiter list;
}

type mutex = {
  mutable owner : int option;
  mutable mwaiters : waiter list;
}

type cond = { mutable cwaiters : (mutex * waiter) list }

type t = {
  rng : Putil.Rng.t;
  clock : waiter Vclock.t;
  mutable runq : waiter list;  (* tail-append; seeded pick *)
  mutable alive : int;  (* spawned but unfinished tasks *)
  mutable cur : int;  (* tid currently executing *)
  mutable next_tid : int;
  mutable steps : int;
  max_steps : int;
  trace : Buffer.t;
  mutable probes : (unit -> unit) list;
  mutable blocked_names : (int * string) list;  (* tid -> where it blocks *)
}

type _ Effect.t += Suspend : string * (t -> waiter -> unit) -> unit Effect.t

let current : t option ref = ref None

let sch () =
  match !current with
  | Some s -> s
  | None -> raise (Failed "Sched primitive used outside Sched.run")

let tracef s fmt = Format.kasprintf (fun line -> Buffer.add_string s.trace line; Buffer.add_char s.trace '\n') fmt

let block_at s tid label =
  s.blocked_names <- (tid, label) :: List.remove_assoc tid s.blocked_names

let unblock s tid = s.blocked_names <- List.remove_assoc tid s.blocked_names

let push_runnable s (w : waiter) =
  unblock s w.wtid;
  s.runq <- s.runq @ [ w ]

(* Remove and return element [i] of a list. *)
let take_nth i l =
  let rec go acc i = function
    | [] -> invalid_arg "take_nth"
    | x :: rest ->
        if i = 0 then (x, List.rev_append acc rest) else go (x :: acc) (i - 1) rest
  in
  go [] i l

let pick_seeded s = function
  | [] -> None
  | l ->
      let i = Putil.Rng.int_in s.rng 0 (List.length l - 1) in
      Some (take_nth i l)

(* ------------------------------ suspension --------------------------- *)

let suspend label park = Effect.perform (Suspend (label, park))

let yield () = suspend "yield" (fun s w -> push_runnable s w)

let sleep d =
  suspend "sleep"
    (fun s w ->
      block_at s w.wtid "sleep";
      Vclock.park s.clock (Vclock.now s.clock +. Float.max d 0.) w)

let now () = Vclock.now (sch ()).clock

let fail msg = raise (Failed msg)

let add_probe p =
  let s = sch () in
  s.probes <- s.probes @ [ p ]

(* -------------------------------- tasks ------------------------------ *)

let finish_task s task =
  task.finished <- true;
  s.alive <- s.alive - 1;
  List.iter (push_runnable s) task.joiners;
  task.joiners <- []

(* Build the waiter that starts a task from the beginning.  The deep
   handler installed here stays in force across every later [continue],
   so each suspension unwinds to whoever called [resume] — the
   scheduler loop. *)
let first_waiter s task (body : unit -> unit) : waiter =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> finish_task s task);
      exnc =
        (fun e ->
          finish_task s task;
          match e with
          | Failed _ -> raise e
          | e ->
              raise
                (Failed
                   (Printf.sprintf "task %s crashed: %s" task.name
                      (Printexc.to_string e))));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend (label, park) ->
              Some
                (fun (k : (a, _) continuation) ->
                  tracef s "%d %s %s" s.steps task.name label;
                  park s
                    {
                      wtid = task.tid;
                      wname = task.name;
                      resume = (fun () -> continue k ());
                    })
          | _ -> None);
    }
  in
  { wtid = task.tid; wname = task.name; resume = (fun () -> match_with body () handler) }

let spawn ?name body =
  let s = sch () in
  let tid = s.next_tid in
  s.next_tid <- tid + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "task-%d" tid in
  let task = { tid; name; finished = false; joiners = [] } in
  s.alive <- s.alive + 1;
  tracef s "%d spawn %s" s.steps name;
  push_runnable s (first_waiter s task body);
  task

let join task =
  suspend "join"
    (fun s w ->
      if task.finished then push_runnable s w
      else begin
        block_at s w.wtid ("join " ^ task.name);
        task.joiners <- task.joiners @ [ w ]
      end)

(* ------------------------------- mutexes ----------------------------- *)

let mutex_create () = { owner = None; mwaiters = [] }

let lock m =
  suspend "lock"
    (fun s w ->
      match m.owner with
      | None ->
          m.owner <- Some w.wtid;
          push_runnable s w
      | Some _ ->
          block_at s w.wtid "lock";
          m.mwaiters <- m.mwaiters @ [ w ])

(* Hand the mutex to one seeded waiter (ownership transfers before the
   waiter runs, so late lockers queue behind it — deterministic handoff
   semantics). *)
let grant s m =
  m.owner <- None;
  match pick_seeded s m.mwaiters with
  | None -> ()
  | Some (w, rest) ->
      m.mwaiters <- rest;
      m.owner <- Some w.wtid;
      push_runnable s w

let unlock m =
  suspend "unlock"
    (fun s w ->
      if m.owner <> Some w.wtid then
        raise (Failed (w.wname ^ ": unlock of a mutex it does not hold"));
      grant s m;
      push_runnable s w)

(* ------------------------------ condvars ----------------------------- *)

let cond_create () = { cwaiters = [] }

let wait c m =
  suspend "wait"
    (fun s w ->
      if m.owner <> Some w.wtid then
        raise (Failed (w.wname ^ ": wait without holding the mutex"));
      grant s m;
      block_at s w.wtid "wait";
      c.cwaiters <- c.cwaiters @ [ (m, w) ])

(* A signaled waiter must re-acquire its mutex before running.  The
   signaler usually still holds it, so the waiter queues on the mutex;
   if it is free the waiter takes ownership immediately. *)
let wake s (m, w) =
  match m.owner with
  | None ->
      m.owner <- Some w.wtid;
      push_runnable s w
  | Some _ ->
      block_at s w.wtid "relock";
      m.mwaiters <- m.mwaiters @ [ w ]

let signal c =
  suspend "signal"
    (fun s w ->
      (match pick_seeded s c.cwaiters with
      | None -> ()
      | Some (entry, rest) ->
          c.cwaiters <- rest;
          wake s entry);
      push_runnable s w)

let broadcast c =
  suspend "broadcast"
    (fun s w ->
      let waiters = c.cwaiters in
      c.cwaiters <- [];
      List.iter (wake s) waiters;
      push_runnable s w)

(* -------------------------------- run -------------------------------- *)

type outcome = {
  result : (unit, string) result;
  steps : int;
  vnow : float;
  trace : string;
  digest : string;
}

let deadlock_report s =
  let blocked =
    s.blocked_names
    |> List.rev_map (fun (tid, at) -> Printf.sprintf "t%d@%s" tid at)
    |> String.concat ", "
  in
  Printf.sprintf "deadlock: %d task(s) blocked with no timer pending [%s]"
    s.alive blocked

let run ?(max_steps = 1_000_000) ~seed main =
  let s =
    {
      rng = Putil.Rng.create seed;
      clock = Vclock.create ();
      runq = [];
      alive = 0;
      cur = -1;
      next_tid = 0;
      steps = 0;
      max_steps;
      trace = Buffer.create 4096;
      probes = [];
      blocked_names = [];
    }
  in
  let prev = !current in
  current := Some s;
  Fun.protect ~finally:(fun () -> current := prev) @@ fun () ->
  let result =
    try
      ignore (spawn ~name:"main" main);
      let rec loop () =
        List.iter (fun p -> p ()) s.probes;
        if s.steps >= s.max_steps then
          Error (Printf.sprintf "step budget exceeded (%d)" s.max_steps)
        else
          match pick_seeded s s.runq with
          | Some (w, rest) ->
              s.runq <- rest;
              s.steps <- s.steps + 1;
              s.cur <- w.wtid;
              tracef s "%d run %s" s.steps w.wname;
              w.resume ();
              loop ()
          | None -> (
              match Vclock.advance s.clock with
              | [] ->
                  if s.alive > 0 then Error (deadlock_report s) else Ok ()
              | due ->
                  tracef s "%d advance %.3f" s.steps (Vclock.now s.clock);
                  List.iter (push_runnable s) due;
                  loop ())
      in
      loop ()
    with Failed msg -> Error msg
  in
  (match result with
  | Ok () -> tracef s "end ok"
  | Error msg -> tracef s "end fail %s" msg);
  let trace = Buffer.contents s.trace in
  {
    result;
    steps = s.steps;
    vnow = Vclock.now s.clock;
    trace;
    digest = Digest.to_hex (Digest.string trace);
  }
