type point =
  | Scan
  | Join_build
  | Join_probe
  | Profile_load
  | Store_mutate
  | Persist_write
  | Wal_append
  | Wal_fsync
  | Manifest_write
  | Compact_write
  | Compact_rename
  | Scrub_read

let point_name = function
  | Scan -> "scan"
  | Join_build -> "join-build"
  | Join_probe -> "join-probe"
  | Profile_load -> "profile-load"
  | Store_mutate -> "store-mutate"
  | Persist_write -> "persist-write"
  | Wal_append -> "wal-append"
  | Wal_fsync -> "wal-fsync"
  | Manifest_write -> "manifest-write"
  | Compact_write -> "compact-write"
  | Compact_rename -> "compact-rename"
  | Scrub_read -> "scrub-read"

exception Injected of { point : point; transient : bool }

(* --------------------- deterministic storage faults --------------------- *)

type storage_fault =
  | Torn_write of float
  | Short_write of float
  | Fsync_fail
  | Crash
  | Flip_byte of float

exception Crashed of { point : point }

type fault_plan = {
  faults : (point * int * storage_fault) list;
  counts : (point, int) Hashtbl.t;
}

let plan_state : fault_plan option ref = ref None

let plan faults =
  List.iter
    (fun (_, _, f) ->
      match f with
      | Torn_write frac | Short_write frac | Flip_byte frac ->
          if frac < 0. || frac >= 1. then
            invalid_arg "Chaos.plan: torn/short/flip fraction must be in [0, 1)"
      | Fsync_fail | Crash -> ())
    faults;
  plan_state := Some { faults; counts = Hashtbl.create 8 }

let unplan () = plan_state := None

let take_fault pt =
  match !plan_state with
  | None -> None
  | Some p ->
      let n = Option.value ~default:0 (Hashtbl.find_opt p.counts pt) in
      Hashtbl.replace p.counts pt (n + 1);
      List.find_map
        (fun (pt', k, f) -> if pt' = pt && k = n then Some f else None)
        p.faults

let crossings pt =
  match !plan_state with
  | None -> 0
  | Some p -> Option.value ~default:0 (Hashtbl.find_opt p.counts pt)

(* The corruption primitive behind [Flip_byte]: damage one byte of a
   file in place, at [frac] of its size.  Storage code applies it to
   the file it is processing when a planned [Flip_byte] fires; the
   corruption-sweep harness also calls it directly to damage chosen
   segments.  No-op on an empty or missing file. *)
let flip_byte_in_file path frac =
  match (Unix.stat path).Unix.st_size with
  | 0 -> ()
  | size ->
      let off =
        max 0 (min (size - 1) (int_of_float (frac *. float_of_int size)))
      in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          let b = Bytes.create 1 in
          if Unix.read fd b 0 1 = 1 then begin
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            ignore (Unix.write fd b 0 1)
          end)
  | exception Unix.Unix_error _ -> ()

type stats = {
  mutable evaluations : int;
  mutable injected : int;
  mutable injected_transient : int;
}

type config = {
  rng : Putil.Rng.t;
  p : float;
  transient_ratio : float;
  stats : stats;
}

(* One global arming, matching the process-wide injection points.  The
   default is disarmed: [point] is a single load-and-branch, so shipping
   the hooks in the hot paths costs nothing when chaos is off. *)
let state : config option ref = ref None

let fresh_stats () = { evaluations = 0; injected = 0; injected_transient = 0 }

let arm ?(transient_ratio = 0.7) ~seed ~p () =
  let cfg =
    { rng = Putil.Rng.create seed; p; transient_ratio; stats = fresh_stats () }
  in
  state := Some cfg;
  cfg.stats

let disarm () = state := None

let armed () = !state <> None

let point pt =
  match !state with
  | None -> ()
  | Some cfg ->
      cfg.stats.evaluations <- cfg.stats.evaluations + 1;
      if Putil.Rng.float cfg.rng 1.0 < cfg.p then begin
        let transient = Putil.Rng.float cfg.rng 1.0 < cfg.transient_ratio in
        cfg.stats.injected <- cfg.stats.injected + 1;
        if transient then
          cfg.stats.injected_transient <- cfg.stats.injected_transient + 1;
        raise (Injected { point = pt; transient })
      end

let with_faults ?transient_ratio ~seed ~p f =
  let stats = arm ?transient_ratio ~seed ~p () in
  Fun.protect ~finally:disarm (fun () ->
      let r = f () in
      (r, stats))

(* ------------------------- transient retries ------------------------- *)

let default_attempts = 3
let default_backoff_ms = 1.0
let max_backoff_ms = 100.0

let default_sleep =
  ref (fun ms -> if ms > 0. then Unix.sleepf (ms /. 1000.))

let set_sleep f = default_sleep := f

(* Decorrelated jitter (the AWS formulation): each wait is uniform in
   [base, 3 × previous wait], capped.  Spreads concurrent retriers out
   instead of synchronizing them into waves, while the seeded stream
   keeps any single schedule reproducible. *)
let next_backoff rng ~base prev =
  let hi = Float.min max_backoff_ms (prev *. 3.) in
  if hi <= base then Float.min base max_backoff_ms
  else base +. Putil.Rng.float rng (hi -. base)

let retry ?(attempts = default_attempts) ?(backoff_ms = default_backoff_ms)
    ?(jitter_seed = 0x7e57) ?sleep f =
  let sleep = match sleep with Some s -> s | None -> !default_sleep in
  let rng = lazy (Putil.Rng.create jitter_seed) in
  let rec go n backoff =
    match f () with
    | v -> v
    | exception Injected { transient = true; _ } when n + 1 < attempts ->
        if backoff > 0. then sleep backoff;
        go (n + 1) (next_backoff (Lazy.force rng) ~base:backoff_ms backoff)
  in
  if attempts <= 0 then invalid_arg "Chaos.retry: attempts must be positive";
  go 0 backoff_ms
