(** Deterministic fault injection.

    When armed, each named injection {!point} flips a seeded coin and
    raises {!Injected} with probability [p]; a slice of the injected
    faults is marked transient (retryable).  The points sit on the
    system's failure surfaces: table scans, hash-join build and probe
    phases, profile loading, in-place store mutation, and persistence
    writes.  Because the coin stream comes from a {!Putil.Rng} seeded at
    arm time and the engine is deterministic, a chaos run is exactly
    reproducible from its seed — the property the [make chaos] suite
    relies on.

    Disarmed (the default), every hook is a single load-and-branch. *)

type point =
  | Scan  (** base-table scan / access-path materialization *)
  | Join_build  (** hash-join build phase *)
  | Join_probe  (** hash-join probe phase / index-NL probe loop *)
  | Profile_load  (** reading a profile (file or in-database store) *)
  | Store_mutate
      (** in-place mutation of an in-database store (e.g. the
          profile-table rewrite a [PROFILE SAVE] performs) *)
  | Persist_write  (** writing a table dump *)
  | Wal_append  (** appending a CRC-framed record to a write-ahead log *)
  | Wal_fsync  (** fsyncing a write-ahead log after an append *)
  | Manifest_write  (** replacing a store manifest (tmp + rename) *)
  | Compact_write  (** copying one live record during compaction *)
  | Compact_rename  (** committing a compaction (manifest swap) *)
  | Scrub_read  (** scrubber verifying one store file's frames *)

val point_name : point -> string

exception Injected of { point : point; transient : bool }

(** {1 Deterministic storage faults}

    Orthogonal to the probabilistic layer: a {e plan} arms an exact
    schedule of storage faults, each firing at the [k]-th crossing
    (0-based, counted per point) of a named fault point.  Storage code
    consults {!take_fault} at each site and simulates the returned
    fault; the crash-recovery harness uses the crossing counters to
    enumerate every kill site for a given operation sequence and then
    replays with a fault planted at each one in turn. *)

type storage_fault =
  | Torn_write of float
      (** write only a strict-prefix fraction of the payload, then die
          mid-write (simulated by {!Crashed}); fraction in [0, 1) *)
  | Short_write of float
      (** a partial write that the caller {e observes} as a transient
          error (the storage layer must roll it back); fraction in
          [0, 1) *)
  | Fsync_fail
      (** the write lands but fsync reports a transient failure — the
          record must not be acknowledged *)
  | Crash  (** die before the operation touches the disk *)
  | Flip_byte of float
      (** silent corruption: one byte of the file being processed is
          flipped in place, at this fraction of its size (in [0, 1));
          the operation itself proceeds — damage surfaces later, at the
          CRC check of whichever read path touches the byte *)

exception Crashed of { point : point }
(** The simulated kill.  Storage code raising this must {e not} clean
    up (no truncate-on-error, no temp-file removal) — that is the whole
    point: recovery has to cope with whatever was left behind. *)

val plan : (point * int * storage_fault) list -> unit
(** Arm a deterministic fault schedule: [(pt, k, f)] fires fault [f] at
    the [k]-th crossing of [pt].  Replaces any previous plan and resets
    the crossing counters.
    @raise Invalid_argument on a torn/short fraction outside [0, 1). *)

val unplan : unit -> unit
(** Drop the plan (storage fault sites become free of overhead again). *)

val take_fault : point -> storage_fault option
(** Consulted by storage code at each fault site.  Increments the
    point's crossing counter and returns the planned fault for this
    crossing, if any.  Always [None] when no plan is armed. *)

val crossings : point -> int
(** How many times {!take_fault} has been consulted for [point] under
    the current plan (0 when no plan is armed).  Run an operation
    sequence under an empty plan ([plan []]) to count kill sites. *)

val flip_byte_in_file : string -> float -> unit
(** [flip_byte_in_file path frac] XOR-flips the byte at [frac] of the
    file's size (clamped to a real offset) — the corruption primitive
    behind {!Flip_byte}, also called directly by the corruption-sweep
    harness.  No-op on an empty or missing file. *)

type stats = {
  mutable evaluations : int;  (** coin flips (points crossed) *)
  mutable injected : int;  (** faults raised *)
  mutable injected_transient : int;
}

val arm : ?transient_ratio:float -> seed:int -> p:float -> unit -> stats
(** Arm global injection with probability [p] per point crossing;
    [transient_ratio] (default 0.7) of injected faults are transient.
    Returns the live counters.  Re-arming replaces the previous config. *)

val disarm : unit -> unit

val armed : unit -> bool

val point : point -> unit
(** Injection hook.  @raise Injected with probability [p] when armed. *)

val with_faults :
  ?transient_ratio:float -> seed:int -> p:float -> (unit -> 'a) -> 'a * stats
(** Run [f] with injection armed, disarming afterwards (also on
    exceptions); returns the result plus the fault counters. *)

val set_sleep : (float -> unit) -> unit
(** Replace the process-wide default sleep used by {!retry} backoff
    (argument in milliseconds; the default calls [Unix.sleepf]).  Test
    suites install [ignore] so retries stop costing wall-clock; a
    per-call [?sleep] to {!retry} takes precedence. *)

val retry :
  ?attempts:int ->
  ?backoff_ms:float ->
  ?jitter_seed:int ->
  ?sleep:(float -> unit) ->
  (unit -> 'a) ->
  'a
(** Run [f], retrying on {e transient} {!Injected} faults up to
    [attempts] times total (default 3).  Waits between attempts follow
    decorrelated jitter: each wait is drawn uniformly from
    [\[backoff_ms, 3 × previous wait\]] (seeded by [jitter_seed], so a
    retry schedule is reproducible), capped at 100 ms, starting at
    [backoff_ms] (default 1 ms).  [sleep] receives each wait in
    milliseconds (default: the process-wide sleep, see {!set_sleep}).
    Permanent faults and every other exception propagate immediately;
    the last transient fault propagates once attempts are spent.
    @raise Invalid_argument if [attempts <= 0]. *)
