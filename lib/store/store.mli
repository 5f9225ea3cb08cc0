(** Log-structured on-disk profile store.

    Layout of a store directory:

    {v
    MANIFEST            committed file set (tmp + fsync + atomic rename)
    seg-000006.dat      sealed segment: each user's latest record
    wal-000007.log      active write-ahead log (CRC-framed records)
    v}

    Every mutation is one {!Codec.record} appended to the active WAL and
    fsynced before it is acknowledged.  {b Maintenance} is one step: it
    writes each user's latest record into a fresh segment — including
    [Delete] tombstones, which must survive so revision high-water marks
    outlive restarts and deletions — creates a fresh empty WAL, and
    commits both with one [MANIFEST] swap, after which the old segments
    and WAL are removed.  It runs after an append once the WAL has grown
    by max([segment_bytes], the sealed segments' bytes) since the last
    attempt, so its cost stays proportional to the bytes appended.  It
    never fails that append: a failed attempt (an I/O error such as a
    full disk, a damaged frame it re-reads, an injected fault) removes
    its new files, is counted in {!stats}, and the next attempt waits
    for the same growth again.

    {b A directory exists only once complete.}  {!open_} builds a new
    store with {!build_staged}: its first WAL and [MANIFEST] durable
    under a sibling staging name, then renamed into place.  So a
    directory holding a [MANIFEST] is recovered; an absent or empty one
    is created; anything else is refused with {!Malformed} naming the
    path, since no build of this store leaves one.

    {b Recovery} replays sealed segments oldest-first, then
    the active WAL.  Sealed segments were fsynced before the manifest
    named them, so any damage there is real corruption: a short or torn
    segment surfaces as {!Torn_log}, a checksum mismatch as {!Bad_crc}.
    The active WAL's tail is different — a crash mid-append legitimately
    leaves a partial frame, so a torn tail is truncated (counted in
    {!stats}) and everything before it replayed; a CRC mismatch {e not}
    at the tail is still {!Bad_crc}.  Files in the directory that the
    manifest does not name (crash leftovers from maintenance) are
    removed.  Any number of sealed segments recovers, the layout earlier
    builds wrote; the first maintenance folds them into one.

    {b Older roots.}  Builds before this one kept each store as a set of
    copies ([r0/], [r1/], … plus a [REPLSTATE] file).  Opening such a
    directory adopts a one-copy set in place, once ([r0]'s data files
    move up, its manifest last, so a crash mid-move resumes on the next
    open), and refuses a set of several copies with {!Malformed} naming
    the directory.  The adoption runs before the rule above.

    All operations are serialized by an internal mutex; concurrency
    comes from sharding (one store per shard), not from intra-store
    parallelism. *)

type config = {
  segment_bytes : int;
      (** the least WAL growth between two maintenance attempts *)
  fsync : bool;  (** fsync each acknowledged append (tests turn off) *)
}

val default_config : config
(** 4 MiB segments, fsync on. *)

type error =
  | Torn_log of { file : string; detail : string }
      (** a sealed segment is shorter than the manifest promises or
          ends mid-frame — durable data went missing *)
  | Bad_crc of { file : string; detail : string }
      (** a structurally complete frame failed its checksum *)
  | Malformed of { file : string; detail : string }
      (** manifest or record contents unparseable *)

exception Store_error of error

val error_to_string : error -> string

type t

val open_r : ?config:config -> string -> (t, error) result
(** Open the store at a directory by the rule above (creating it if it
    was never made) and run recovery.  Structural damage, and a
    directory the rule refuses, return [Error].  A failure to read or
    write a store file (WAL, segment, manifest) raises [Sys_error]
    naming the file, here and in every other operation of this module,
    which [Perso.Error] types as a storage error. *)

val open_ : ?config:config -> string -> t
(** {!open_r}, raising {!Store_error}. *)

val older_root : string -> bool
(** Whether a directory is a set of copies an earlier build wrote (it
    holds [REPLSTATE]), which {!open_} adopts or refuses. *)

val build_staged : string -> (string -> unit) -> unit
(** [build_staged dir build] makes [dir] complete or not at all: it
    replaces any staging directory ([.NAME.staging] beside [dir]) with
    an empty one, runs [build staging], which leaves its contents
    durable, and renames it to [dir] (absent or an empty directory),
    fsyncing both directories.  If [build] raises, the staging
    directory is removed, except under a simulated kill
    ([Relal.Chaos.Crashed]), and the exception re-raised. *)

(** {2 Sharded roots}

    A server root holds one store per shard, [shard-00/] and on, and a
    [SHARDS] marker recording how many it was created with.  It is made
    by {!build_staged} too, and judged by the same rule with [SHARDS]
    as its marker. *)

val shards_marker : string
val shard_dir : string -> int -> string
(** [shard_dir root i] is shard [i]'s store directory. *)

val read_shard_marker : string -> int option
(** The shard count a committed root's marker records; [None] when the
    root is absent or an empty directory.
    @raise Store_error ([Malformed] naming the path) on an unreadable
    marker, and where the rule refuses the root. *)

val write_shard_marker : string -> int -> unit
(** Write the marker durably (file and directory fsynced). *)

val check_shard : string -> int -> unit
(** [check_shard root i] returns when shard [i] of a committed root
    holds a [MANIFEST] (or an older build's set of copies, which
    {!open_} adopts), as every shard was before the root was renamed
    into place; recovery and the scrubber both judge shards by it.
    @raise Store_error ([Malformed] naming the shard's directory)
    otherwise. *)

type file_status =
  | File_ok
  | File_torn_tail of int
      (** active WAL only: incomplete final frame at this offset —
          recovery truncates it, no acknowledged data lost *)
  | File_damaged of error

type file_check = {
  size : int;  (** bytes on disk *)
  records : int;  (** records decoded in the valid prefix *)
  status : file_status;
}

val check_file :
  dir:string ->
  promised:int option ->
  string ->
  (pos:int -> len:int -> Codec.record -> unit) ->
  file_check
(** [check_file ~dir ~promised name f]: the verdict on one committed
    file, the one both recovery ({!open_}) and the scrubber ({!Scrub})
    give.  [promised = Some bytes] for a sealed segment: a missing file,
    a size other than the manifest's, a torn frame or a bad checksum is
    damage.  [None] for the active WAL: a missing file is damage to the
    manifest that names it ([Malformed], naming [MANIFEST]; the first
    open and every maintenance create the WAL before the manifest names
    it), and a torn final frame is {!File_torn_tail}.  A path that is a
    directory is damage ([Malformed]) either way.  Every record of the
    valid prefix is decoded and passed to [f] with its frame's offset
    and full length; the first record that does not decode stops the
    calls and is damage ([Malformed]), however sound its checksum.
    When several faults apply, a missing file wins, then a
    directory, then a size mismatch, then an undecodable
    record, then how the frames end. *)

val read_manifest : string -> ((string * int) list * string) option
(** [read_manifest dirname] parses the committed manifest:
    [(sealed (name, size) list, active wal name)], or [None] when the
    directory is absent or empty (never made).  The scrubber ({!Scrub})
    reads the committed file set this way, without opening a handle.
    @raise Store_error ([Malformed]) on an unparseable manifest, and
    where {!open_} refuses the directory. *)

val save : t -> user:string -> revision:int -> Codec.entry list -> unit
(** Append a [Put] and fsync, then run maintenance if it is due.  On
    return the record is durable; on any exception it is guaranteed
    absent (failed appends truncate back, and a failed maintenance is
    contained and counted, never raised), except under a simulated crash
    where recovery enforces the same all-or-nothing outcome. *)

val delete : t -> user:string -> revision:int -> unit
(** Append a [Delete] tombstone (revision is kept across restarts), with
    {!save}'s contract. *)

val load : t -> user:string -> Codec.entry list option
(** Point lookup by re-reading the record's frame from disk (CRC
    verified on every read).  [None] for absent or deleted users. *)

val revision : t -> user:string -> int
(** Last acknowledged revision for the user, 0 if never seen. *)

val revisions : t -> (string * int) list
(** All known (user, revision) pairs, deleted users included, sorted. *)

val users : t -> string list
(** Live (non-deleted) users, sorted. *)

val iter : t -> (user:string -> revision:int -> Codec.entry list -> unit) -> unit
(** Iterate live profiles in sorted user order (reads each from disk). *)

type stats = {
  appends : int;  (** acknowledged WAL appends since open *)
  compactions : int;  (** maintenance steps committed since open *)
  compact_failures : int;
      (** maintenance attempts after an append that failed and were
          contained *)
  torn_truncated : int;  (** torn WAL tails truncated at recovery *)
  segments : int;
      (** sealed segments on disk: one after any maintenance *)
  live_users : int;
  wal_bytes : int;  (** size of the active WAL *)
}

val stats : t -> stats

val compact_now : t -> unit
(** Run the maintenance step now, leaving one segment and an empty WAL.
    Benchmarks and tests; the serve path relies on the automatic
    trigger.  Unlike that trigger it raises what the step raised, after
    removing the step's new files. *)

val close : t -> unit

val abandon : t -> unit
(** Drop the handle without syncing — closes descriptors and nothing
    else, simulating a process kill for the crash-recovery harness.
    The next {!open_} sees exactly what a real crash would leave. *)
