(** Log-structured on-disk profile store.

    Layout of a store directory:

    {v
    MANIFEST            committed file set (tmp + fsync + atomic rename)
    wal-000007.log      active write-ahead log (CRC-framed records)
    seg-000005.dat      sealed segments, replayed oldest-first
    v}

    Every mutation is one {!Codec.record} appended to the active WAL and
    fsynced before it is acknowledged.  When the WAL passes
    [segment_bytes] it is sealed into the segment list and a fresh one
    started; when enough sealed segments pile up they are compacted into
    a single segment holding each user's latest record — including
    [Delete] tombstones, which must survive compaction so revision
    high-water marks outlive restarts and deletions.

    {b Recovery} ([open_]) replays sealed segments oldest-first, then
    the active WAL.  Sealed segments were fsynced before the manifest
    named them, so any damage there is real corruption: a short or torn
    segment surfaces as {!Torn_log}, a checksum mismatch as {!Bad_crc}.
    The active WAL's tail is different — a crash mid-append legitimately
    leaves a partial frame, so a torn tail is truncated (counted in
    {!stats}) and everything before it replayed; a CRC mismatch {e not}
    at the tail is still {!Bad_crc}.  Files in the directory that the
    manifest does not name (crash leftovers from rotation, compaction,
    or init) are removed.

    {b Older roots.}  Builds before this one kept each store as a set of
    copies ([r0/], [r1/], … plus a [REPLSTATE] file).  Opening such a
    directory adopts a one-copy set in place, once ([r0]'s data files
    move up, its manifest last, so a crash mid-move resumes on the next
    open), and refuses a set of several copies with {!Malformed} naming
    the directory.

    All operations are serialized by an internal mutex; concurrency
    comes from sharding (one store per shard), not from intra-store
    parallelism. *)

type config = {
  segment_bytes : int;  (** seal the active WAL beyond this size *)
  compact_segments : int;  (** compact when this many sealed segments *)
  fsync : bool;  (** fsync each acknowledged append (tests turn off) *)
}

val default_config : config
(** 4 MiB segments, compaction at 4 sealed segments, fsync on. *)

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
(** Open (creating the directory and an empty store if needed) and run
    recovery.  Structural damage returns [Error].  A failure to read or
    write a store file (WAL, segment, manifest) raises [Sys_error]
    naming the file, here and in every other operation of this module,
    which [Perso.Error] types as a storage error. *)

val open_ : ?config:config -> string -> t
(** {!open_r}, raising {!Store_error}. *)

val dir : t -> string

val older_root : string -> bool
(** Whether a directory is a set of copies an earlier build wrote (it
    holds [REPLSTATE]), which {!open_} adopts or refuses. *)

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
    damage.  [None] for the active WAL: a missing file is an empty log,
    and a torn final frame is {!File_torn_tail}.  Every record of the
    valid prefix is decoded and passed to [f] with its frame's offset
    and full length; the first record that does not decode stops the
    calls and is damage ([Malformed]), however sound its checksum.
    When several faults apply, a missing file wins, then a size
    mismatch, then an undecodable record, then how the frames end. *)

val read_manifest : string -> ((string * int) list * string) option
(** [read_manifest dirname] parses the committed manifest:
    [(sealed (name, size) list, active wal name)], or [None] when the
    directory has no manifest (fresh or never-initialized).  The
    scrubber ({!Scrub}) reads the committed file set this way, without
    opening a handle.
    @raise Store_error ([Malformed]) on an unparseable manifest. *)

val save : t -> user:string -> revision:int -> Codec.entry list -> unit
(** Append a [Put] and fsync.  On return the record is durable; on any
    exception it is guaranteed absent (failed appends truncate back),
    except under a simulated crash where recovery enforces the same
    all-or-nothing outcome. *)

val delete : t -> user:string -> revision:int -> unit
(** Append a [Delete] tombstone (revision is kept across restarts). *)

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
  rotations : int;
  compactions : int;
  compact_failures : int;  (** auto-compactions aborted by faults *)
  torn_truncated : int;  (** torn WAL tails truncated at recovery *)
  segments : int;  (** sealed segments currently on disk *)
  live_users : int;
  wal_bytes : int;  (** size of the active WAL *)
}

val stats : t -> stats

val compact_now : t -> unit
(** Seal the active WAL (if non-empty) and compact everything into a
    single segment.  Benchmarks and tests; the serve path relies on the
    automatic trigger. *)

val sync : t -> unit
val close : t -> unit

val abandon : t -> unit
(** Drop the handle without syncing — closes descriptors and nothing
    else, simulating a process kill for the crash-recovery harness.
    The next {!open_} sees exactly what a real crash would leave. *)
