(** CRC-framed append-only log files.

    Frame layout: [[u32le payload-length][u32le crc32(payload)][payload]].
    Appends are write-then-fsync; a failed append (I/O error, injected
    fault) truncates the file back to its pre-append size so an
    unacknowledged record never survives — except under a simulated
    {!Relal.Chaos.Crashed} kill, which deliberately leaves whatever
    prefix hit the disk for recovery to deal with.  An I/O failure on
    the file (open, write, fsync, close) raises [Sys_error] naming it
    ({!Relal.Csv.file_io}).

    {!scan} classifies the tail of a log precisely: [Torn] means the
    last frame is incomplete (header or payload cut short) — the
    signature of a crash mid-append, safe to truncate; [Corrupt] means a
    structurally complete frame whose checksum or length field is wrong
    — data damage that recovery must surface, never silently drop. *)

type t
(** An open append handle. *)

val header_bytes : int
(** Frame header size (8). *)

val frame : string -> string
(** The on-disk framing of a payload. *)

val open_append : ?fsync:bool -> string -> t
(** Open (creating if absent) for appends at the current end of file.
    [fsync] (default true) controls whether {!append} syncs each frame;
    sealed-segment writers turn it off and {!sync} once at the end. *)

val path : t -> string

val size : t -> int
(** Bytes of acknowledged frames (the pre-append offset of the next
    frame). *)

val append : ?point:Relal.Chaos.point -> t -> string -> int
(** Append one framed payload; returns the frame's starting offset.
    Crosses the probabilistic chaos hook and consults the deterministic
    fault plan at [point] (default {!Relal.Chaos.Wal_append}):
    [Torn_write] writes a strict prefix and raises [Crashed];
    [Short_write]/[Fsync_fail] roll the file back and raise a transient
    [Injected]; [Crash] raises [Crashed] before writing.  On any
    failure other than [Crashed] the file is truncated back to
    {!size}. *)

val sync : t -> unit
val close : t -> unit

(** {1 Reading} *)

type scan_end =
  | Clean
  | Torn of { at : int; detail : string }
      (** incomplete final frame starting at [at] — truncate to [at] *)
  | Corrupt of { at : int; detail : string }
      (** complete frame with bad CRC or absurd length at [at] *)

val scan_string : string -> (pos:int -> string -> unit) -> int * scan_end
(** Walk frames in [data], calling the callback with each valid
    payload and its frame offset; returns the byte length of the valid
    prefix and how the data ends. *)

val scan_file : string -> (pos:int -> string -> unit) -> int * scan_end
(** {!scan_string} over a whole file. [Sys_error] propagates. *)

val read_frame : path:string -> off:int -> len:int -> (string, string) result
(** Re-read one frame (full frame length [len] at [off]) and verify its
    header and CRC; [Ok payload] or [Error detail].  Used by point
    lookups and compaction, so silent disk corruption is caught on every
    read path, not just at recovery. *)
