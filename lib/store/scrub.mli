(** Read-only scrub over a store directory's committed file set.

    The scrubber walks the files the manifest names and gives each the
    verdict recovery gives it ({!Store.check_file}: promised sizes,
    frame CRCs, and every record decoded), runnable on demand against a
    quiescent directory (the [perso_cli scrub] subcommand drives it).
    It never writes.

    A sealed segment that is short, torn, checksum-damaged or holds a
    record that does not decode is {e damage}; the active WAL's torn
    tail is the legitimate crash signature ({!File_torn_tail}), and only
    a mid-file CRC mismatch or an undecodable record there counts as
    damage.  Each file's report carries how many records its valid
    prefix decodes. *)

type file_status = Store.file_status =
  | File_ok
  | File_torn_tail of int
      (** active WAL only: incomplete final frame at this offset —
          recovery truncates it, no acknowledged data lost *)
  | File_damaged of Store.error

type file_report = {
  file : string;
  size : int;  (** bytes on disk *)
  records : int;  (** decodable records in the valid prefix *)
  status : file_status;
}

type damage = { file : string; error : Store.error }

type report = { dir : string; files : file_report list; damaged : damage list }

val status_name : file_status -> string

val scan_dir : string -> report
(** Verify every manifest-named file ([files] in manifest order, active
    WAL last).  A directory without a manifest is judged by
    {!Store.open_}'s rule for one: a sealed segment there is damage
    (recovery's [Malformed] error), and so is a store file name
    ({!Store.is_store_file}) that is not a regular file, such as a WAL
    path that is a directory; nothing else is reported.
    @raise Store.Store_error ([Malformed]) on an unparseable manifest,
    or on a set of copies an older build wrote ({!Store.older_root}),
    which this read-only scan does not adopt.
    @raise Relal.Chaos.Crashed / [Injected] under planned scrub faults. *)

type shard = { name : string; report : report option }
(** One shard of a server root: its directory name ([shard-NN]), and
    its {!scan_dir} report, or [None] when the directory is missing. *)

val scan_root : string -> shard list
(** The shards of a server root, by name: every one its [SHARDS] marker
    promises ({!Store.read_shard_marker}) and any other [shard-]
    directory present.  A promised shard that is missing is reported
    with [report = None], not as damage: recovery creates it empty.
    @raise Store.Store_error as {!scan_dir} does, and on an unreadable
    marker. *)
