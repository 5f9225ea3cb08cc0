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
    damage.  A directory recovery refuses whole is damage too.  Each
    file's report carries how many records its valid prefix decodes. *)

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
    WAL last).  A directory recovery refuses whole (files but no
    [MANIFEST], or an unparseable one) is one damaged [MANIFEST] entry
    with recovery's error; an absent or empty one reports nothing.
    @raise Store.Store_error ([Malformed]) on a set of copies an older
    build wrote ({!Store.older_root}), which this read-only scan does
    not adopt.
    @raise Relal.Chaos.Crashed / [Injected] under planned scrub faults. *)

type shard = { name : string; report : report }
(** One shard of a server root: its directory name ([shard-NN]). *)

val scan_root : string -> shard list
(** The shards of a committed server root, by name: every one its
    [SHARDS] marker promises ({!Store.read_shard_marker}) and any other
    [shard-] directory present.  A promised shard {!Store.check_shard}
    refuses is one damaged [MANIFEST] entry with recovery's error, so
    the scrub reports damage exactly where recovery refuses.
    @raise Store.Store_error as {!scan_dir} does, and on an unreadable
    marker. *)
