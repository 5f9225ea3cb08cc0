(** Read-only scrub over a store directory's committed file set.

    The scrubber walks the files the manifest names, re-verifying every
    frame CRC and the manifest's promised sizes — the same checks
    recovery performs, runnable on demand against a quiescent directory
    (the [perso_cli scrub] subcommand drives it).  It never writes.

    Classification mirrors recovery exactly: a sealed segment that is
    short, torn, or checksum-damaged is {e damage}; the active WAL's
    torn tail is the legitimate crash signature ({!File_torn_tail}) and
    only a mid-file CRC mismatch there counts as damage.  Each file's
    report carries how many records its valid prefix decodes.

    Every file verification crosses the {!Relal.Chaos.Scrub_read} fault
    point; a planned [Flip_byte] there damages the file {e before} the
    check runs, so a test can prove the scrubber actually catches what
    it is pointed at. *)

type file_status =
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
    WAL last).  A directory without a manifest reports empty.
    @raise Store.Store_error ([Malformed]) on an unparseable manifest,
    or on a set of copies an older build wrote ({!Store.older_root}),
    which this read-only scan does not adopt.
    @raise Relal.Chaos.Crashed / [Injected] under planned scrub faults. *)
