type file_status = Store.file_status =
  | File_ok
  | File_torn_tail of int
  | File_damaged of Store.error

type file_report = {
  file : string;
  size : int;
  records : int;
  status : file_status;
}

type damage = { file : string; error : Store.error }

type report = { dir : string; files : file_report list; damaged : damage list }

let status_name = function
  | File_ok -> "ok"
  | File_torn_tail at -> Printf.sprintf "torn-tail@%d" at
  | File_damaged e -> Store.error_to_string e

let scan_file ~dir ~promised name =
  let c =
    Store.check_file ~dir ~promised name (fun ~pos:_ ~len:_ _ -> ())
  in
  { file = name; size = c.size; records = c.records; status = c.status }

let scan_dir dir =
  if Store.older_root dir then
    raise
      (Store.Store_error
         (Store.Malformed
            {
              file = dir;
              detail =
                "a set of copies written by an older build: serve adopts \
                 a one-copy set on its first open and refuses more";
            }));
  match Store.read_manifest dir with
  | None -> { dir; files = []; damaged = [] }
  | Some (sealed, wal) ->
      let files =
        List.map (fun (n, sz) -> scan_file ~dir ~promised:(Some sz) n) sealed
        @
        if Sys.file_exists (Filename.concat dir wal) then
          [ scan_file ~dir ~promised:None wal ]
        else []
      in
      let damaged =
        List.filter_map
          (fun fr ->
            match fr.status with
            | File_damaged e -> Some { file = fr.file; error = e }
            | File_ok | File_torn_tail _ -> None)
          files
      in
      { dir; files; damaged }
