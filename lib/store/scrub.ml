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

(* A directory without a manifest, by [Store.open_]'s rule: recovery
   refuses a sealed segment there, and deletes every other store file,
   which it cannot do to one that is not a regular file (the WAL path
   being a directory fails the fresh store it then creates).  Both are
   damage; a regular WAL there is a crash during init, and no damage. *)
let scan_unmanifested dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun name ->
         let damaged error =
           Some
             { file = name; size = 0; records = 0; status = File_damaged error }
         in
         match Store.orphan_segment name with
         | Some e -> damaged e
         | None ->
             if
               Store.is_store_file name
               && (Unix.lstat (Filename.concat dir name)).Unix.st_kind
                  <> Unix.S_REG
             then
               damaged
                 (Store.Malformed
                    { file = name; detail = "not a regular file" })
             else None)

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
  let files =
    match Store.read_manifest dir with
    | None -> scan_unmanifested dir
    | Some (sealed, wal) ->
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

type shard = { name : string; report : report option }

let scan_root root =
  let promised =
    List.init
      (Option.value ~default:0 (Store.read_shard_marker root))
      (fun i -> Filename.basename (Store.shard_dir root i))
  in
  let present =
    Sys.readdir root |> Array.to_list
    |> List.filter (fun n -> String.length n > 6 && String.sub n 0 6 = "shard-")
  in
  List.map
    (fun name ->
      let dir = Filename.concat root name in
      let report = if Sys.file_exists dir then Some (scan_dir dir) else None in
      { name; report })
    (List.sort_uniq compare (promised @ present))
