type file_status =
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

(* One file under the scrubber's lens.  [promised = Some bytes] for
   sealed segments (the manifest's size is part of the contract);
   [None] for the active WAL, whose torn tail is a legitimate crash
   signature rather than damage. *)
let scan_file ~dir ~promised name =
  let path = Filename.concat dir name in
  if not (Sys.file_exists path) then
    {
      file = name;
      size = 0;
      records = 0;
      status =
        File_damaged (Store.Torn_log { file = name; detail = "file missing" });
    }
  else begin
    let data = In_channel.with_open_bin path In_channel.input_all in
    let size = String.length data in
    let records = ref 0 in
    let _, ending = Wal.scan_string data (fun ~pos:_ _ -> incr records) in
    let status =
      match promised with
      | Some p when size <> p ->
          File_damaged
            (Store.Torn_log
               {
                 file = name;
                 detail =
                   Printf.sprintf "%d bytes on disk, manifest says %d" size p;
               })
      | _ -> (
          match ending with
          | Wal.Clean -> File_ok
          | Wal.Torn { at; detail } ->
              if promised = None then File_torn_tail at
              else
                File_damaged
                  (Store.Torn_log
                     {
                       file = name;
                       detail = Printf.sprintf "at %d: %s" at detail;
                     })
          | Wal.Corrupt { at; detail } ->
              File_damaged
                (Store.Bad_crc
                   {
                     file = name;
                     detail = Printf.sprintf "at %d: %s" at detail;
                   }))
    in
    { file = name; size; records = !records; status }
  end

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
