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

let report dir files =
  let damaged =
    List.filter_map
      (fun fr ->
        match fr.status with
        | File_damaged e -> Some { file = fr.file; error = e }
        | File_ok | File_torn_tail _ -> None)
      files
  in
  { dir; files; damaged }

(* A directory recovery refuses whole, by the verdict it gives. *)
let refused dir error =
  report dir
    [ { file = "MANIFEST"; size = 0; records = 0; status = File_damaged error } ]

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
  | exception Store.Store_error e -> refused dir e
  | None -> report dir []
  | Some (sealed, wal) ->
      report dir
        (List.map (fun (n, sz) -> scan_file ~dir ~promised:(Some sz) n) sealed
        @ [ scan_file ~dir ~promised:None wal ])

type shard = { name : string; report : report }

let scan_root root =
  let promised =
    List.init
      (Option.value ~default:0 (Store.read_shard_marker root))
      (fun i -> (Filename.basename (Store.shard_dir root i), i))
  in
  let present =
    Sys.readdir root |> Array.to_list
    |> List.filter (fun n -> String.length n > 6 && String.sub n 0 6 = "shard-")
  in
  List.map
    (fun name ->
      let dir = Filename.concat root name in
      let report =
        match List.assoc_opt name promised with
        | None -> scan_dir dir
        | Some i -> (
            match Store.check_shard root i with
            | () -> scan_dir dir
            | exception Store.Store_error e -> refused dir e)
      in
      { name; report })
    (List.sort_uniq compare (List.map fst promised @ present))
