module Chaos = Relal.Chaos
module Csv = Relal.Csv

type config = { segment_bytes : int; fsync : bool }

let default_config = { segment_bytes = 4 lsl 20; fsync = true }

type error =
  | Torn_log of { file : string; detail : string }
  | Bad_crc of { file : string; detail : string }
  | Malformed of { file : string; detail : string }

exception Store_error of error

let error_to_string = function
  | Torn_log { file; detail } ->
      Printf.sprintf "torn log %s: %s" file detail
  | Bad_crc { file; detail } ->
      Printf.sprintf "bad checksum in %s: %s" file detail
  | Malformed { file; detail } ->
      Printf.sprintf "malformed store file %s: %s" file detail

let store_err e = raise (Store_error e)

(* Index entry: where the user's latest record lives.  [loc = None] is
   a tombstone — the user is deleted but the revision high-water mark
   must survive (maintenance rewrites tombstones, never drops them). *)
type meta = {
  loc : (int * int) option;  (* frame (offset, full length) in [file] *)
  revision : int;
  file : string;
}

type t = {
  dirname : string;
  cfg : config;
  m : Mutex.t;
  index : (string, meta) Hashtbl.t;
  mutable wal : Wal.t;
  mutable wal_name : string;
  mutable sealed : (string * int) list;  (* (file, bytes), oldest first *)
  mutable seq : int;  (* last file sequence number handed out *)
  mutable grown_from : int;  (* WAL size at the last maintenance attempt *)
  mutable closed : bool;
  mutable n_appends : int;
  mutable n_compactions : int;
  mutable n_compact_failures : int;
  mutable n_torn : int;
}

let manifest_name = "MANIFEST"
let manifest_tmp = "MANIFEST.tmp"
let wal_file seq = Printf.sprintf "wal-%06d.log" seq
let seg_file seq = Printf.sprintf "seg-%06d.dat" seq
let in_dir t name = Filename.concat t.dirname name

let is_store_file name =
  name = manifest_tmp
  || (String.length name >= 4
     && (String.sub name 0 4 = "wal-" || String.sub name 0 4 = "seg-"))

(* ----------------------- complete directories ----------------------- *)

(* A durable directory, a store or a server root of stores, exists only
   once complete ([build_staged]): absent or empty, it was never made;
   holding files but not its marker ([MANIFEST], [SHARDS]), this build
   did not make it. *)
let made ~marker dir =
  let refuse detail = store_err (Malformed { file = dir; detail }) in
  if not (Sys.file_exists dir) then false
  else if not (Sys.is_directory dir) then refuse "not a directory"
  else if Sys.file_exists (Filename.concat dir marker) then true
  else if Sys.readdir dir = [||] then false
  else
    refuse
      ("holds files but no " ^ marker
     ^ ", so this build did not make it; move them away")

(* The staging name starts with a dot, so no [shard-] scan of a root
   takes it for a shard.  A simulated kill cleans nothing up: the next
   build removes what it left. *)
let build_staged dir build =
  let parent = Filename.dirname dir in
  let staging = Filename.concat parent ("." ^ Filename.basename dir ^ ".staging") in
  Csv.rm_rf staging;
  Sys.mkdir staging 0o755;
  (try
     build staging;
     Csv.fsync_dir staging;
     Sys.rename staging dir
   with e ->
     (match e with
     | Chaos.Crashed _ -> ()
     | _ -> ( try Csv.rm_rf staging with Sys_error _ -> ()));
     raise e);
  Csv.fsync_dir parent

(* ------------------------- sharded roots -------------------------- *)

let shards_marker = "SHARDS"
let shard_dir root i = Filename.concat root (Printf.sprintf "shard-%02d" i)

let read_shard_marker root =
  if not (made ~marker:shards_marker root) then None
  else
    let path = Filename.concat root shards_marker in
    let text =
      String.trim (In_channel.with_open_bin path In_channel.input_all)
    in
    match String.split_on_char ' ' text with
    | [ "perso-shards"; count ] when int_of_string_opt count <> None ->
        int_of_string_opt count
    | _ ->
        store_err
          (Malformed { file = path; detail = "unreadable shard marker" })

let write_shard_marker root n =
  Csv.write_file_sync
    (Filename.concat root shards_marker)
    (Printf.sprintf "perso-shards %d\n" n);
  Csv.fsync_dir root

(* ----------------------------- manifest ----------------------------- *)

let manifest_text ~sealed ~wal =
  let b = Buffer.create 256 in
  Buffer.add_string b "perso-store 1\n";
  List.iter
    (fun (name, size) ->
      Buffer.add_string b (Printf.sprintf "segment %s %d\n" name size))
    sealed;
  Buffer.add_string b (Printf.sprintf "wal %s\n" wal);
  Buffer.contents b

let parse_manifest ~file text =
  let malformed detail = store_err (Malformed { file; detail }) in
  match String.split_on_char '\n' text |> List.filter (fun l -> l <> "") with
  | [] -> malformed "empty manifest"
  | header :: lines ->
      if header <> "perso-store 1" then
        malformed (Printf.sprintf "unknown header %S" header);
      let sealed = ref [] and wal = ref None in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "segment"; name; size ] -> (
              match int_of_string_opt size with
              | Some size -> sealed := (name, size) :: !sealed
              | None -> malformed (Printf.sprintf "bad segment line %S" line))
          | [ "wal"; name ] ->
              if !wal <> None then malformed "duplicate wal line";
              wal := Some name
          | _ -> malformed (Printf.sprintf "unparseable line %S" line))
        lines;
      let wal =
        match !wal with Some w -> w | None -> malformed "no wal line"
      in
      (List.rev !sealed, wal)

(* Manifest replacement is the commit point of maintenance:
   tmp + fsync + atomic rename, the same discipline as [Csv.save_db_r].
   The deterministic fault plan can kill or fail it. *)
let write_manifest dir ~sealed ~wal =
  let path = Filename.concat dir in
  let flip = ref None in
  (match Chaos.take_fault Chaos.Manifest_write with
  | None -> ()
  | Some (Chaos.Flip_byte frac) -> flip := Some frac
  | Some Chaos.Crash -> raise (Chaos.Crashed { point = Chaos.Manifest_write })
  | Some (Chaos.Torn_write frac) ->
      let text = manifest_text ~sealed ~wal in
      let keep =
        max 0 (min (String.length text - 1)
                 (int_of_float (frac *. float_of_int (String.length text))))
      in
      (try Csv.write_file_sync (path manifest_tmp) (String.sub text 0 keep)
       with _ -> ());
      raise (Chaos.Crashed { point = Chaos.Manifest_write })
  | Some (Chaos.Short_write _) | Some Chaos.Fsync_fail ->
      raise (Chaos.Injected { point = Chaos.Manifest_write; transient = true }));
  Chaos.point Chaos.Manifest_write;
  Csv.write_file_sync (path manifest_tmp) (manifest_text ~sealed ~wal);
  Sys.rename (path manifest_tmp) (path manifest_name);
  Csv.fsync_dir dir;
  Option.iter
    (fun frac -> Chaos.flip_byte_in_file (path manifest_name) frac)
    !flip

(* ----------------------------- recovery ----------------------------- *)

let seq_of_name name =
  match int_of_string_opt (String.sub name 4 6) with
  | Some n -> n
  | None -> 0
  | exception Invalid_argument _ -> 0

(* One verdict per committed file, shared by recovery and the scrubber
   so the two cannot disagree (the interface lists the verdicts).  A
   missing active WAL is damage to the manifest: the first open and
   every maintenance create the file before the manifest names it, so a
   name with no file behind it is a damaged manifest (or a hand
   deletion), refused before [remove_strays] could delete the WAL the
   manifest meant. *)
type file_status = File_ok | File_torn_tail of int | File_damaged of error

type file_check = { size : int; records : int; status : file_status }

let check_file ~dir ~promised name f =
  let path = Filename.concat dir name in
  let empty status = { size = 0; records = 0; status } in
  if not (Sys.file_exists path) then
    empty
      (File_damaged
         (match promised with
         | None ->
             Malformed
               {
                 file = manifest_name;
                 detail =
                   Printf.sprintf "names the active WAL %s, which does not exist"
                     name;
               }
         | Some _ -> Torn_log { file = name; detail = "sealed segment missing" }))
  else if Sys.is_directory path then
    empty
      (File_damaged
         (Malformed { file = name; detail = "a directory, not a file" }))
  else begin
    let data = In_channel.with_open_bin path In_channel.input_all in
    let size = String.length data in
    let records = ref 0 and undecodable = ref None in
    let _, ending =
      Wal.scan_string data (fun ~pos payload ->
          if !undecodable = None then
            match Codec.decode_record payload with
            | Ok record ->
                incr records;
                f ~pos ~len:(Wal.header_bytes + String.length payload) record
            | Error detail ->
                undecodable :=
                  Some
                    (Malformed
                       {
                         file = name;
                         detail = Printf.sprintf "record at %d: %s" pos detail;
                       }))
    in
    let at_offset at detail = Printf.sprintf "at %d: %s" at detail in
    let status =
      match (promised, !undecodable, ending) with
      | Some p, _, _ when size <> p ->
          File_damaged
            (Torn_log
               {
                 file = name;
                 detail =
                   Printf.sprintf "%d bytes on disk, manifest says %d" size p;
               })
      | _, Some e, _ -> File_damaged e
      | _, None, Wal.Clean -> File_ok
      | None, None, Wal.Torn { at; _ } -> File_torn_tail at
      | Some _, None, Wal.Torn { at; detail } ->
          File_damaged (Torn_log { file = name; detail = at_offset at detail })
      | _, None, Wal.Corrupt { at; detail } ->
          File_damaged (Bad_crc { file = name; detail = at_offset at detail })
    in
    { size; records = !records; status }
  end

let truncate_file path len =
  Csv.file_io path @@ fun () ->
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd len;
      Unix.fsync fd)

(* Replay one committed file into [index]; the number of torn tails
   truncated (0 or 1, the active WAL only).  The torn tail is the crash
   signature: an append died mid-frame.  Everything before it was
   acknowledged (or is replay-equivalent); nothing after ever was. *)
let replay ~dirname ~index ~promised name =
  let c =
    check_file ~dir:dirname ~promised name (fun ~pos ~len record ->
        let meta loc revision = { loc; revision; file = name } in
        match record with
        | Codec.Put { user; revision; _ } ->
            Hashtbl.replace index user (meta (Some (pos, len)) revision)
        | Codec.Delete { user; revision } ->
            Hashtbl.replace index user (meta None revision))
  in
  match c.status with
  | File_ok -> 0
  | File_torn_tail at ->
      truncate_file (Filename.concat dirname name) at;
      1
  | File_damaged e -> store_err e

let remove_strays t ~keep =
  Array.iter
    (fun name ->
      if is_store_file name && not (List.mem name keep) then
        try Sys.remove (in_dir t name) with Sys_error _ -> ())
    (Sys.readdir t.dirname)

(* Earlier builds kept each store as a set of copies: member
   directories [r0/], [r1/], ... and a [REPLSTATE] file whose first line
   pins their count.  A one-copy set is a store one level down: adopt
   [r0] in place, data files first and the manifest last, so a crash
   mid-move leaves [r0]'s manifest behind and the next open resumes.  A
   set of several copies is refused, naming the directory: choosing
   which copy holds the acknowledged data is an operator's call. *)
let replstate_name = "REPLSTATE"

let older_root dirname =
  Sys.file_exists (Filename.concat dirname replstate_name)

let adopt_replica_set dirname =
  let state = Filename.concat dirname replstate_name in
  if older_root dirname then begin
    let header =
      In_channel.with_open_bin state In_channel.input_line
      |> Option.value ~default:""
    in
    (match String.split_on_char ' ' header with
    | [ "perso-replicas"; "1" ] -> ()
    | [ "perso-replicas"; n ] when int_of_string_opt n <> None ->
        store_err
          (Malformed
             {
               file = dirname;
               detail =
                 Printf.sprintf
                   "holds %s copies written by an older build; this build \
                    keeps one: move one copy's files up from r<K>/, then \
                    remove %s and the r*/ directories"
                   n replstate_name;
             })
    | _ ->
        store_err
          (Malformed
             {
               file = state;
               detail = Printf.sprintf "unknown header %S" header;
             }));
    let r0 = Filename.concat dirname "r0" in
    let move name =
      let src = Filename.concat r0 name in
      if Sys.file_exists src then Sys.rename src (Filename.concat dirname name)
    in
    if Sys.file_exists r0 then begin
      Array.iter
        (fun name -> if is_store_file name then move name)
        (Sys.readdir r0);
      Csv.fsync_dir dirname;
      move manifest_name;
      Csv.fsync_dir dirname;
      try Sys.rmdir r0 with Sys_error _ -> ()
    end;
    Sys.remove state;
    (try Sys.remove (state ^ ".tmp") with Sys_error _ -> ());
    Csv.fsync_dir dirname
  end

let read_manifest dirname =
  if not (made ~marker:manifest_name dirname) then None
  else
    Some
      (parse_manifest ~file:manifest_name
         (In_channel.with_open_bin
            (Filename.concat dirname manifest_name)
            In_channel.input_all))

let check_shard root i =
  let dir = shard_dir root i in
  if not (older_root dir || made ~marker:manifest_name dir) then
    store_err
      (Malformed
         { file = dir; detail = "SHARDS promises this shard, but it holds no MANIFEST" })

let open_ ?(config = default_config) dirname =
  adopt_replica_set dirname;
  let sealed, wal_name =
    match read_manifest dirname with
    | Some committed -> committed
    | None ->
        (* Never made: make it complete, then recover it as any other. *)
        build_staged dirname (fun staging ->
            Wal.close (Wal.open_append (Filename.concat staging (wal_file 1)));
            write_manifest staging ~sealed:[] ~wal:(wal_file 1));
        ([], wal_file 1)
  in
  let index = Hashtbl.create 64 in
  List.iter
    (fun (name, size) ->
      ignore (replay ~dirname ~index ~promised:(Some size) name : int))
    sealed;
  let torn = replay ~dirname ~index ~promised:None wal_name in
  let t =
    {
      dirname;
      cfg = config;
      m = Mutex.create ();
      index;
      wal =
        Wal.open_append ~fsync:config.fsync (Filename.concat dirname wal_name);
      wal_name;
      sealed;
      seq =
        List.fold_left
          (fun acc (name, _) -> max acc (seq_of_name name))
          (seq_of_name wal_name) sealed;
      grown_from = 0;
      closed = false;
      n_appends = 0;
      n_compactions = 0;
      n_compact_failures = 0;
      n_torn = torn;
    }
  in
  remove_strays t ~keep:(wal_name :: List.map fst sealed);
  t

let open_r ?config dirname =
  match open_ ?config dirname with
  | t -> Ok t
  | exception Store_error e -> Error e

let check_open t = if t.closed then invalid_arg "Store: handle is closed"

(* ---------------------------- maintenance ---------------------------- *)

(* Every user's latest record, tombstones included so revision
   high-water marks survive, in user order into one fresh segment,
   fsynced; the new index entries that point into it. *)
let write_segment t ~name ~path =
  let users =
    Hashtbl.fold (fun user m acc -> (user, m) :: acc) t.index []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let seg = Wal.open_append ~fsync:false path in
  Fun.protect
    ~finally:(fun () -> try Wal.close seg with Sys_error _ -> ())
    (fun () ->
      let moved =
        List.map
          (fun (user, m) ->
            let payload =
              match m.loc with
              | Some (off, len) -> (
                  match Wal.read_frame ~path:(in_dir t m.file) ~off ~len with
                  | Ok p -> p
                  | Error detail -> store_err (Bad_crc { file = m.file; detail }))
              | None ->
                  Codec.encode_record (Codec.Delete { user; revision = m.revision })
            in
            let off = Wal.append ~point:Chaos.Compact_write seg payload in
            let loc =
              Option.map
                (fun _ -> (off, Wal.header_bytes + String.length payload))
                m.loc
            in
            (user, { loc; revision = m.revision; file = name }))
          users
      in
      Wal.sync seg;
      (moved, Wal.size seg))

(* The one maintenance step: the live set into a fresh segment, a fresh
   empty WAL, and one manifest swap that commits both.  Disk first,
   memory after: a failure before the swap removes the step's new files
   and leaves the handle as it was (a simulated kill leaves them for
   recovery's stray sweep); after it, the old segments and WAL go.  The
   step takes its two file numbers even when it fails, so no later
   attempt meets what this one left. *)
let maintain t =
  let seg_name = seg_file (t.seq + 1) and wal_name = wal_file (t.seq + 2) in
  t.seq <- t.seq + 2;
  let remove names =
    List.iter (fun name -> try Sys.remove (in_dir t name) with Sys_error _ -> ()) names
  in
  let moved, seg_size, wal =
    try
      let moved, seg_size = write_segment t ~name:seg_name ~path:(in_dir t seg_name) in
      (match Chaos.take_fault Chaos.Compact_rename with
      | None -> ()
      | Some (Chaos.Flip_byte frac) ->
          (* Latent sealed-segment corruption: the step commits, but the
             fresh segment carries a flipped byte. *)
          Chaos.flip_byte_in_file (in_dir t seg_name) frac
      | Some Chaos.Crash | Some (Chaos.Torn_write _) ->
          raise (Chaos.Crashed { point = Chaos.Compact_rename })
      | Some (Chaos.Short_write _) | Some Chaos.Fsync_fail ->
          raise
            (Chaos.Injected { point = Chaos.Compact_rename; transient = true }));
      Chaos.point Chaos.Compact_rename;
      let wal = Wal.open_append ~fsync:t.cfg.fsync (in_dir t wal_name) in
      (try write_manifest t.dirname ~sealed:[ (seg_name, seg_size) ] ~wal:wal_name
       with e ->
         (try Wal.close wal with Sys_error _ -> ());
         raise e);
      (moved, seg_size, wal)
    with e ->
      (match e with
      | Chaos.Crashed _ -> ()
      | _ -> remove [ seg_name; wal_name; manifest_tmp ]);
      raise e
  in
  let old_files = t.wal_name :: List.map fst t.sealed in
  (try Wal.close t.wal with Sys_error _ -> ());
  t.wal <- wal;
  t.wal_name <- wal_name;
  t.sealed <- [ (seg_name, seg_size) ];
  List.iter (fun (user, m) -> Hashtbl.replace t.index user m) moved;
  t.n_compactions <- t.n_compactions + 1;
  t.grown_from <- 0;
  remove old_files

let sealed_bytes t = List.fold_left (fun acc (_, size) -> acc + size) 0 t.sealed

(* Maintenance rides on an append that is already durable, so no
   failure of it may fail that append: it is counted, and the next
   attempt waits for the same growth again.  Simulated kills still
   propagate. *)
let maintain_after_append t =
  if Wal.size t.wal - t.grown_from >= max t.cfg.segment_bytes (sealed_bytes t)
  then
    try maintain t
    with Sys_error _ | Unix.Unix_error _ | Store_error _ | Chaos.Injected _ ->
      t.n_compact_failures <- t.n_compact_failures + 1;
      t.grown_from <- Wal.size t.wal

(* ------------------------------ writes ------------------------------ *)

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let append_record t record =
  check_open t;
  let payload = Codec.encode_record record in
  let off = Wal.append t.wal payload in
  t.n_appends <- t.n_appends + 1;
  let user = Codec.record_user record in
  let revision = Codec.record_revision record in
  let loc =
    match record with
    | Codec.Put _ -> Some (off, Wal.header_bytes + String.length payload)
    | Codec.Delete _ -> None
  in
  Hashtbl.replace t.index user { loc; revision; file = t.wal_name };
  maintain_after_append t

let save t ~user ~revision entries =
  locked t (fun () ->
      append_record t (Codec.Put { user; revision; entries }))

let delete t ~user ~revision =
  locked t (fun () -> append_record t (Codec.Delete { user; revision }))

(* ------------------------------- reads ------------------------------- *)

let load_locked t ~user =
  match Hashtbl.find_opt t.index user with
  | None | Some { loc = None; _ } -> None
  | Some { loc = Some (off, len); file; _ } -> (
      match Wal.read_frame ~path:(in_dir t file) ~off ~len with
      | Error detail -> store_err (Bad_crc { file; detail })
      | Ok payload -> (
          match Codec.decode_record payload with
          | Ok (Codec.Put { entries; _ }) -> Some entries
          | Ok (Codec.Delete _) ->
              store_err
                (Malformed
                   { file; detail = "tombstone where a profile was indexed" })
          | Error detail -> store_err (Malformed { file; detail })))

let load t ~user =
  locked t (fun () ->
      check_open t;
      load_locked t ~user)

let revision t ~user =
  locked t (fun () ->
      match Hashtbl.find_opt t.index user with
      | None -> 0
      | Some m -> m.revision)

let sorted_keys t pred =
  Hashtbl.fold (fun u m acc -> if pred m then u :: acc else acc) t.index []
  |> List.sort compare

let revisions t =
  locked t (fun () ->
      Hashtbl.fold (fun u m acc -> (u, m.revision) :: acc) t.index []
      |> List.sort compare)

let users t = locked t (fun () -> sorted_keys t (fun m -> m.loc <> None))

let iter t f =
  locked t (fun () ->
      check_open t;
      List.iter
        (fun user ->
          match Hashtbl.find_opt t.index user with
          | Some { loc = Some _; revision; _ } -> (
              match load_locked t ~user with
              | Some entries -> f ~user ~revision entries
              | None -> ())
          | _ -> ())
        (sorted_keys t (fun m -> m.loc <> None)))

(* ------------------------------- admin ------------------------------- *)

type stats = {
  appends : int;
  compactions : int;
  compact_failures : int;
  torn_truncated : int;
  segments : int;
  live_users : int;
  wal_bytes : int;
}

let stats t =
  locked t (fun () ->
      {
        appends = t.n_appends;
        compactions = t.n_compactions;
        compact_failures = t.n_compact_failures;
        torn_truncated = t.n_torn;
        segments = List.length t.sealed;
        live_users =
          Hashtbl.fold
            (fun _ m acc -> if m.loc <> None then acc + 1 else acc)
            t.index 0;
        wal_bytes = Wal.size t.wal;
      })

let compact_now t =
  locked t (fun () ->
      check_open t;
      maintain t)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        Wal.sync t.wal;
        Wal.close t.wal;
        t.closed <- true
      end)

let abandon t =
  locked t (fun () ->
      if not t.closed then begin
        (try Wal.close t.wal with Sys_error _ -> ());
        t.closed <- true
      end)
