module Chaos = Relal.Chaos
module Csv = Relal.Csv

type config = { segment_bytes : int; compact_segments : int; fsync : bool }

let default_config =
  { segment_bytes = 4 lsl 20; compact_segments = 4; fsync = true }

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
   must survive (compaction rewrites tombstones, never drops them). *)
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
  mutable closed : bool;
  mutable n_appends : int;
  mutable n_rotations : int;
  mutable n_compactions : int;
  mutable n_compact_failures : int;
  mutable n_torn : int;
}

let dir t = t.dirname

let manifest_name = "MANIFEST"
let manifest_tmp = "MANIFEST.tmp"
let wal_file seq = Printf.sprintf "wal-%06d.log" seq
let seg_file seq = Printf.sprintf "seg-%06d.dat" seq
let in_dir t name = Filename.concat t.dirname name

let is_store_file name =
  name = manifest_tmp
  || (String.length name >= 4
     && (String.sub name 0 4 = "wal-" || String.sub name 0 4 = "seg-"))

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

(* Manifest replacement is the commit point of rotation and compaction:
   tmp + fsync + atomic rename, the same discipline as [Csv.save_db_r].
   The deterministic fault plan can kill or fail it. *)
let write_manifest t ~sealed ~wal =
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
      (try Csv.write_file_sync (in_dir t manifest_tmp) (String.sub text 0 keep)
       with _ -> ());
      raise (Chaos.Crashed { point = Chaos.Manifest_write })
  | Some (Chaos.Short_write _) | Some Chaos.Fsync_fail ->
      raise (Chaos.Injected { point = Chaos.Manifest_write; transient = true }));
  Chaos.point Chaos.Manifest_write;
  Csv.write_file_sync (in_dir t manifest_tmp) (manifest_text ~sealed ~wal);
  Sys.rename (in_dir t manifest_tmp) (in_dir t manifest_name);
  Csv.fsync_dir t.dirname;
  Option.iter
    (fun frac -> Chaos.flip_byte_in_file (in_dir t manifest_name) frac)
    !flip

(* ----------------------------- recovery ----------------------------- *)

let seq_of_name name =
  match int_of_string_opt (String.sub name 4 6) with
  | Some n -> n
  | None -> 0
  | exception Invalid_argument _ -> 0

(* One verdict per committed file, shared by recovery and the scrubber
   so the two cannot disagree (the interface lists the verdicts).  A
   missing active WAL is an empty one: rotation creates the file before
   the manifest names it, so only a hand deletion removes it. *)
type file_status = File_ok | File_torn_tail of int | File_damaged of error

type file_check = { size : int; records : int; status : file_status }

let check_file ~dir ~promised name f =
  let path = Filename.concat dir name in
  if not (Sys.file_exists path) then
    {
      size = 0;
      records = 0;
      status =
        (if promised = None then File_ok
         else
           File_damaged
             (Torn_log { file = name; detail = "sealed segment missing" }));
    }
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

let fresh ?(config = default_config) dirname =
  let t =
    {
      dirname;
      cfg = config;
      m = Mutex.create ();
      index = Hashtbl.create 64;
      wal = Wal.open_append ~fsync:config.fsync
              (Filename.concat dirname (wal_file 1));
      wal_name = wal_file 1;
      sealed = [];
      seq = 1;
      closed = false;
      n_appends = 0;
      n_rotations = 0;
      n_compactions = 0;
      n_compact_failures = 0;
      n_torn = 0;
    }
  in
  write_manifest t ~sealed:[] ~wal:t.wal_name;
  t

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

let open_ ?(config = default_config) dirname =
  if not (Sys.file_exists dirname) then Sys.mkdir dirname 0o755;
  if not (Sys.is_directory dirname) then
    store_err
      (Malformed { file = dirname; detail = "store path is not a directory" });
  adopt_replica_set dirname;
  let manifest_path = Filename.concat dirname manifest_name in
  if not (Sys.file_exists manifest_path) then begin
    (* No manifest: either a fresh directory or a crash during init,
       before anything was acknowledged.  Sealed segments can only
       exist after a committed manifest, so their presence without one
       means the manifest was deleted — refuse to guess. *)
    let entries = Sys.readdir dirname in
    Array.iter
      (fun name ->
        if String.length name >= 4 && String.sub name 0 4 = "seg-" then
          store_err
            (Malformed
               {
                 file = manifest_name;
                 detail =
                   Printf.sprintf
                     "missing manifest but sealed segment %s present" name;
               }))
      entries;
    Array.iter
      (fun name ->
        if is_store_file name then
          try Sys.remove (Filename.concat dirname name) with Sys_error _ -> ())
      entries;
    fresh ~config dirname
  end
  else begin
    let text = In_channel.with_open_bin manifest_path In_channel.input_all in
    let sealed, wal_name = parse_manifest ~file:manifest_name text in
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
          Wal.open_append ~fsync:config.fsync
            (Filename.concat dirname wal_name);
        wal_name;
        sealed;
        seq =
          List.fold_left
            (fun acc (name, _) -> max acc (seq_of_name name))
            (seq_of_name wal_name) sealed;
        closed = false;
        n_appends = 0;
        n_rotations = 0;
        n_compactions = 0;
        n_compact_failures = 0;
        n_torn = torn;
      }
    in
    remove_strays t ~keep:(wal_name :: List.map fst sealed);
    t
  end

let open_r ?config dirname =
  match open_ ?config dirname with
  | t -> Ok t
  | exception Store_error e -> Error e

(* -------------------- file-set introspection -------------------- *)

(* The scrubber works on the committed file set without opening a
   handle: the manifest names exactly the files whose bytes matter
   (plus the active WAL, whose tail may legitimately be torn). *)

let read_manifest dirname =
  let path = Filename.concat dirname manifest_name in
  if not (Sys.file_exists path) then None
  else
    Some
      (parse_manifest ~file:manifest_name
         (In_channel.with_open_bin path In_channel.input_all))

let check_open t = if t.closed then invalid_arg "Store: handle is closed"

(* ----------------------------- rotation ----------------------------- *)

(* Disk first, memory after: the new WAL file is created and the
   manifest committed before any in-memory state changes, so a failure
   at any point leaves the handle consistent with the old manifest. *)
let rotate t =
  Wal.sync t.wal;
  let new_seq = t.seq + 1 in
  let new_name = wal_file new_seq in
  let new_wal = Wal.open_append ~fsync:t.cfg.fsync (in_dir t new_name) in
  let sealed' = t.sealed @ [ (t.wal_name, Wal.size t.wal) ] in
  (try write_manifest t ~sealed:sealed' ~wal:new_name
   with e ->
     (match e with
     | Chaos.Crashed _ -> ()
     | _ ->
         Wal.close new_wal;
         (try Sys.remove (in_dir t new_name) with Sys_error _ -> ()));
     raise e);
  let old = t.wal in
  t.sealed <- sealed';
  t.wal <- new_wal;
  t.wal_name <- new_name;
  t.seq <- new_seq;
  t.n_rotations <- t.n_rotations + 1;
  Wal.close old

(* ---------------------------- compaction ---------------------------- *)

(* Rewrite the latest record of every user whose record lives in a
   sealed segment into one fresh segment — tombstones included, so
   revision high-water marks survive — then commit by manifest swap and
   delete the old segments.  Records whose latest version is in the
   active WAL are left alone: the WAL replays after sealed segments, so
   it wins on reopen regardless. *)
let compact t =
  if t.sealed <> [] then begin
    let sealed_names = List.map fst t.sealed in
    let victims =
      Hashtbl.fold
        (fun user m acc ->
          if List.mem m.file sealed_names then (user, m) :: acc else acc)
        t.index []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let new_seq = t.seq + 1 in
    let seg_name = seg_file new_seq in
    let seg_path = in_dir t seg_name in
    let out = Wal.open_append ~fsync:false seg_path in
    let moved = ref [] in
    (try
       List.iter
         (fun (user, m) ->
           let payload =
             match m.loc with
             | Some (off, len) -> (
                 match
                   Wal.read_frame ~path:(in_dir t m.file) ~off ~len
                 with
                 | Ok p -> p
                 | Error detail ->
                     store_err (Bad_crc { file = m.file; detail }))
             | None ->
                 Codec.encode_record
                   (Codec.Delete { user; revision = m.revision })
           in
           let off = Wal.append ~point:Chaos.Compact_write out payload in
           let loc =
             match m.loc with
             | Some _ -> Some (off, Wal.header_bytes + String.length payload)
             | None -> None
           in
           moved := (user, { loc; revision = m.revision; file = seg_name })
                    :: !moved)
         victims;
       Wal.sync out;
       (match Chaos.take_fault Chaos.Compact_rename with
       | None -> ()
       | Some (Chaos.Flip_byte frac) ->
           (* Latent sealed-segment corruption: the compaction commits,
              but the fresh segment carries a flipped byte. *)
           Chaos.flip_byte_in_file seg_path frac
       | Some Chaos.Crash | Some (Chaos.Torn_write _) ->
           raise (Chaos.Crashed { point = Chaos.Compact_rename })
       | Some (Chaos.Short_write _) | Some Chaos.Fsync_fail ->
           raise
             (Chaos.Injected { point = Chaos.Compact_rename; transient = true }));
       Chaos.point Chaos.Compact_rename;
       write_manifest t
         ~sealed:[ (seg_name, Wal.size out) ]
         ~wal:t.wal_name
     with e ->
       (try Wal.close out with Sys_error _ -> ());
       (match e with
       | Chaos.Crashed _ -> ()
       | _ -> ( try Sys.remove seg_path with Sys_error _ -> ()));
       raise e);
    (* Committed: swap in-memory state and drop the old segments. *)
    let seg_size = Wal.size out in
    Wal.close out;
    List.iter
      (fun (name, _) ->
        try Sys.remove (in_dir t name) with Sys_error _ -> ())
      t.sealed;
    t.sealed <- [ (seg_name, seg_size) ];
    t.seq <- new_seq;
    List.iter (fun (user, m) -> Hashtbl.replace t.index user m) !moved;
    t.n_compactions <- t.n_compactions + 1
  end

(* Auto-compaction rides on an already-acknowledged append, so a
   transient injected fault must not fail the save it rode on: note it
   and try again after the next rotation.  Simulated crashes and real
   corruption still propagate. *)
let maybe_compact t =
  if List.length t.sealed >= t.cfg.compact_segments then
    try compact t
    with Chaos.Injected _ ->
      t.n_compact_failures <- t.n_compact_failures + 1

(* ------------------------------ writes ------------------------------ *)

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let append_record t record =
  check_open t;
  if Wal.size t.wal >= t.cfg.segment_bytes then rotate t;
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
  maybe_compact t

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
  rotations : int;
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
        rotations = t.n_rotations;
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
      if Wal.size t.wal > 0 then rotate t;
      compact t)

let sync t = locked t (fun () -> if not t.closed then Wal.sync t.wal)

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
