(* Deterministic corruption sweep: every committed file of a store
   directory x every corruption kind.

   Damage must surface as the store's typed fatal error or, for the
   active WAL's tail only, as the counted torn-tail truncation.  The
   read-only scrubber must agree with recovery on every case: it reports
   damage exactly when the open fails, and a torn tail exactly when the
   open truncates one.

   [make scrub-sweep] runs exactly this binary; it also rides in the
   default [dune runtest] alias. *)

open Perso_store

let fresh_dir () =
  let f = Filename.temp_file "sweep" "" in
  Sys.remove f;
  f

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      write_file (Filename.concat dst name)
        (read_file (Filename.concat src name)))
    (Sys.readdir src)

let e cond degree = { Codec.cond; degree }

(* Tiny segments so the fixture spans the whole file-set shape: the
   sealed segment maintenance writes plus a non-empty active WAL. *)
let cfg = { Store.segment_bytes = 96; fsync = false }

type kind = Flip_early | Flip_late | Truncate_tail

let kind_name = function
  | Flip_early -> "flip@0.2"
  | Flip_late -> "flip@0.8"
  | Truncate_tail -> "truncate-3"

let corrupt kind path =
  match kind with
  | Flip_early -> Relal.Chaos.flip_byte_in_file path 0.2
  | Flip_late -> Relal.Chaos.flip_byte_in_file path 0.8
  | Truncate_tail ->
      let s = read_file path in
      write_file path (String.sub s 0 (String.length s - 3))

(* Build a pristine store with a sealed segment, an active WAL, and a
   tombstone; return it with the oracle state. *)
let build_fixture () =
  let root = fresh_dir () in
  let t = Store.open_ ~config:cfg root in
  for i = 0 to 5 do
    let user = Printf.sprintf "user%d" i in
    Store.save t ~user ~revision:1
      [ e (Printf.sprintf "GENRE.genre = 'g%d'" i) 0.9; e "MOVIE.year > 1990" 0.4 ]
  done;
  Store.save t ~user:"user1" ~revision:2 [ e "GENRE.genre = 'drama'" 0.7 ];
  Store.delete t ~user:"user5" ~revision:2;
  let oracle_revisions = Store.revisions t in
  let oracle_users = Store.users t in
  Store.close t;
  (root, oracle_revisions, oracle_users)

(* The committed file set, from the manifest (sealed segments first,
   active WAL last). *)
let targets root =
  match Store.read_manifest root with
  | None -> Alcotest.fail "fixture has no manifest"
  | Some (sealed, wal) ->
      List.filter
        (fun f ->
          let size =
            try (Unix.stat (Filename.concat root f)).st_size
            with Unix.Unix_error _ -> 0
          in
          size > 8)
        (List.map fst sealed @ [ wal ])

(* Damage is fatal with the typed error, or — only for the WAL's torn
   tail — truncated and counted.  Either way nothing is silently wrong:
   an opening store either accounts the truncation or still serves the
   full oracle.  A store file recovery cannot open ([Sys_error]) fails
   it too.  The scrub runs first, since opening truncates. *)
let check_case label root oracle_revisions =
  let rep = Scrub.scan_dir root in
  let scrub_damaged = rep.Scrub.damaged <> [] in
  let scrub_torn =
    List.exists
      (fun (fr : Scrub.file_report) ->
        match fr.status with Scrub.File_torn_tail _ -> true | _ -> false)
      rep.Scrub.files
  in
  let refused () =
    if not scrub_damaged then
      Alcotest.failf "%s: recovery fails but the scrub finds no damage" label
  in
  match Store.open_r ~config:cfg root with
  | Error (Store.Torn_log _ | Store.Bad_crc _ | Store.Malformed _) -> refused ()
  | exception Sys_error _ -> refused ()
  | Ok t ->
      let torn = (Store.stats t).Store.torn_truncated in
      let revs = Store.revisions t in
      Store.close t;
      if torn = 0 && revs <> oracle_revisions then
        Alcotest.failf "%s: silent data loss with a single copy" label;
      if scrub_damaged then
        Alcotest.failf "%s: the scrub finds damage that recovery opens" label;
      if scrub_torn <> (torn > 0) then
        Alcotest.failf "%s: scrub torn tail %b, recovery truncated %d" label
          scrub_torn torn

let test_sweep () =
  let pristine, oracle_revisions, _ = build_fixture () in
  let files = targets pristine in
  Alcotest.(check int) "fixture spans one sealed segment and a non-empty WAL" 2
    (List.length files);
  let cases = ref 0 in
  List.iter
    (fun file ->
      List.iter
        (fun kind ->
          incr cases;
          let work = fresh_dir () in
          copy_dir pristine work;
          let label = Printf.sprintf "n=1 %s %s" file (kind_name kind) in
          corrupt kind (Filename.concat work file);
          check_case label work oracle_revisions)
        [ Flip_early; Flip_late; Truncate_tail ])
    files;
  Alcotest.(check bool) "swept every file x kind" true (!cases >= 6)

(* A frame whose checksum holds but whose payload is no record (tag
   0xff): recovery refuses the store as [Malformed], and the scrub must
   report that file damaged with the same error.  In a sealed segment the
   manifest's promised size is raised to match, so only the record is
   wrong. *)
let test_undecodable_record () =
  let pristine, oracle_revisions, _ = build_fixture () in
  let bad = Wal.frame "\xff" in
  List.iter
    (fun file ->
      let work = fresh_dir () in
      copy_dir pristine work;
      let path = Filename.concat work file in
      let grown = read_file path ^ bad in
      write_file path grown;
      let manifest = Filename.concat work "MANIFEST" in
      write_file manifest
        (String.split_on_char '\n' (read_file manifest)
        |> List.map (fun line ->
               match String.split_on_char ' ' line with
               | [ "segment"; name; _ ] when name = file ->
                   Printf.sprintf "segment %s %d" name (String.length grown)
               | _ -> line)
        |> String.concat "\n");
      let label = Printf.sprintf "n=1 %s undecodable record" file in
      let scrubbed = (Scrub.scan_dir work).Scrub.damaged in
      check_case label work oracle_revisions;
      match Store.open_r ~config:cfg work with
      | Error (Store.Malformed _ as e) ->
          Alcotest.(check (list string))
            (label ^ ": scrub reports recovery's error")
            [ file ^ ": " ^ Store.error_to_string e ]
            (List.map
               (fun (d : Scrub.damage) ->
                 d.file ^ ": " ^ Store.error_to_string d.error)
               scrubbed)
      | Error e ->
          Alcotest.failf "%s: expected malformed, got %s" label
            (Store.error_to_string e)
      | Ok t ->
          Store.close t;
          Alcotest.failf "%s: recovery opened an undecodable record" label)
    (targets pristine)

(* A directory holding files but no manifest is none a store of this
   build made: a store is renamed into place only once its manifest is
   durable.  Recovery refuses it, naming the directory, and the scrub
   reports recovery's error as damage.  (A WAL alone is what a crash
   during an older build's init left.) *)
let test_no_manifest () =
  let work = fresh_dir () in
  Unix.mkdir work 0o755;
  write_file (Filename.concat work "wal-000001.log") "";
  let scrubbed = (Scrub.scan_dir work).Scrub.damaged in
  check_case "no manifest, a WAL" work [];
  match Store.open_r ~config:cfg work with
  | Error (Store.Malformed { file; _ } as e) ->
      Alcotest.(check string) "recovery names the directory" work file;
      Alcotest.(check (list string)) "the scrub reports recovery's error"
        [ "MANIFEST: " ^ Store.error_to_string e ]
        (List.map
           (fun (d : Scrub.damage) -> d.file ^ ": " ^ Store.error_to_string d.error)
           scrubbed);
      Alcotest.(check bool) "left as it was" true
        (Sys.readdir work = [| "wal-000001.log" |])
  | Error e -> Alcotest.failf "expected malformed, got %s" (Store.error_to_string e)
  | Ok t ->
      Store.close t;
      Alcotest.fail "recovery opened a directory without a manifest"

(* A manifest whose wal line names a file that is not there (the last
   byte of the name changed).  The first open and every maintenance create
   a WAL before the manifest names it, so the name is damage, not an
   empty log: recovery refuses the store naming the MANIFEST, the scrub
   reports the same error, and no file is removed, the WAL the manifest
   meant included. *)
let test_missing_wal () =
  let pristine, _, _ = build_fixture () in
  let work = fresh_dir () in
  copy_dir pristine work;
  let manifest = Filename.concat work "MANIFEST" in
  write_file manifest
    (String.split_on_char '\n' (read_file manifest)
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | [ "wal"; name ] ->
               "wal " ^ String.sub name 0 (String.length name - 1) ^ "3"
           | _ -> line)
    |> String.concat "\n");
  let files () = List.sort compare (Array.to_list (Sys.readdir work)) in
  let before = files () in
  let scrubbed = (Scrub.scan_dir work).Scrub.damaged in
  match Store.open_r ~config:cfg work with
  | Error (Store.Malformed { file; _ } as e) ->
      Alcotest.(check string) "recovery names the manifest" "MANIFEST" file;
      Alcotest.(check (list string)) "the scrub reports recovery's error"
        [ Store.error_to_string e ]
        (List.map (fun (d : Scrub.damage) -> Store.error_to_string d.error) scrubbed);
      Alcotest.(check (list string)) "no file removed" before (files ())
  | Error e -> Alcotest.failf "expected malformed, got %s" (Store.error_to_string e)
  | Ok t ->
      Store.close t;
      Alcotest.fail "recovery read a WAL that is not there as an empty log"

(* A server root whose SHARDS marker promises a shard that is missing:
   every shard was complete before the root was renamed into place, so
   recovery refuses the root, naming the shard, and the scrub reports
   the same error as that shard's damage. *)
let test_missing_shard () =
  let pristine, _, _ = build_fixture () in
  let root = fresh_dir () in
  Unix.mkdir root 0o755;
  Store.write_shard_marker root 2;
  copy_dir pristine (Store.shard_dir root 0);
  let shards = Scrub.scan_root root in
  let damage (sh : Scrub.shard) =
    List.map
      (fun (d : Scrub.damage) -> d.file ^ ": " ^ Store.error_to_string d.error)
      sh.report.Scrub.damaged
  in
  let module Shards = Perso_server.Sharded_store.Make (Perso_server.Runtime.Threads) in
  match Shards.create ~persist:root ~shards:2 (Relal.Database.create ()) with
  | _ -> Alcotest.fail "recovery opened a root missing a promised shard"
  | exception Store.Store_error (Store.Malformed { file; _ } as e) ->
      Alcotest.(check string) "recovery names the missing shard"
        (Store.shard_dir root 1) file;
      Alcotest.(check (list (pair string (list string))))
        "shard-00 clean, shard-01 damaged with recovery's error"
        [ ("shard-00", []); ("shard-01", [ "MANIFEST: " ^ Store.error_to_string e ]) ]
        (List.map (fun (sh : Scrub.shard) -> (sh.name, damage sh)) shards);
      Alcotest.(check bool) "shard-01 still missing" false
        (Sys.file_exists (Store.shard_dir root 1))

(* control: an uncorrupted store scrubs clean and reopens with nothing
   truncated, serving the oracle *)
let test_clean_control () =
  let root, oracle_revisions, oracle_users = build_fixture () in
  let rep = Scrub.scan_dir root in
  Alcotest.(check int) "scrub damage" 0 (List.length rep.Scrub.damaged);
  Alcotest.(check bool) "every file ok" true
    (List.for_all
       (fun (fr : Scrub.file_report) -> fr.status = Scrub.File_ok)
       rep.Scrub.files);
  let t = Store.open_ ~config:cfg root in
  Alcotest.(check int) "torn truncated" 0 (Store.stats t).Store.torn_truncated;
  Alcotest.(check bool) "revisions served" true
    (Store.revisions t = oracle_revisions);
  Alcotest.(check (list string)) "users served" oracle_users (Store.users t);
  Store.close t

let () =
  Alcotest.run "scrub-sweep"
    [
      ( "control",
        [ Alcotest.test_case "clean n=1" `Quick test_clean_control ] );
      ( "sweep",
        [
          Alcotest.test_case "n=1 typed fatal or counted truncation" `Quick
            test_sweep;
          Alcotest.test_case "n=1 undecodable record is damage" `Quick
            test_undecodable_record;
          Alcotest.test_case "no manifest: recovery's rule" `Quick
            test_no_manifest;
          Alcotest.test_case "missing promised shard" `Quick test_missing_shard;
          Alcotest.test_case "manifest names a missing WAL" `Quick
            test_missing_wal;
        ] );
    ]
