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

(* Tiny segments so the fixture spans the whole file-set shape: sealed
   segments plus a non-empty active WAL. *)
let cfg = { Store.segment_bytes = 96; compact_segments = 100; fsync = false }

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

(* Build a pristine store with rotated segments, an active WAL, and a
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
   full oracle.  The scrub runs first, since opening truncates. *)
let check_case label root oracle_revisions =
  let rep = Scrub.scan_dir root in
  let scrub_damaged = rep.Scrub.damaged <> [] in
  let scrub_torn =
    List.exists
      (fun (fr : Scrub.file_report) ->
        match fr.status with Scrub.File_torn_tail _ -> true | _ -> false)
      rep.Scrub.files
  in
  match Store.open_r ~config:cfg root with
  | Error (Store.Torn_log _ | Store.Bad_crc _ | Store.Malformed _) ->
      if not scrub_damaged then
        Alcotest.failf "%s: recovery fails but the scrub finds no damage" label
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
  Alcotest.(check bool) "fixture spans sealed segments and a WAL" true
    (List.length files >= 2);
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
        ] );
    ]
