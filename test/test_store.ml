(* The log-structured profile store: codec round trips, WAL tail
   classification, maintenance, recovery, and damage detection. *)

open Perso_store

let fresh_dir () =
  let f = Filename.temp_file "store" "" in
  Sys.remove f;
  f

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let e cond degree = { Codec.cond; degree }

let entries_t =
  Alcotest.testable
    (fun ppf l ->
      List.iter (fun { Codec.cond; degree } ->
          Format.fprintf ppf "(%s,%g)" cond degree)
        l)
    (List.equal (fun a b ->
         a.Codec.cond = b.Codec.cond && a.Codec.degree = b.Codec.degree))

(* ------------------------------- crc32 ------------------------------ *)

let test_crc_vector () =
  (* CRC-32/IEEE check value. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "sub matches slice" (Crc32.string "456")
    (Crc32.sub "123456789" ~pos:3 ~len:3);
  Alcotest.(check bool) "damage changes crc" true
    (Crc32.string "123456788" <> Crc32.string "123456789")

(* ------------------------------- codec ------------------------------ *)

let roundtrip c v =
  match Codec.decode c (Codec.encode c v) with
  | Ok v' -> v'
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_codec_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) "varint" n (roundtrip Codec.varint n))
    [ 0; 1; 127; 128; 300; 1 lsl 20; max_int ];
  List.iter
    (fun f ->
      Alcotest.(check bool) "float bit-exact" true
        (Int64.equal
           (Int64.bits_of_float f)
           (Int64.bits_of_float (roundtrip Codec.float64 f))))
    [ 0.; 0.1; -1.5; infinity; 0.9; 1e-300 ];
  let r =
    Codec.Put
      {
        user = "julie";
        revision = 7;
        entries = [ e "GENRE.genre = 'comedy'" 0.9; e "" 0.5 ];
      }
  in
  (match Codec.decode_record (Codec.encode_record r) with
  | Ok r' -> Alcotest.(check bool) "record" true (r = r')
  | Error msg -> Alcotest.failf "record decode: %s" msg);
  let d = Codec.Delete { user = "bob"; revision = 3 } in
  match Codec.decode_record (Codec.encode_record d) with
  | Ok d' -> Alcotest.(check bool) "tombstone" true (d = d')
  | Error msg -> Alcotest.failf "tombstone decode: %s" msg

let test_codec_rejects_damage () =
  let s = Codec.encode_record (Codec.Put { user = "u"; revision = 1; entries = [] }) in
  (* truncation *)
  (match Codec.decode_record (String.sub s 0 (String.length s - 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated record decoded");
  (* trailing garbage *)
  (match Codec.decode_record (s ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted");
  (* unknown tag *)
  match Codec.decode_record "\xff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad tag accepted"

(* -------------------------------- wal ------------------------------- *)

let test_wal_scan_classification () =
  let f1 = Wal.frame "hello" and f2 = Wal.frame "world!" in
  let whole = f1 ^ f2 in
  let collect data =
    let got = ref [] in
    let len, fin = Wal.scan_string data (fun ~pos:_ p -> got := p :: !got) in
    (List.rev !got, len, fin)
  in
  (* clean *)
  (match collect whole with
  | [ "hello"; "world!" ], len, Wal.Clean ->
      Alcotest.(check int) "clean length" (String.length whole) len
  | _, _, _ -> Alcotest.fail "clean scan misparsed");
  (* torn: partial header of the second frame *)
  (match collect (String.sub whole 0 (String.length f1 + 3)) with
  | [ "hello" ], len, Wal.Torn { at; _ } ->
      Alcotest.(check int) "valid prefix" (String.length f1) len;
      Alcotest.(check int) "torn at" (String.length f1) at
  | _ -> Alcotest.fail "partial header not Torn");
  (* torn: payload cut short *)
  (match collect (String.sub whole 0 (String.length whole - 2)) with
  | [ "hello" ], _, Wal.Torn _ -> ()
  | _ -> Alcotest.fail "short payload not Torn");
  (* corrupt: flip a payload byte in a complete frame *)
  let b = Bytes.of_string whole in
  Bytes.set b (Wal.header_bytes + 1) 'X';
  (match collect (Bytes.to_string b) with
  | [], 0, Wal.Corrupt { at = 0; _ } -> ()
  | _ -> Alcotest.fail "bad CRC not Corrupt at 0");
  (* corrupt: absurd length field is corruption, not a torn tail *)
  let b = Bytes.of_string whole in
  Bytes.set_int32_le b 0 0x7fffffffl;
  match collect (Bytes.to_string b) with
  | [], 0, Wal.Corrupt _ -> ()
  | _ -> Alcotest.fail "absurd length not Corrupt"

let test_wal_append_read () =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "w.log" in
  let w = Wal.open_append path in
  let off1 = Wal.append w "one" in
  let off2 = Wal.append w "twotwo" in
  Wal.close w;
  Alcotest.(check int) "first at 0" 0 off1;
  Alcotest.(check (result string string))
    "read back"
    (Ok "twotwo")
    (Wal.read_frame ~path ~off:off2 ~len:(Wal.header_bytes + 6));
  (* reopening appends after the existing frames *)
  let w = Wal.open_append path in
  let off3 = Wal.append w "three" in
  Wal.close w;
  Alcotest.(check bool) "appends at end" true (off3 > off2)

(* ------------------------------- store ------------------------------ *)

let small_config = { Store.segment_bytes = 128; fsync = false }

let files_in dir = List.sort compare (Array.to_list (Sys.readdir dir))

let has_prefix prefix name =
  String.length name >= String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

(* What any maintenance leaves: the manifest, one segment and an empty
   WAL, the two files it names. *)
let check_maintained ctx dir =
  match files_in dir with
  | [ "MANIFEST"; seg; wal ] when has_prefix "seg-" seg && has_prefix "wal-" wal ->
      Alcotest.(check int) (ctx ^ ": empty WAL") 0
        (String.length (read_file (Filename.concat dir wal)));
      Alcotest.(check (option (pair (list string) string)))
        (ctx ^ ": the manifest names them")
        (Some ([ seg ], wal))
        (Option.map
           (fun (sealed, wal) -> (List.map fst sealed, wal))
           (Store.read_manifest dir))
  | files ->
      Alcotest.failf "%s: expected MANIFEST, one segment and one WAL, got %s" ctx
        (String.concat " " files)

let test_store_basics () =
  let dir = fresh_dir () in
  let s = Store.open_ ~config:small_config dir in
  Alcotest.(check (option entries_t)) "absent" None (Store.load s ~user:"u");
  Store.save s ~user:"julie" ~revision:1 [ e "a" 0.9 ];
  Store.save s ~user:"bob" ~revision:1 [ e "b" 0.5 ];
  Store.save s ~user:"julie" ~revision:2 [ e "a" 0.9; e "c" 0.4 ];
  Alcotest.(check (option entries_t))
    "latest wins"
    (Some [ e "a" 0.9; e "c" 0.4 ])
    (Store.load s ~user:"julie");
  Alcotest.(check int) "revision" 2 (Store.revision s ~user:"julie");
  Alcotest.(check (list string)) "users" [ "bob"; "julie" ] (Store.users s);
  Store.delete s ~user:"bob" ~revision:2;
  Alcotest.(check (option entries_t)) "deleted" None (Store.load s ~user:"bob");
  Alcotest.(check (list string)) "live users" [ "julie" ] (Store.users s);
  Alcotest.(check (list (pair string int)))
    "revisions keep tombstones"
    [ ("bob", 2); ("julie", 2) ]
    (Store.revisions s);
  Store.close s

let test_reopen_replays () =
  let dir = fresh_dir () in
  let s = Store.open_ ~config:small_config dir in
  (* enough traffic to reach maintenance several times *)
  for i = 1 to 40 do
    Store.save s
      ~user:(Printf.sprintf "u%02d" (i mod 7))
      ~revision:i
      [ e (String.make 20 'x') (float_of_int i) ]
  done;
  Store.delete s ~user:"u03" ~revision:41;
  let want_users = Store.users s in
  let want_revs = Store.revisions s in
  let maintenances = (Store.stats s).Store.compactions in
  Store.close s;
  Alcotest.(check bool) "maintained" true (maintenances > 1);
  let s' = Store.open_ ~config:small_config dir in
  Alcotest.(check (list string)) "users survive" want_users (Store.users s');
  Alcotest.(check (list (pair string int)))
    "revisions survive" want_revs (Store.revisions s');
  Alcotest.(check (option entries_t)) "tombstone survives" None
    (Store.load s' ~user:"u03");
  Store.close s'

let test_compaction () =
  let dir = fresh_dir () in
  let s = Store.open_ ~config:small_config dir in
  for i = 1 to 60 do
    Store.save s
      ~user:(Printf.sprintf "u%d" (i mod 3))
      ~revision:i
      [ e (String.make 24 'y') 0.5 ]
  done;
  Store.delete s ~user:"u0" ~revision:61;
  Store.compact_now s;
  let st = Store.stats s in
  Alcotest.(check int) "one sealed segment" 1 st.Store.segments;
  Alcotest.(check bool) "compacted" true (st.Store.compactions > 0);
  check_maintained "compact_now" dir;
  Alcotest.(check (list string)) "live users" [ "u1"; "u2" ] (Store.users s);
  Store.close s;
  (* the compacted state recovers *)
  let s' = Store.open_ ~config:small_config dir in
  Alcotest.(check int) "u0 tombstone revision survives compaction" 61
    (Store.revision s' ~user:"u0");
  Alcotest.(check (option entries_t)) "u0 stays deleted" None
    (Store.load s' ~user:"u0");
  Alcotest.(check bool) "u1 content intact" true
    (Store.load s' ~user:"u1" <> None);
  Store.close s'

(* ---------------------------- maintenance ---------------------------- *)

let frame_bytes record = Wal.header_bytes + String.length (Codec.encode_record record)

(* A fresh store holds wal-000001.log, so its first maintenance writes
   seg-000002.dat; a directory there fails that step with a real I/O
   error, as a full or failing disk would. *)
let squat_first_segment dir =
  let squat = Filename.concat dir "seg-000002.dat" in
  Sys.mkdir squat 0o755;
  squat

(* The append a maintenance follows is durable before the step runs, so
   a failed step is counted and the save returns; the record survives a
   reopen, and the next attempt waits for the same growth again. *)
let test_failed_maintenance_keeps_save () =
  let dir = fresh_dir () in
  let config = { Store.segment_bytes = 256; fsync = false } in
  let s = Store.open_ ~config dir in
  Store.save s ~user:"julie" ~revision:1 [ e "a" 0.9 ];
  Store.save s ~user:"julie" ~revision:2 [ e "b" 0.8 ];
  let squat = squat_first_segment dir in
  let before = files_in dir in
  let big n = [ e (String.make 300 n) 0.7 ] in
  Store.save s ~user:"julie" ~revision:3 (big 'c');
  let st = Store.stats s in
  Alcotest.(check (pair int int)) "one failure, no maintenance" (1, 0)
    (st.Store.compact_failures, st.Store.compactions);
  Alcotest.(check (list string)) "the step's new files removed" before (files_in dir);
  Store.close s;
  let s = Store.open_ ~config dir in
  Alcotest.(check (option entries_t)) "the save is durable" (Some (big 'c'))
    (Store.load s ~user:"julie");
  Alcotest.(check int) "and its revision" 3 (Store.revision s ~user:"julie");
  (* Reopened, the WAL is past the trigger: the next append's step meets
     the directory again; after it, a small append starts none. *)
  Store.save s ~user:"bob" ~revision:1 [ e "d" 0.5 ];
  Store.save s ~user:"bob" ~revision:2 [ e "e" 0.5 ];
  Alcotest.(check (pair int int)) "one attempt until the WAL grows again" (1, 0)
    ((Store.stats s).Store.compact_failures, (Store.stats s).Store.compactions);
  (* grown again: the step takes fresh file numbers and commits *)
  Store.save s ~user:"julie" ~revision:4 (big 'f');
  Alcotest.(check (pair int int)) "the next attempt commits" (1, 1)
    ((Store.stats s).Store.compact_failures, (Store.stats s).Store.compactions);
  Sys.rmdir squat;
  check_maintained "after the failure" dir;
  Store.close s;
  let s = Store.open_ ~config dir in
  Alcotest.(check (option entries_t)) "julie" (Some (big 'f')) (Store.load s ~user:"julie");
  Alcotest.(check (option entries_t)) "bob" (Some [ e "e" 0.5 ]) (Store.load s ~user:"bob");
  Store.close s

(* The same failure under a profile save: no error, and what memory
   serves is what a restart restores. *)
let test_profile_save_through_failed_maintenance () =
  let module PS = Perso.Profile_store in
  let profile title =
    Perso.Profile.of_list
      [ (Perso.Atom.sel "movie" "title" (Relal.Value.Str title), Perso.Degree.of_float 0.9) ]
  in
  let dir = fresh_dir () in
  let config = { Store.segment_bytes = 256; fsync = false } in
  let db = Relal.Database.create () in
  PS.install db;
  let s = Store.open_ ~config dir in
  PS.attach db s;
  PS.save db ~user:"julie" (profile "a");
  PS.save db ~user:"julie" (profile "b");
  ignore (squat_first_segment dir : string);
  let third = profile (String.make 300 'c') in
  PS.save db ~user:"julie" third;
  Alcotest.(check int) "failure counted" 1 (Store.stats s).Store.compact_failures;
  Alcotest.(check (pair int int)) "registry and store agree on the revision" (3, 3)
    (PS.revision db ~user:"julie", Store.revision s ~user:"julie");
  let served db =
    match PS.load db ~user:"julie" with
    | Ok p -> Perso.Profile.to_string p
    | Error errs -> Alcotest.failf "load: %s" (String.concat "; " errs)
  in
  let in_memory = served db in
  Alcotest.(check string) "memory serves the save" (Perso.Profile.to_string third)
    in_memory;
  Store.close s;
  let restarted = Relal.Database.create () in
  let s = Store.open_ ~config dir in
  PS.restore restarted s;
  Alcotest.(check string) "a restart restores what memory served" in_memory
    (served restarted);
  Store.close s

(* With L live bytes (a fixed set of users saved again and again),
   appending A bytes runs at most ceil(A / max(segment_bytes, L)) + 1
   maintenances, each leaving one segment and an empty WAL. *)
let test_amortized ~segment_bytes ~users ~live_vs_segment () =
  let dir = fresh_dir () in
  let s = Store.open_ ~config:{ Store.segment_bytes; fsync = false } dir in
  let save user revision =
    let entries = [ e (Printf.sprintf "COND.%s = 'x'" user) 0.5 ] in
    let n = (Store.stats s).Store.compactions in
    Store.save s ~user ~revision entries;
    if (Store.stats s).Store.compactions > n then
      check_maintained (Printf.sprintf "%s at %d" user revision) dir;
    frame_bytes (Codec.Put { user; revision; entries })
  in
  let names = List.init users (Printf.sprintf "u%03d") in
  let live = List.fold_left (fun acc user -> acc + save user 1) 0 names in
  Alcotest.(check int) "live bytes against segment_bytes" live_vs_segment
    (compare live segment_bytes);
  let before = (Store.stats s).Store.compactions in
  let appended = ref 0 in
  for revision = 2 to 60 do
    List.iter (fun user -> appended := !appended + save user revision) names
  done;
  let runs = (Store.stats s).Store.compactions - before in
  let every = max segment_bytes live in
  let bound = ((!appended + every - 1) / every) + 1 in
  if runs > bound || runs < bound - 3 then
    Alcotest.failf "%d maintenances for %d bytes appended (L = %d): expected %d at most, \
                    and no fewer than %d" runs !appended live bound (bound - 3);
  Alcotest.(check int) "no failure" 0 (Store.stats s).Store.compact_failures;
  Store.close s

(* The layout earlier builds wrote: sealed WALs beside a compacted
   segment, three sealed files in all, and an active WAL.  It opens
   with every record, revision and tombstone, and its first maintenance
   leaves one segment. *)
let test_earlier_layout () =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  let put user revision cond = Codec.Put { user; revision; entries = [ e cond 0.5 ] } in
  let sealed =
    [
      ("seg-000004.dat", [ put "ann" 1 "a1"; put "bob" 1 "b1"; put "carl" 1 "c1" ]);
      ("wal-000005.log", [ put "ann" 2 "a2"; Codec.Delete { user = "bob"; revision = 2 } ]);
      ("wal-000006.log", [ put "dana" 1 "d1"; put "carl" 2 "c2" ]);
    ]
  and wal = ("wal-000007.log", [ put "erin" 1 "e1"; put "ann" 3 "a3" ]) in
  let write (name, records) =
    let data = String.concat "" (List.map (fun r -> Wal.frame (Codec.encode_record r)) records) in
    write_file (Filename.concat dir name) data;
    Printf.sprintf "segment %s %d\n" name (String.length data)
  in
  let segment_lines = List.map write sealed in
  ignore (write wal : string);
  write_file (Filename.concat dir "MANIFEST")
    (String.concat "" (("perso-store 1\n" :: segment_lines) @ [ "wal wal-000007.log\n" ]));
  let expect ctx s =
    Alcotest.(check (list (pair string int)))
      (ctx ^ ": revisions, the tombstone's included")
      [ ("ann", 3); ("bob", 2); ("carl", 2); ("dana", 1); ("erin", 1) ]
      (Store.revisions s);
    Alcotest.(check (list (pair string (option entries_t))))
      (ctx ^ ": latest records")
      [
        ("ann", Some [ e "a3" 0.5 ]); ("bob", None); ("carl", Some [ e "c2" 0.5 ]);
        ("dana", Some [ e "d1" 0.5 ]); ("erin", Some [ e "e1" 0.5 ]);
      ]
      (List.map (fun u -> (u, Store.load s ~user:u)) [ "ann"; "bob"; "carl"; "dana"; "erin" ])
  in
  let s = Store.open_ ~config:small_config dir in
  expect "opened" s;
  Alcotest.(check int) "three sealed segments" 3 (Store.stats s).Store.segments;
  Store.compact_now s;
  expect "maintained" s;
  Alcotest.(check int) "one segment" 1 (Store.stats s).Store.segments;
  check_maintained "first maintenance" dir;
  Store.close s;
  let s = Store.open_ ~config:small_config dir in
  expect "reopened" s;
  Store.close s

(* ------------------------------ damage ------------------------------ *)

let sealed_segment dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> String.length n >= 4 && String.sub n 0 4 = "seg-")
  |> function
  | [] -> Alcotest.fail "no sealed segment on disk"
  | n :: _ -> Filename.concat dir n

let store_with_sealed () =
  let dir = fresh_dir () in
  let s = Store.open_ ~config:small_config dir in
  for i = 1 to 20 do
    Store.save s ~user:(Printf.sprintf "u%d" i) ~revision:i
      [ e (String.make 24 'z') 0.5 ]
  done;
  Store.close s;
  dir

let test_sealed_bad_crc () =
  let dir = store_with_sealed () in
  let victim = sealed_segment dir in
  let b = Bytes.of_string (read_file victim) in
  Bytes.set b (Wal.header_bytes + 2)
    (if Bytes.get b (Wal.header_bytes + 2) = 'z' then 'q' else 'z');
  write_file victim (Bytes.to_string b);
  match Store.open_r ~config:small_config dir with
  | Error (Store.Bad_crc _) -> ()
  | Error e -> Alcotest.failf "expected Bad_crc: %s" (Store.error_to_string e)
  | Ok _ -> Alcotest.fail "corrupt sealed segment opened"

let test_sealed_truncated () =
  let dir = store_with_sealed () in
  let victim = sealed_segment dir in
  let contents = read_file victim in
  write_file victim (String.sub contents 0 (String.length contents - 3));
  match Store.open_r ~config:small_config dir with
  | Error (Store.Torn_log _) -> ()
  | Error e -> Alcotest.failf "expected Torn_log: %s" (Store.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated sealed segment opened"

let test_wal_torn_tail_truncated () =
  let dir = fresh_dir () in
  let s = Store.open_ ~config:small_config dir in
  Store.save s ~user:"keep" ~revision:1 [ e "a" 0.9 ];
  Store.close s;
  (* simulate a crash mid-append: a partial frame at the WAL tail *)
  let wal =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> String.length n >= 4 && String.sub n 0 4 = "wal-")
    |> function
    | [ n ] -> Filename.concat dir n
    | _ -> Alcotest.fail "expected one wal file"
  in
  let torn = Wal.frame (Codec.encode_record
      (Codec.Put { user = "lost"; revision = 2; entries = [] }))
  in
  write_file wal (read_file wal ^ String.sub torn 0 (String.length torn - 2));
  let s' = Store.open_ ~config:small_config dir in
  Alcotest.(check int) "tail truncated" 1 (Store.stats s').Store.torn_truncated;
  Alcotest.(check (option entries_t)) "prefix kept" (Some [ e "a" 0.9 ])
    (Store.load s' ~user:"keep");
  Alcotest.(check int) "unacknowledged record gone" 0
    (Store.revision s' ~user:"lost");
  (* and the truncation is durable: the next open is clean *)
  Store.close s';
  let s'' = Store.open_ ~config:small_config dir in
  Alcotest.(check int) "no torn tail second time" 0
    (Store.stats s'').Store.torn_truncated;
  Store.close s''

let test_wal_mid_corruption_fatal () =
  let dir = fresh_dir () in
  let s = Store.open_ ~config:small_config dir in
  Store.save s ~user:"a" ~revision:1 [ e "x" 0.1 ];
  Store.save s ~user:"b" ~revision:2 [ e "y" 0.2 ];
  Store.close s;
  let wal =
    Sys.readdir dir |> Array.to_list
    |> List.find (fun n -> String.length n >= 4 && String.sub n 0 4 = "wal-")
  in
  let path = Filename.concat dir wal in
  let b = Bytes.of_string (read_file path) in
  (* flip a byte inside the FIRST frame: not a tail, so not torn *)
  Bytes.set b (Wal.header_bytes)
    (Char.chr (Char.code (Bytes.get b Wal.header_bytes) lxor 1));
  write_file path (Bytes.to_string b);
  match Store.open_r ~config:small_config dir with
  | Error (Store.Bad_crc _) -> ()
  | Error e -> Alcotest.failf "expected Bad_crc: %s" (Store.error_to_string e)
  | Ok _ -> Alcotest.fail "mid-log corruption silently dropped"

let test_strays_removed () =
  let dir = store_with_sealed () in
  let stray_wal = Filename.concat dir "wal-999999.log" in
  let stray_tmp = Filename.concat dir "MANIFEST.tmp" in
  write_file stray_wal "leftover";
  write_file stray_tmp "leftover";
  let s = Store.open_ ~config:small_config dir in
  Alcotest.(check bool) "stray wal removed" false (Sys.file_exists stray_wal);
  Alcotest.(check bool) "stray tmp removed" false (Sys.file_exists stray_tmp);
  Store.close s

let test_missing_manifest () =
  (* with sealed segments: refuse *)
  let dir = store_with_sealed () in
  Sys.remove (Filename.concat dir "MANIFEST");
  (match Store.open_r ~config:small_config dir with
  | Error (Store.Malformed { file; _ }) ->
      Alcotest.(check string) "names the directory" dir file
  | Error e -> Alcotest.failf "expected Malformed: %s" (Store.error_to_string e)
  | Ok _ -> Alcotest.fail "manifest-less store with segments opened");
  (* with only a WAL, what an older build's crashed init left: a store
     of this build appears only with its manifest, so this directory is
     none it made — refuse it too, and leave it as it is *)
  let dir2 = fresh_dir () in
  Sys.mkdir dir2 0o755;
  write_file (Filename.concat dir2 "wal-000001.log") "partial init";
  (match Store.open_r ~config:small_config dir2 with
  | Error (Store.Malformed { file; _ }) ->
      Alcotest.(check string) "names the directory" dir2 file
  | Error e -> Alcotest.failf "expected Malformed: %s" (Store.error_to_string e)
  | Ok _ -> Alcotest.fail "manifest-less directory opened");
  Alcotest.(check string) "left as it was" "partial init"
    (read_file (Filename.concat dir2 "wal-000001.log"));
  (* an empty directory was never made: a fresh store, made in place of
     it; a staging directory a kill left behind goes first *)
  let dir3 = fresh_dir () in
  Sys.mkdir dir3 0o755;
  let staging =
    Filename.concat (Filename.dirname dir3) ("." ^ Filename.basename dir3 ^ ".staging")
  in
  Sys.mkdir staging 0o755;
  write_file (Filename.concat staging "wal-000001.log") "killed init";
  let s = Store.open_ ~config:small_config dir3 in
  Alcotest.(check (list string)) "fresh store" [] (Store.users s);
  Store.close s;
  Alcotest.(check bool) "stale staging removed" false (Sys.file_exists staging);
  Alcotest.(check bool) "manifest in place" true
    (Sys.file_exists (Filename.concat dir3 "MANIFEST"))

let test_empty_manifest_malformed () =
  let dir = fresh_dir () in
  let s = Store.open_ ~config:small_config dir in
  Store.close s;
  write_file (Filename.concat dir "MANIFEST") "";
  match Store.open_r ~config:small_config dir with
  | Error (Store.Malformed _) -> ()
  | Error e -> Alcotest.failf "expected Malformed: %s" (Store.error_to_string e)
  | Ok _ -> Alcotest.fail "empty manifest accepted"

(* ---------------------------- older roots ---------------------------- *)

(* The layout an earlier build wrote for a store directory: [copies]
   member directories r0/, r1/, ... each a full store holding the same
   records, and a REPLSTATE file pinning their count. *)
let old_root copies =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  for k = 0 to copies - 1 do
    let s =
      Store.open_ ~config:small_config
        (Filename.concat dir (Printf.sprintf "r%d" k))
    in
    for i = 1 to 12 do
      Store.save s ~user:(Printf.sprintf "user%02d" i) ~revision:i
        [ e (Printf.sprintf "GENRE.genre = 'g%d'" i) 0.5 ]
    done;
    Store.delete s ~user:"user03" ~revision:13;
    Store.close s
  done;
  write_file
    (Filename.concat dir "REPLSTATE")
    (Printf.sprintf "perso-replicas %d\nprimary 0\n" copies);
  dir

let old_root_users =
  List.init 12 (fun i -> Printf.sprintf "user%02d" (i + 1))
  |> List.filter (( <> ) "user03")

let check_adopted dir =
  let s = Store.open_ ~config:small_config dir in
  Alcotest.(check (list string))
    "every user back" old_root_users (Store.users s);
  List.iter
    (fun user ->
      let n = int_of_string (String.sub user 4 2) in
      Alcotest.(check (option entries_t))
        user
        (Some [ e (Printf.sprintf "GENRE.genre = 'g%d'" n) 0.5 ])
        (Store.load s ~user))
    old_root_users;
  Alcotest.(check int) "tombstone revision kept" 13
    (Store.revision s ~user:"user03");
  Store.close s;
  Alcotest.(check bool) "REPLSTATE gone" false
    (Sys.file_exists (Filename.concat dir "REPLSTATE"));
  Alcotest.(check bool) "r0 gone" false
    (Sys.file_exists (Filename.concat dir "r0"))

let test_old_root_adopted () =
  let dir = old_root 1 in
  (* the read-only scrub does not adopt: it names the directory *)
  (match Scrub.scan_dir dir with
  | exception Store.Store_error (Store.Malformed { file; _ }) ->
      Alcotest.(check string) "scrub names the directory" dir file
  | _ -> Alcotest.fail "scrub passed an unadopted root");
  check_adopted dir;
  Alcotest.(check int) "scrub clean after adoption" 0
    (List.length (Scrub.scan_dir dir).Scrub.damaged);
  (* a second open finds the adopted layout and changes nothing *)
  check_adopted dir

(* A crash mid-move leaves some data files moved up and r0's manifest
   still in r0: the next open finishes the move. *)
let test_old_root_resumes () =
  let dir = old_root 1 in
  let r0 = Filename.concat dir "r0" in
  let data =
    Sys.readdir r0 |> Array.to_list
    |> List.filter (fun n -> n <> "MANIFEST")
    |> List.sort compare
  in
  Alcotest.(check bool) "several data files" true (List.length data >= 2);
  let moved = List.hd data in
  Sys.rename (Filename.concat r0 moved) (Filename.concat dir moved);
  check_adopted dir

let test_old_root_several_refused () =
  let dir = old_root 3 in
  (match Store.open_r ~config:small_config dir with
  | Error (Store.Malformed { file; _ }) ->
      Alcotest.(check string) "names the directory" dir file
  | Error err -> Alcotest.failf "wrong error: %s" (Store.error_to_string err)
  | Ok _ -> Alcotest.fail "opened a root holding three copies");
  Alcotest.(check bool) "left as it was" true
    (Sys.file_exists (Filename.concat dir "REPLSTATE")
    && Sys.file_exists (Filename.concat (Filename.concat dir "r0") "MANIFEST")
    && not (Sys.file_exists (Filename.concat dir "MANIFEST")))

let () =
  Alcotest.run "store"
    [
      ( "crc32",
        [ Alcotest.test_case "check vector" `Quick test_crc_vector ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects damage" `Quick test_codec_rejects_damage;
        ] );
      ( "wal",
        [
          Alcotest.test_case "scan classification" `Quick
            test_wal_scan_classification;
          Alcotest.test_case "append + read_frame" `Quick test_wal_append_read;
        ] );
      ( "store",
        [
          Alcotest.test_case "basics" `Quick test_store_basics;
          Alcotest.test_case "reopen replays" `Quick test_reopen_replays;
          Alcotest.test_case "compaction" `Quick test_compaction;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "a failed step keeps the save" `Quick
            test_failed_maintenance_keeps_save;
          Alcotest.test_case "profile save through a failed step" `Quick
            test_profile_save_through_failed_maintenance;
          Alcotest.test_case "amortized, live bytes below segment_bytes" `Quick
            (test_amortized ~segment_bytes:2048 ~users:8 ~live_vs_segment:(-1));
          Alcotest.test_case "amortized, live bytes above segment_bytes" `Quick
            (test_amortized ~segment_bytes:128 ~users:24 ~live_vs_segment:1);
          Alcotest.test_case "earlier layout: three sealed segments" `Quick
            test_earlier_layout;
        ] );
      ( "damage",
        [
          Alcotest.test_case "sealed bad crc" `Quick test_sealed_bad_crc;
          Alcotest.test_case "sealed truncated" `Quick test_sealed_truncated;
          Alcotest.test_case "wal torn tail truncated" `Quick
            test_wal_torn_tail_truncated;
          Alcotest.test_case "wal mid corruption fatal" `Quick
            test_wal_mid_corruption_fatal;
          Alcotest.test_case "strays removed" `Quick test_strays_removed;
          Alcotest.test_case "missing manifest" `Quick test_missing_manifest;
          Alcotest.test_case "empty manifest" `Quick
            test_empty_manifest_malformed;
        ] );
      ( "older-roots",
        [
          Alcotest.test_case "one copy adopted in place" `Quick
            test_old_root_adopted;
          Alcotest.test_case "crash mid-move resumes" `Quick
            test_old_root_resumes;
          Alcotest.test_case "three copies refused" `Quick
            test_old_root_several_refused;
        ] );
    ]
