(* Parser fuzzing: on arbitrary byte strings the SQL front end may
   accept or reject, but the only permitted rejections are the typed
   Lex_error / Parse_error — no Invalid_argument, no Failure, no
   assertion from deep inside the lexer.  The dump decoders (CSV tables,
   schema.ddl) are held to the same contract with their own errors, and
   the wire protocol's request parsers to theirs. *)

open Relal

(* true iff the front end held its contract on this input *)
let front_end_total s =
  match Sql_parser.parse s with
  | (_ : Sql_ast.query) -> true
  | exception Sql_parser.Parse_error _ -> true
  | exception Sql_lexer.Lex_error _ -> true
  | exception _ -> false

let fuzz_random_bytes =
  QCheck.Test.make ~count:2000 ~name:"parser total on random bytes"
    QCheck.(string_gen Gen.char)
    front_end_total

let fuzz_almost_sql =
  (* Mutations close to real SQL reach deeper into the parser than
     uniform noise does. *)
  let fragment =
    QCheck.Gen.oneofl
      [
        "select"; "from"; "where"; "and"; "or"; "group by"; "order";
        "m.title"; "movie m"; "*"; ","; "("; ")"; "'"; "''"; "0.5"; "42";
        "="; "<>"; "<="; ">"; "count"; "distinct"; "as"; "having";
        "union all"; "not"; "null"; "--"; "\n"; " "; "\t"; "\x00"; "\xff";
      ]
  in
  let gen =
    QCheck.Gen.(map (String.concat " ") (list_size (int_range 0 12) fragment))
  in
  QCheck.Test.make ~count:2000 ~name:"parser total on SQL-ish mutations"
    (QCheck.make ~print:(fun s -> String.escaped s) gen)
    front_end_total

let adversarial_corpus =
  [
    "";
    " ";
    "select";
    "select ";
    "select * from";
    "select m. from m";
    "select 'unterminated from movie m";
    "select m.title from movie m where";
    "select m.title from movie m where m.year = ";
    "select ((((((((((";
    "select m.title from (select from) x";
    "select \x00\x01\x02 from \xfe\xff";
    String.make 10_000 '(';
    String.make 100_000 'a';
    "select " ^ String.concat ", " (List.init 2000 (fun i -> Printf.sprintf "t.c%d" i)) ^ " from t";
    "SELECT M.TITLE FROM MOVIE M WHERE M.YEAR = 2003";
    "select m.title from movie m where m.title = '\\'";
    "select m.title -- comment\nfrom movie m";
  ]

let test_adversarial () =
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "corpus case %d" i)
        true (front_end_total s))
    adversarial_corpus

(* Decoders of on-disk dumps: a table's CSV and schema.ddl.  On any
   bytes each must load or fail with its own typed error — Csv_error,
   Ddl_error — and nothing else. *)

let all_types =
  Schema.make ~name:"t"
    ~cols:
      [
        ("i", Value.TInt); ("f", Value.TFloat); ("s", Value.TStr);
        ("b", Value.TBool); ("d", Value.TDate);
      ]
    ()

let csv_total text =
  match Csv.table_of_string all_types text with
  | (_ : Table.t) -> true
  | exception Csv.Csv_error _ -> true
  | exception _ -> false

let ddl_total text =
  match Ddl.parse text with
  | (_ : Database.t) -> true
  | exception Ddl.Ddl_error _ -> true
  | exception _ -> false

let fuzz_csv_random_bytes =
  QCheck.Test.make ~count:2000 ~name:"csv decoder total on random bytes"
    QCheck.(string_gen Gen.char)
    csv_total

let fuzz_csv_rows =
  (* Behind a valid header, so the bytes reach row typing and
     Table.insert rather than stopping at the header check. *)
  let fragment =
    QCheck.Gen.oneofl
      [
        ","; "\""; "\"\""; "\r"; "\n"; "\r\n"; ""; "1"; "-7"; "2.5"; "1e308";
        "nan"; "true"; "F"; "2003-07-02"; "2/7/2003"; "2003-02-30"; "abc";
        "\x00"; "\xff"; " ";
      ]
  in
  let gen =
    QCheck.Gen.(
      map
        (fun parts -> "i,f,s,b,d\n" ^ String.concat "" parts)
        (list_size (int_range 0 40) fragment))
  in
  QCheck.Test.make ~count:2000 ~name:"csv decoder total on CSV-ish rows"
    (QCheck.make ~print:String.escaped gen)
    csv_total

let fuzz_ddl_random_bytes =
  QCheck.Test.make ~count:2000 ~name:"ddl decoder total on random bytes"
    QCheck.(string_gen Gen.char)
    ddl_total

let fuzz_ddl_edits =
  (* A valid script with one to three token edits (replace, insert,
     delete): near-valid input reaches every clause of the grammar, where
     uniform fragments rarely get past the first keyword. *)
  let valid =
    String.split_on_char ' '
      "create table t ( a int primary key , b string unique , c date ) ; \
       create table u ( a int references t(a) , d float , primary key ( a \
       , d ) ) ; create index on t ( b ) ; create index on u ( d ) ;"
  in
  let fragment =
    QCheck.Gen.oneofl
      [
        "create"; "table"; "index"; "on"; "t"; "u"; "nosuch"; "a"; "int";
        "blob"; "primary"; "key"; "unique"; "references"; "("; ")"; ",";
        ";"; "--"; "\n"; "'"; "1"; "\xff"; "";
      ]
  in
  let edit toks =
    let open QCheck.Gen in
    let* i = int_bound (List.length toks) in
    let* f = fragment in
    oneofl
      [
        List.mapi (fun j t -> if j = i then f else t) toks;
        List.concat (List.mapi (fun j t -> if j = i then [ f; t ] else [ t ]) toks)
        @ if i = List.length toks then [ f ] else [];
        List.filteri (fun j _ -> j <> i) toks;
      ]
  in
  let gen =
    let open QCheck.Gen in
    let* n = int_range 1 3 in
    let rec go k toks = if k = 0 then return toks else edit toks >>= go (k - 1) in
    map (String.concat " ") (go n valid)
  in
  QCheck.Test.make ~count:2000 ~name:"ddl decoder total on edited scripts"
    (QCheck.make ~print:String.escaped gen)
    ddl_total

(* Request headers: on any line the protocol parsers must return, never
   raise, and no accepted budget header may loosen the server's caps —
   whatever the header says, the capped budget's limits are numbers no
   greater than the configured ones. *)

module Protocol = Perso_server.Protocol
module Server_core = Perso_server.Server_core

let capped_cfg =
  {
    (Server_core.default_config ~socket_path:"fuzz.sock") with
    Server_core.deadline_ms = Some 250.;
    max_rows = Some 10_000;
    max_expansions = Some 500;
  }

(* Read [lines] the way the server does: headers accumulate until the
   first line that is not one, which is parsed as the command.  [None]
   when something raised. *)
let read_request lines =
  let rec go hdr = function
    | [] -> Some hdr
    | line :: rest -> (
        match Protocol.parse_header_line line with
        | Some update -> go (update hdr) rest
        | None -> (
            match Protocol.parse_command line with
            | Ok _ | Error _ -> Some hdr
            | exception _ -> None)
        | exception _ -> None)
  in
  go Protocol.empty_header lines

let within_caps hdr =
  let b = Server_core.cap_budget capped_cfg hdr in
  let le_f cap = function
    | Some v -> (not (Float.is_nan v)) && v <= cap
    | None -> false
  in
  let le_i cap = function Some v -> v <= cap | None -> false in
  le_f 250. b.Relal.Governor.deadline_ms
  && le_i 10_000 b.max_rows
  && le_i 500 b.max_expansions

let header_total lines =
  match read_request lines with Some hdr -> within_caps hdr | None -> false

let header_line_gen =
  let open QCheck.Gen in
  let keyword =
    oneofl
      [
        "DEADLINE-MS"; "deadline-ms"; "MAX-ROWS"; "max-rows"; "MAX-EXPANSIONS";
        "Max-Expansions"; "DEADLINE-MS:"; "PERSONALIZE";
      ]
  in
  let value =
    oneofl
      [
        "nan"; "NaN"; "-nan"; "+nan"; "inf"; "-inf"; "infinity"; "+infinity";
        "-0"; "0"; "-0.0"; "1e400"; "-1e400"; "1e-400"; "0x10"; "0X1F";
        "0x1p-3"; "-0x8"; "0o17"; "0b101"; "0u42"; "1_000"; "+5"; "-5"; "250";
        "250.000001"; "10001"; "501"; "4611686018427387903";
        "99999999999999999999"; "1e3"; "."; "e"; ""; "abc"; "5 5";
      ]
  in
  let space = oneofl [ ""; " "; "  "; "\t"; " \t "; "\r" ] in
  let near_valid =
    map
      (fun (((lead, kw), (sep, v)), trail) -> lead ^ kw ^ sep ^ v ^ trail)
      (pair (pair (pair space keyword) (pair space value)) space)
  in
  frequency [ (4, near_valid); (1, string_size ~gen:char (int_range 0 40)) ]

let fuzz_budget_headers =
  QCheck.Test.make ~count:3000
    ~name:"budget headers never raise and never loosen the caps"
    (QCheck.make
       ~print:(fun ls -> String.concat " | " (List.map String.escaped ls))
       QCheck.Gen.(list_size (int_range 1 4) header_line_gen))
    header_total

(* Profile text and wire replies: [Profile.of_string], [Profile.parse_line]
   over [Profile.entry_lines] (the PROFILE SAVE splitter), and the
   client's [read_response] each return a value or their typed error on
   any bytes, and never raise. *)

let profile_total text =
  match Perso.Profile.of_string text with
  | Ok _ | Error _ -> true
  | exception _ -> false

let entry_lines_total wire =
  match
    List.for_all
      (fun line ->
        match Perso.Profile.parse_line line with Ok _ | Error _ -> true)
      (Perso.Profile.entry_lines wire)
  with
  | ok -> ok
  | exception _ -> false

(* PROFILE SAVE cuts its entries, then [Profile.of_string] cuts each line
   again: the second cut must return each entry unchanged. *)
let entry_lines_idempotent wire =
  let entries = Perso.Profile.entry_lines wire in
  List.concat_map Perso.Profile.entry_lines entries = entries

let profile_fragment =
  QCheck.Gen.oneofl
    [
      "["; "]"; "[ "; " ]"; ","; ", "; "\n"; "#"; " "; "GENRE.genre"; "MOVIE.mid";
      "PLAY.mid"; "genre"; "."; "="; "<>"; "<="; "'comedy'"; "'"; "''"; "'it''s'";
      "0.9"; "1"; "0"; "-0.5"; "1.5"; "nan"; "inf"; "1e400"; "1e-400"; "2003-07-02";
      "true"; "null"; "and"; "("; ")"; "\x00"; "\xff"; "\t"; "\r";
    ]

(* Mostly near-valid: well-formed entries with a few fragments spliced in. *)
let gen_profile_text =
  let open QCheck.Gen in
  let entry =
    oneofl
      [
        "[ GENRE.genre = 'comedy', 0.9 ]"; "[ MOVIE.mid = GENRE.mid, 1 ]";
        "[ MOVIE.year < 2000, 0.5 ]"; "[ ACTOR.name = 'O''Hara', 0.8 ]";
      ]
  in
  frequency
    [
      (3, map (String.concat "") (list_size (0 -- 16) (oneof [ entry; profile_fragment ])));
      (1, string_size ~gen:char (0 -- 80));
    ]

let fuzz_profile_text =
  QCheck.Test.make ~count:2000 ~name:"Profile.of_string total on near-valid text"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(map2 (fun a b -> a ^ "\n" ^ b) gen_profile_text gen_profile_text))
    profile_total

let fuzz_profile_random_bytes =
  QCheck.Test.make ~count:2000 ~name:"Profile.of_string total on random bytes"
    QCheck.(string_gen Gen.char)
    profile_total

let gen_profile_wire =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(map (String.concat " ") (list_size (0 -- 6) gen_profile_text))

let fuzz_profile_wire =
  QCheck.Test.make ~count:2000
    ~name:"Profile.parse_line total over PROFILE SAVE splits" gen_profile_wire
    entry_lines_total

let fuzz_entry_lines_idempotent =
  QCheck.Test.make ~count:2000 ~name:"Profile.entry_lines cuts an entry once"
    gen_profile_wire entry_lines_idempotent

(* The profile readers under them: [Atom.of_string] on condition text,
   and [Profile_store.load] over stored rows of random bytes and
   degrees (and NULL or integer cells the loader does not accept),
   return a value or their typed
   errors and never raise. *)
let atom_total text =
  match Perso.Atom.of_string text with
  | Ok _ | Error _ -> true
  | exception _ -> false

let fuzz_atom_of_string =
  QCheck.Test.make ~count:2000 ~name:"Atom.of_string total on condition text"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         frequency
           [
             (3, map (String.concat "") (list_size (0 -- 8) profile_fragment));
             (1, string_size ~gen:char (0 -- 40));
           ]))
    atom_total

let gen_stored_row =
  let open QCheck.Gen in
  let cond =
    frequency
      [
        (3, map (fun s -> Value.Str s) (string_size ~gen:char (0 -- 30)));
        ( 3,
          map
            (fun l -> Value.Str (String.concat "" l))
            (list_size (0 -- 6) profile_fragment) );
        (1, return Value.Null);
      ]
  in
  let degree =
    frequency
      [
        (4, map (fun f -> Value.Float f) (float_range (-0.5) 1.5));
        (1, map (fun f -> Value.Float f) (oneofl [ 0.; 1.; Float.nan; infinity ]));
        (1, map (fun i -> Value.Int i) small_int);
        (1, return Value.Null);
      ]
  in
  map2 (fun c d -> [| Value.Str "u"; c; d |]) cond degree

let fuzz_profile_load_rows =
  QCheck.Test.make ~count:1000 ~name:"Profile_store.load total on random rows"
    (QCheck.make QCheck.Gen.(list_size (0 -- 12) gen_stored_row))
    (fun rows ->
      let db = Database.create () in
      Perso.Profile_store.install db;
      List.iter
        (Table.insert (Database.table db Perso.Profile_store.table_name))
        rows;
      match Perso.Profile_store.load db ~user:"u" with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* [read_response] reads from a pipe holding exactly [bytes], then EOF. *)
let response_total bytes =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let n = Unix.write_substring wr bytes 0 (String.length bytes) in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let ok =
    n = String.length bytes
    &&
    match Protocol.read_response ic with
    | Ok _ | Error _ -> true
    | exception _ -> false
  in
  close_in ic;
  ok

let gen_response =
  let open QCheck.Gen in
  let line =
    oneofl
      [
        "OK rows=2"; "OK health"; "OK pong"; "OK "; "OK"; "ERR parse 1 bad"; "ERR x y z";
        "ERR storage 99999999999999999999 m"; "ERR "; "ERR  1 "; "NOTE a note";
        "NOTE "; "COLS a\tb"; "COLS "; "ROW 1\t'x'"; "ROW "; "ROW \t\t";
        "STAT pers_ok 3"; "STAT "; "STAT x"; "END"; "end"; ""; "\r"; "\x00"; "\xff";
      ]
  in
  frequency
    [
      (4, map (String.concat "\n") (list_size (0 -- 10) line));
      (1, string_size ~gen:char (0 -- 200));
    ]

let fuzz_read_response =
  QCheck.Test.make ~count:2000 ~name:"read_response total on arbitrary replies"
    (QCheck.make ~print:String.escaped gen_response)
    response_total

(* Store decoders: [Codec.decode_record] and [Wal.scan_string] read
   bytes from disk, so on any input they return a value or their typed
   outcome ([Error], [Torn], [Corrupt]) and never raise. *)

module Codec = Perso_store.Codec
module Wal = Perso_store.Wal

let decode_total s =
  match Codec.decode_record s with Ok _ | Error _ -> true | exception _ -> false

(* A nine-byte varint whose last byte sets bit 62 wraps to a negative
   int: as an entry count it reached [List.init] (Invalid_argument), as
   a revision it decoded.  A length of [max_int] overflowed the bounds
   check's [pos + n] and reached [String.sub]. *)
let test_codec_crafted () =
  let refused name bytes =
    match Codec.decode_record bytes with
    | Error _ -> ()
    | Ok r ->
        Alcotest.failf "%s: decoded (revision %d)" name (Codec.record_revision r)
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  refused "entry count 2^62" "\x01\x01u\x00\x80\x80\x80\x80\x80\x80\x80\x80\x40";
  refused "revision 2^62" "\x01\x01u\x80\x80\x80\x80\x80\x80\x80\x80\x40\x00";
  refused "user length max_int" "\x01\xff\xff\xff\xff\xff\xff\xff\xff\x3f";
  refused "ten-byte varint" "\x02\x00\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00";
  let top = Codec.Delete { user = "u"; revision = max_int } in
  match Codec.decode_record (Codec.encode_record top) with
  | Ok (Codec.Delete { revision; _ }) ->
      Alcotest.(check int) "max_int still decodes" max_int revision
  | _ -> Alcotest.fail "max_int revision did not round-trip"

let gen_record =
  let open QCheck.Gen in
  let revision =
    frequency
      [ (4, nat); (1, oneofl [ 0; 127; 128; 1 lsl 56; max_int - 1; max_int ]) ]
  in
  let user = string_size ~gen:printable (0 -- 12) in
  let entry =
    map2
      (fun cond degree -> { Codec.cond; degree })
      (string_size ~gen:char (0 -- 40))
      (oneof [ float; float_bound_inclusive 1.; oneofl [ nan; infinity; -0. ] ])
  in
  frequency
    [
      ( 4,
        map3
          (fun user revision entries -> Codec.Put { user; revision; entries })
          user revision
          (list_size (0 -- 6) entry) );
      (1, map2 (fun user revision -> Codec.Delete { user; revision }) user revision);
    ]

let arb_record =
  QCheck.make ~print:(fun r -> String.escaped (Codec.encode_record r)) gen_record

(* Bytes round-trip: floats compare by their bits, nan included. *)
let fuzz_codec_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"Codec records round-trip" arb_record
    (fun r ->
      let s = Codec.encode_record r in
      match Codec.decode_record s with
      | Ok r' -> Codec.encode_record r' = s
      | Error _ -> false)

let fuzz_codec_random_bytes =
  QCheck.Test.make ~count:3000 ~name:"Codec.decode_record total on random bytes"
    QCheck.(string_gen Gen.char)
    decode_total

(* Every strict prefix of a valid encoding, and the encoding with one
   byte replaced. *)
let fuzz_codec_damage =
  QCheck.Test.make ~count:2000
    ~name:"Codec.decode_record total on truncated and mutated records"
    QCheck.(pair arb_record (pair small_nat (int_bound 255)))
    (fun (r, (i, byte)) ->
      let s = Codec.encode_record r in
      let n = String.length s in
      let at = i mod n in
      let mutated = Bytes.of_string s in
      Bytes.set mutated at (Char.chr byte);
      List.for_all decode_total (List.init n (String.sub s 0))
      && decode_total (Bytes.to_string mutated))

let scan_total data =
  match
    Wal.scan_string data (fun ~pos:_ payload -> ignore (decode_total payload))
  with
  | _ -> true
  | exception _ -> false

(* Random bytes, and logs of framed valid records with one byte
   replaced or the tail cut. *)
let fuzz_wal_scan =
  let open QCheck.Gen in
  let damaged_log =
    map3
      (fun records i byte ->
        let log = String.concat "" (List.map (fun r -> Wal.frame (Codec.encode_record r)) records) in
        let n = String.length log in
        if n = 0 then log
        else if byte < 0 then String.sub log 0 (i mod n)
        else begin
          let b = Bytes.of_string log in
          Bytes.set b (i mod n) (Char.chr byte);
          Bytes.to_string b
        end)
      (list_size (0 -- 4) gen_record)
      nat (-1 -- 255)
  in
  QCheck.Test.make ~count:2000 ~name:"Wal.scan_string total on arbitrary logs"
    (QCheck.make ~print:String.escaped
       (frequency [ (1, string_size ~gen:char (0 -- 64)); (2, damaged_log) ]))
    scan_total

let () =
  Alcotest.run "fuzz"
    [
      ( "sql front end",
        [
          QCheck_alcotest.to_alcotest fuzz_random_bytes;
          QCheck_alcotest.to_alcotest fuzz_almost_sql;
          Alcotest.test_case "adversarial corpus" `Quick test_adversarial;
        ] );
      ( "dump decoders",
        [
          QCheck_alcotest.to_alcotest fuzz_csv_random_bytes;
          QCheck_alcotest.to_alcotest fuzz_csv_rows;
          QCheck_alcotest.to_alcotest fuzz_ddl_random_bytes;
          QCheck_alcotest.to_alcotest fuzz_ddl_edits;
        ] );
      ( "profile text",
        List.map QCheck_alcotest.to_alcotest
          [
            fuzz_profile_text; fuzz_profile_random_bytes; fuzz_profile_wire;
            fuzz_entry_lines_idempotent; fuzz_atom_of_string;
            fuzz_profile_load_rows;
          ] );
      ( "protocol",
        List.map QCheck_alcotest.to_alcotest
          [ fuzz_budget_headers; fuzz_read_response ] );
      ( "store codecs",
        Alcotest.test_case "crafted varints and lengths" `Quick test_codec_crafted
        :: List.map QCheck_alcotest.to_alcotest
             [
               fuzz_codec_roundtrip; fuzz_codec_random_bytes; fuzz_codec_damage;
               fuzz_wal_scan;
             ] );
    ]
