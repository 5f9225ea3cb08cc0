exception Csv_error of string

let err fmt = Format.kasprintf (fun s -> raise (Csv_error s)) fmt

(* ------------------------------ writing ------------------------------ *)

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let quote_field ?(force = false) s =
  if (not force) && not (needs_quoting s) then s
  else begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

(* Returns the field text and whether quoting is mandatory even when the
   text needs none — the empty string must stay distinguishable from
   NULL (an empty unquoted field). *)
let field_of_value = function
  | Value.Null -> ("", false)
  | Value.Int i -> (string_of_int i, false)
  | Value.Float f -> (Printf.sprintf "%.17g" f, false)
  | Value.Bool b -> ((if b then "true" else "false"), false)
  | Value.Date d ->
      ( Printf.sprintf "%04d-%02d-%02d" (d / 10000) (d / 100 mod 100) (d mod 100),
        false )
  | Value.Str s -> (s, s = "")

let table_to_string t =
  let b = Buffer.create 4096 in
  let cols = Schema.columns (Table.schema t) in
  Buffer.add_string b
    (String.concat ","
       (Array.to_list (Array.map (fun c -> quote_field c.Schema.cname) cols)));
  Buffer.add_char b '\n';
  Table.iter t (fun row ->
      let line =
        String.concat ","
          (Array.to_list
             (Array.map
                (fun v ->
                  let text, force = field_of_value v in
                  quote_field ~force text)
                row))
      in
      Buffer.add_string b line;
      Buffer.add_char b '\n');
  Buffer.contents b

(* ------------------------------ parsing ------------------------------ *)

(* The one CSV scanner: a single pass over [text] that hands each record
   to [on_record] as soon as its line ends, so no file is ever held as a
   list of records.  A field is a run of segments — plain text outside
   quotes, quoted text with [""] for a quote — copied into [buf] a
   segment at a time; a [\r] outside quotes is dropped (CRLF tolerance).
   A last line without a newline is still a record. *)
let scan text on_record =
  let len = String.length text in
  let fields = ref [] and buf = Buffer.create 64 and quoted = ref false in
  let segment a b = Buffer.add_substring buf text a (b - a) in
  let flush_field () =
    fields := (Buffer.contents buf, !quoted) :: !fields;
    Buffer.clear buf;
    quoted := false
  in
  let flush_record () =
    flush_field ();
    on_record (Array.of_list (List.rev !fields));
    fields := []
  in
  let i = ref 0 in
  while !i < len do
    let j = ref !i in
    while
      !j < len
      &&
      match text.[!j] with
      | ',' | '\n' | '\r' | '"' -> false
      | _ -> true
    do
      incr j
    done;
    segment !i !j;
    if !j = len then i := len
    else
      match text.[!j] with
      | ',' ->
          flush_field ();
          i := !j + 1
      | '\n' ->
          flush_record ();
          i := !j + 1
      | '\r' -> i := !j + 1
      | _ ->
          (* '"': a quoted segment, up to the next lone quote; a doubled
             quote keeps one. *)
          quoted := true;
          let rec quoted_segment k =
            match String.index_from_opt text k '"' with
            | None -> err "unterminated quoted field"
            | Some q when q + 1 < len && text.[q + 1] = '"' ->
                segment k (q + 1);
                quoted_segment (q + 2)
            | Some q ->
                segment k q;
                i := q + 1
          in
          quoted_segment (!j + 1)
  done;
  if !fields <> [] || Buffer.length buf > 0 || !quoted then flush_record ()

let value_of_field ty s was_quoted =
  if s = "" && not was_quoted then Value.Null
  else
    match ty with
    | Value.TStr -> Value.Str s
    | Value.TInt -> (
        match int_of_string_opt s with
        | Some i -> Value.Int i
        | None -> err "bad int field %S" s)
    | Value.TFloat -> (
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> err "bad float field %S" s)
    | Value.TBool -> (
        match String.lowercase_ascii s with
        | "true" | "t" | "1" -> Value.Bool true
        | "false" | "f" | "0" -> Value.Bool false
        | _ -> err "bad bool field %S" s)
    | Value.TDate -> (
        match Value.parse_date s with
        | Some d -> d
        | None -> err "bad date field %S" s)

(* Append [text]'s rows to [t]: the header is checked against the
   schema, and each row is typed under it and goes through
   [Table.insert]'s own checks.  Rows are numbered by record, the header
   being row 1. *)
let load_rows t text =
  let schema = Table.schema t in
  let name = Schema.name schema in
  let cols = Schema.columns schema in
  let arity = Array.length cols in
  let records = ref 0 in
  scan text (fun fields ->
      incr records;
      let row_no = !records in
      if row_no = 1 then begin
        let lc_names a = Array.to_list (Array.map String.lowercase_ascii a) in
        let expected = lc_names (Array.map (fun c -> c.Schema.cname) cols)
        and got = lc_names (Array.map fst fields) in
        if got <> expected then
          err "header mismatch for %s: expected %s, got %s" name
            (String.concat "," expected) (String.concat "," got)
      end
      else begin
        let n = Array.length fields in
        if n <> arity then
          err "row %d of %s has %d fields, expected %d" row_no name n arity;
        let row =
          Array.mapi
            (fun i (s, was_quoted) ->
              try value_of_field cols.(i).Schema.cty s was_quoted
              with Csv_error e ->
                err "row %d of %s, column %s: %s" row_no name
                  cols.(i).Schema.cname e)
            fields
        in
        try Table.insert t row
        with Invalid_argument e -> err "row %d of %s: %s" row_no name e
      end);
  if !records = 0 then err "missing header line"

let table_of_string schema text =
  let t = Table.create schema in
  load_rows t text;
  t

(* ----------------------------- databases ----------------------------- *)

(* Crash-safe dump layout: every file of a dump is written into a fresh
   temp directory and fsynced, a manifest with per-file MD5 checksums and
   sizes is written last, and the temp directory is swapped in with
   renames.  The commit point is the [tmp -> dir] rename: a crash at any
   earlier moment leaves the previous dump untouched (possibly parked at
   [<dir>.old], which [load_db_r] moves back).  Loading verifies the
   manifest, so torn or hand-truncated dumps surface as a typed
   [Torn_dump] instead of a parse error deep inside some table. *)

type load_error =
  | Missing_dump of string
  | Torn_dump of { dir : string; detail : string }
  | Malformed of string

let load_error_to_string = function
  | Missing_dump dir -> Printf.sprintf "no database dump at %s" dir
  | Torn_dump { dir; detail } ->
      Printf.sprintf "torn dump at %s: %s" dir detail
  | Malformed msg -> msg

let manifest_file = "manifest.sum"

let old_suffix = ".old"
let tmp_suffix = ".save-tmp"

let file_io path f =
  try f ()
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e))

let write_file_sync path contents =
  file_io path @@ fun () ->
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length contents in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write_substring fd contents !written (n - !written)
      done;
      Unix.fsync fd)

(* Directory fsync makes the renames/creates durable; not every
   filesystem supports it, so failures are ignored. *)
let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

(* Dump directories are flat — remove files then the directory. *)
let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let dump_files db =
  ("schema.ddl", Ddl.to_string db)
  :: List.map
       (fun t -> (Schema.name (Table.schema t) ^ ".csv", table_to_string t))
       (Database.tables db)

let manifest_of files =
  String.concat ""
    (List.map
       (fun (name, contents) ->
         Printf.sprintf "%s %d %s\n"
           (Digest.to_hex (Digest.string contents))
           (String.length contents) name)
       files)

let save_db_r ~dir db =
  let tmp = dir ^ tmp_suffix and old = dir ^ old_suffix in
  try
    rm_rf tmp;
    Sys.mkdir tmp 0o755;
    let files = dump_files db in
    List.iter
      (fun (name, contents) ->
        (* Each write retries transient injected faults in place. *)
        Chaos.retry (fun () ->
            Chaos.point Chaos.Persist_write;
            write_file_sync (Filename.concat tmp name) contents))
      files;
    write_file_sync (Filename.concat tmp manifest_file) (manifest_of files);
    fsync_dir tmp;
    (* Swap: park the previous dump, commit the new one, then clean up.
       A crash between the renames is recovered by [load_db_r]. *)
    rm_rf old;
    if Sys.file_exists dir then Sys.rename dir old;
    Sys.rename tmp dir;
    fsync_dir (Filename.dirname dir);
    rm_rf old;
    Ok ()
  with
  | Sys_error e -> Error e
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))
  | Chaos.Injected { point; _ } ->
      Error (Printf.sprintf "injected fault at %s" (Chaos.point_name point))

let save_db ~dir db =
  match save_db_r ~dir db with
  | Ok () -> ()
  | Error e -> err "saving %s: %s" dir e

(* Read every file the manifest lists and check its size and MD5,
   returning the verified bytes by name: the loader parses exactly the
   bytes it checked, and checks them all before parsing any. *)
let read_verified ~dir =
  let path = Filename.concat dir manifest_file in
  let parse_line lineno line =
    match String.index_opt line ' ' with
    | None -> err "manifest line %d unparseable" (lineno + 1)
    | Some i -> (
        let digest = String.sub line 0 i in
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        match String.index_opt rest ' ' with
        | None -> err "manifest line %d unparseable" (lineno + 1)
        | Some j ->
            let size = String.sub rest 0 j in
            let name = String.sub rest (j + 1) (String.length rest - j - 1) in
            (match int_of_string_opt size with
            | None -> err "manifest line %d unparseable" (lineno + 1)
            | Some size -> (digest, size, name)))
  in
  let verified = Hashtbl.create 16 in
  let check (digest, size, name) =
    let fpath = Filename.concat dir name in
    if not (Sys.file_exists fpath) then err "missing file %s" name;
    let contents = In_channel.with_open_bin fpath In_channel.input_all in
    if String.length contents <> size then
      err "%s has %d bytes, manifest says %d" name (String.length contents) size;
    if Digest.to_hex (Digest.string contents) <> digest then
      err "checksum mismatch on %s" name;
    Hashtbl.replace verified name contents
  in
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  (* Saves always list at least schema.ddl, so an empty manifest can
     only be a truncated write — reject it instead of "verifying"
     nothing and then trusting whatever files happen to be present. *)
  if lines = [] then err "empty manifest";
  List.iteri (fun i l -> check (parse_line i l)) lines;
  verified

let load_db_r ~dir =
  let recover () =
    (* A crash between [save_db_r]'s two renames leaves the previous
       dump parked at [<dir>.old] and no [dir]; the new dump at
       [<dir>.save-tmp] was never committed, so the parked one is the
       durable state — move it back. *)
    let old = dir ^ old_suffix in
    if (not (Sys.file_exists dir)) && Sys.file_exists old then
      Sys.rename old dir
  in
  let parse_tables verified =
    (* A verified file's bytes are taken (and dropped once parsed); a
       file the manifest does not list is read from disk unverified. *)
    let read name =
      match Hashtbl.find_opt verified name with
      | Some contents ->
          Hashtbl.remove verified name;
          Some contents
      | None ->
          let path = Filename.concat dir name in
          if Sys.file_exists path then
            Some (In_channel.with_open_bin path In_channel.input_all)
          else None
    in
    match read "schema.ddl" with
    | None -> Error (Torn_dump { dir; detail = "no schema.ddl" })
    | Some ddl ->
        let db, indexes = Ddl.parse_deferred ddl in
        List.iter
          (fun t ->
            match read (Schema.name (Table.schema t) ^ ".csv") with
            | Some text -> load_rows t text
            | None -> ())
          (Database.tables db);
        (* Each index is built once over the loaded rows, which is
           cheaper than maintaining it through every insert. *)
        List.iter
          (fun (t, c) -> Table.build_index (Database.table db t) c)
          indexes;
        Database.index_fk_columns db;
        Ok db
  in
  try
    recover ();
    if not (Sys.file_exists dir) then Error (Missing_dump dir)
    else begin
      (* Manifest-less directories (hand-written or pre-manifest dumps)
         load unverified, as before. *)
      let verified =
        if Sys.file_exists (Filename.concat dir manifest_file) then
          match read_verified ~dir with
          | v -> Ok v
          | exception Csv_error e -> Error (Torn_dump { dir; detail = e })
        else Ok (Hashtbl.create 1)
      in
      match verified with
      | Error _ as e -> e
      | Ok verified -> (
          (* Content errors past a verified manifest are a malformed dump
             (bad values written in the first place), not a torn one. *)
          match parse_tables verified with
          | r -> r
          | exception Csv_error e -> Error (Malformed e)
          | exception Ddl.Ddl_error e -> Error (Malformed e))
    end
  with Sys_error e -> Error (Torn_dump { dir; detail = e })

let load_db ~dir =
  match load_db_r ~dir with
  | Ok db -> db
  | Error e -> err "%s" (load_error_to_string e)
