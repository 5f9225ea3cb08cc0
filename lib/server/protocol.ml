type command =
  | Run of string
  | Personalize of { user : string; sql : string }
  | Profile_save of { user : string; entries : string }
  | Profile_show of string
  | Health
  | Ping
  | Shutdown
  | Quit

type header = {
  deadline_ms : float option;
  max_rows : int option;
  max_expansions : int option;
}

let empty_header = { deadline_ms = None; max_rows = None; max_expansions = None }

let max_line_bytes = 1 lsl 20

(* First whitespace-delimited word, uppercased, plus the trimmed rest. *)
let split_word s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (String.uppercase_ascii s, "")
  | Some i ->
      ( String.uppercase_ascii (String.sub s 0 i),
        String.trim (String.sub s i (String.length s - i)) )

let parse_header_line line =
  let word, rest = split_word line in
  match word with
  | "DEADLINE-MS" -> (
      (* NaN is refused like any other non-number: [Float.min nan cap] is
         nan, so it would escape the server's cap, and a nan deadline
         never trips. *)
      match float_of_string_opt rest with
      | Some v when not (Float.is_nan v) ->
          Some (fun hdr -> { hdr with deadline_ms = Some v })
      | _ -> None)
  | "MAX-ROWS" ->
      Option.map
        (fun v hdr -> { hdr with max_rows = Some v })
        (int_of_string_opt rest)
  | "MAX-EXPANSIONS" ->
      Option.map
        (fun v hdr -> { hdr with max_expansions = Some v })
        (int_of_string_opt rest)
  | _ -> None

let parse_command line =
  let word, rest = split_word line in
  match word with
  | "RUN" ->
      if rest = "" then Error "RUN needs SQL text" else Ok (Run rest)
  | "PERSONALIZE" -> (
      match split_word rest with
      | "", _ -> Error "PERSONALIZE needs a user and SQL text"
      | user, sql when sql <> "" ->
          Ok (Personalize { user = String.lowercase_ascii user; sql })
      | _ -> Error "PERSONALIZE needs SQL text after the user")
  | "PROFILE" -> (
      match split_word rest with
      | "SAVE", rest' -> (
          match split_word rest' with
          | "", _ -> Error "PROFILE SAVE needs a user"
          | user, entries ->
              Ok (Profile_save { user = String.lowercase_ascii user; entries }))
      | "LOAD", user when user <> "" && not (String.contains user ' ') ->
          Ok (Profile_show (String.lowercase_ascii user))
      | _ -> Error "usage: PROFILE SAVE <user> [entries] | PROFILE LOAD <user>")
  | "HEALTH" -> Ok Health
  | "PING" -> Ok Ping
  | "SHUTDOWN" -> Ok Shutdown
  | "QUIT" -> Ok Quit
  | other -> Error (Printf.sprintf "unknown command %s" other)

(* ------------------------------ responses --------------------------- *)

type response =
  | Rows of { notes : string list; cols : string list; rows : string list list }
  | Stats of (string * string) list
  | Message of string
  | Failed of { family : string; code : int; message : string }

let one_line s =
  String.concat "; "
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' s))

(* Responses render into a Buffer first, then go out in one write; the
   serve benchmark's traced replay renders through the same printers, so
   its reply bytes are the server's by construction. *)

let bprint_rows b ~notes (res : Relal.Exec.result) =
  Printf.bprintf b "OK rows=%d\n" (List.length res.Relal.Exec.rows);
  List.iter (fun n -> Printf.bprintf b "NOTE %s\n" (one_line n)) notes;
  Printf.bprintf b "COLS %s\n"
    (String.concat "\t" (Array.to_list res.Relal.Exec.cols));
  List.iter
    (fun row ->
      Buffer.add_string b "ROW ";
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b '\t';
          Relal.Value.add_to_buffer b v)
        row;
      Buffer.add_char b '\n')
    res.Relal.Exec.rows;
  Buffer.add_string b "END\n"

let bprint_stats b stats =
  Buffer.add_string b "OK health\n";
  List.iter (fun (k, v) -> Printf.bprintf b "STAT %s %s\n" k v) stats;
  Buffer.add_string b "END\n"

let bprint_message b msg = Printf.bprintf b "OK %s\nEND\n" (one_line msg)

let bprint_error b err =
  Printf.bprintf b "ERR %s %d %s\n"
    (Perso.Error.family_name err)
    (Perso.Error.exit_code err)
    (one_line (Perso.Error.to_string err))

let via_buffer render oc =
  let b = Buffer.create 256 in
  render b;
  Buffer.output_buffer oc b;
  flush oc

let write_rows oc ~notes res = via_buffer (fun b -> bprint_rows b ~notes res) oc
let write_stats oc stats = via_buffer (fun b -> bprint_stats b stats) oc
let write_message oc msg = via_buffer (fun b -> bprint_message b msg) oc
let write_error oc err = via_buffer (fun b -> bprint_error b err) oc

let drop_prefix line p =
  let n = String.length p in
  if String.length line >= n && String.sub line 0 n = p then
    Some (String.sub line n (String.length line - n))
  else None

let read_response ic =
  match In_channel.input_line ic with
  | None -> Error "connection closed"
  | Some first -> (
      match drop_prefix first "ERR " with
      | Some rest -> (
          match String.split_on_char ' ' rest with
          | family :: code :: msg when int_of_string_opt code <> None ->
              Ok
                (Failed
                   {
                     family;
                     code = int_of_string code;
                     message = String.concat " " msg;
                   })
          | _ -> Error ("malformed ERR line: " ^ first))
      | None -> (
          match drop_prefix first "OK " with
          | None -> Error ("expected OK or ERR, got: " ^ first)
          | Some payload ->
              let notes = ref [] and cols = ref [] and rows = ref [] in
              let stats = ref [] in
              let rec body () =
                match In_channel.input_line ic with
                | None -> Error "connection closed mid-response"
                | Some "END" -> Ok ()
                | Some line ->
                    (match drop_prefix line "NOTE " with
                    | Some n -> notes := n :: !notes
                    | None -> (
                        match drop_prefix line "COLS " with
                        | Some c -> cols := String.split_on_char '\t' c
                        | None -> (
                            match drop_prefix line "ROW " with
                            | Some r ->
                                rows := String.split_on_char '\t' r :: !rows
                            | None -> (
                                match drop_prefix line "STAT " with
                                | Some s -> (
                                    match split_word s with
                                    | k, v ->
                                        stats :=
                                          (String.lowercase_ascii k, v)
                                          :: !stats)
                                | None -> ()))));
                    body ()
              in
              Result.map
                (fun () ->
                  if !stats <> [] then Stats (List.rev !stats)
                  else if !cols <> [] || !rows <> [] then
                    Rows
                      {
                        notes = List.rev !notes;
                        cols = !cols;
                        rows = List.rev !rows;
                      }
                  else Message payload)
                (body ())))
