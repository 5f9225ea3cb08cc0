module AMap = Map.Make (struct
  type t = Atom.t

  let compare = Atom.compare
end)

type adjacency = (string, (Atom.t * Degree.t) list) Hashtbl.t

(* [graph] starts empty in every value and is filled by the first
   {!adjacency} call (threads racing on it store equal graphs).  Every
   function that returns a profile builds its record through [make],
   never [{ t with map }], which would share the parent's [Atomic.t].
   [Atomic], not [Lazy]: systhreads sharing one parsed profile may take
   its graph at once, and [Lazy.force] raises [Lazy.Undefined] then. *)
type t = { map : Degree.t AMap.t; graph : adjacency option Atomic.t }

let make map = { map; graph = Atomic.make None }
let empty = make AMap.empty

let adjacency t ~build =
  match Atomic.get t.graph with
  | Some g -> g
  | None ->
      let g = build t in
      Atomic.set t.graph (Some g);
      g

let check_degree atom d =
  if Degree.equal d Degree.zero then
    invalid_arg
      ("Profile: zero-valued preference not storable: " ^ Atom.to_string atom)

let add t atom d =
  check_degree atom d;
  make (AMap.add atom d t.map)

let of_list l =
  make
    (List.fold_left
       (fun acc (a, d) ->
         if AMap.mem a acc then
           invalid_arg ("Profile.of_list: duplicate atom " ^ Atom.to_string a);
         check_degree a d;
         AMap.add a d acc)
       AMap.empty l)

let remove t atom = make (AMap.remove atom t.map)
let find t atom = AMap.find_opt atom t.map

let entries t =
  AMap.bindings t.map
  |> List.sort (fun (a1, d1) (a2, d2) ->
         match Degree.compare_desc d1 d2 with
         | 0 -> Atom.compare a1 a2
         | c -> c)

let selections t =
  List.filter_map
    (function Atom.Sel s, d -> Some (s, d) | _ -> None)
    (entries t)

let joins t =
  List.filter_map (function Atom.Join j, d -> Some (j, d) | _ -> None) (entries t)

let equal a b = AMap.equal Degree.equal a.map b.map
let size t = List.length (selections t)
let cardinal t = AMap.cardinal t.map
let union a b = make (AMap.union (fun _ _ db -> Some db) a.map b.map)

let validate db t =
  let errs =
    AMap.fold
      (fun a _ acc ->
        match Atom.validate db a with Ok () -> acc | Error e -> e :: acc)
      t.map []
  in
  if errs = [] then Ok () else Error (List.rev errs)

let entry_to_string (a, d) =
  Printf.sprintf "[ %s, %s ]" (Atom.to_string a) (Degree.to_string d)

let to_string t = String.concat "\n" (List.map entry_to_string (entries t)) ^ "\n"

let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else if String.length line < 2 || line.[0] <> '[' || line.[String.length line - 1] <> ']'
  then Error (Printf.sprintf "expected [ condition, degree ]: %S" line)
  else begin
    let body = String.sub line 1 (String.length line - 2) in
    (* Split at the last comma: the condition may itself contain commas
       only inside string literals, but splitting at the last comma is
       robust because the degree is a bare number. *)
    match String.rindex_opt body ',' with
    | None -> Error (Printf.sprintf "missing degree: %S" line)
    | Some i -> (
        let cond = String.trim (String.sub body 0 i) in
        let deg = String.trim (String.sub body (i + 1) (String.length body - i - 1)) in
        match float_of_string_opt deg with
        | None -> Error (Printf.sprintf "bad degree %S in %S" deg line)
        | Some f -> (
            match Degree.of_float_opt f with
            | None -> Error (Printf.sprintf "degree %g out of [0,1] in %S" f line)
            | Some d -> (
                match Relal.Sql_parser.parse_pred cond with
                | exception Relal.Sql_parser.Parse_error e ->
                    Error (Printf.sprintf "bad condition in %S: %s" line e)
                | exception Relal.Sql_lexer.Lex_error (e, _) ->
                    Error (Printf.sprintf "bad condition in %S: %s" line e)
                | p -> (
                    match Atom.of_pred p with
                    | Ok a -> Ok (Some (a, d))
                    | Error e -> Error (Printf.sprintf "in %S: %s" line e)))))
  end

(* An entry ends at the first ']' outside a quoted literal (an escaped
   quote '' leaves a literal and re-enters it, so needs no case of its
   own).  Text after the last such ']' is one more entry; it is closed
   with " ]" like the others unless it ends in a ']' a literal left open
   holds, so cutting an entry again returns it unchanged. *)
let entry_lines line =
  let rec go start i quoted acc =
    let chunk () = String.trim (String.sub line start (i - start)) in
    if i = String.length line then
      let c = chunk () in
      List.rev
        (if c = "" then acc
         else if String.ends_with ~suffix:"]" c then c :: acc
         else (c ^ " ]") :: acc)
    else if line.[i] = '\'' then go start (i + 1) (not quoted) acc
    else if line.[i] = ']' && not quoted then
      let c = chunk () in
      go (i + 1) (i + 1) false (if c = "" then acc else (c ^ " ]") :: acc)
    else go start (i + 1) quoted acc
  in
  go 0 0 false []

let of_string s =
  let entries =
    String.split_on_char '\n' s
    |> List.mapi (fun i line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then []
           else List.map (fun e -> (i + 1, e)) (entry_lines line))
    |> List.concat
  in
  let rec go acc = function
    | [] -> Ok (make acc)
    | (n, entry) :: rest -> (
        match parse_line entry with
        | Error e -> Error (Printf.sprintf "line %d: %s" n e)
        | Ok None -> go acc rest
        | Ok (Some (a, d)) ->
            if Degree.equal d Degree.zero then
              Error (Printf.sprintf "line %d: zero-valued preference" n)
            else go (AMap.add a d acc) rest)
  in
  go AMap.empty entries

let load path =
  Relal.Chaos.point Relal.Chaos.Profile_load;
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> of_string contents

let save path t = Out_channel.with_open_text path (fun oc -> output_string oc (to_string t))

let pp fmt t = Format.pp_print_string fmt (to_string t)
