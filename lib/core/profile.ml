module AMap = Map.Make (struct
  type t = Atom.t

  let compare = Atom.compare
end)

type adjacency = (string, (Atom.t * Degree.t) list) Hashtbl.t

(* One set of entries in two forms: the list in entries order (degree
   descending, then atom) and the atom map.  A value is made with one
   and derives the other on first use; a load makes only the list, an
   edit only the map.  [graph] starts empty and is filled by the first
   {!adjacency} call.  Every slot is filled as [graph] is: threads
   racing on an empty one store equal values.  Every function that
   returns a profile builds its record through [of_sorted] or [of_map],
   never [{ t with ... }], which would share the parent's slots.
   [Atomic], not [Lazy]: systhreads sharing one parsed profile may take
   a slot at once, and [Lazy.force] raises [Lazy.Undefined] then. *)
type t = {
  sorted : (Atom.t * Degree.t) list option Atomic.t;
  map : Degree.t AMap.t option Atomic.t;
  graph : adjacency option Atomic.t;
}

let of_sorted l =
  { sorted = Atomic.make (Some l); map = Atomic.make None; graph = Atomic.make None }

let of_map m =
  { sorted = Atomic.make None; map = Atomic.make (Some m); graph = Atomic.make None }

let empty =
  {
    sorted = Atomic.make (Some []);
    map = Atomic.make (Some AMap.empty);
    graph = Atomic.make None;
  }

let fill slot build =
  match Atomic.get slot with
  | Some v -> v
  | None ->
      let v = build () in
      Atomic.set slot (Some v);
      v

let entry_order (a1, d1) (a2, d2) =
  match Degree.compare_desc d1 d2 with 0 -> Atom.compare a1 a2 | c -> c

(* A value holds at least one form, so neither build recurses twice. *)
let rec entries t =
  fill t.sorted (fun () -> List.sort entry_order (AMap.bindings (map t)))

and map t =
  fill t.map (fun () ->
      List.fold_left (fun m (a, d) -> AMap.add a d m) AMap.empty (entries t))

let adjacency t ~build = fill t.graph (fun () -> build t)

let check_degree atom d =
  if Degree.equal d Degree.zero then
    invalid_arg
      ("Profile: zero-valued preference not storable: " ^ Atom.to_string atom)

let add t atom d =
  check_degree atom d;
  of_map (AMap.add atom d (map t))

(* One pass: rows distinct and each after the one before in entries
   order are the entries as they stand.  Distinctness is checked in a
   table of the atoms seen so far, [2n] buckets by {!Atom.hash}.
   Anything else goes through the map, where a later row replaces an
   earlier one's degree. *)
let of_entries l =
  let buckets = Array.make (max 1 (2 * List.length l)) [] in
  let rec seen a = function
    | [] -> false
    | b :: rest -> Atom.compare a b = 0 || seen a rest
  in
  let fresh a =
    let h = Atom.hash a mod Array.length buckets in
    let bucket = Array.unsafe_get buckets h in
    (not (seen a bucket))
    && (Array.unsafe_set buckets h (a :: bucket);
        true)
  in
  let rec ordered prev = function
    | [] -> true
    | ((a, d) as e) :: rest ->
        check_degree a d;
        entry_order prev e < 0 && fresh a && ordered e rest
  in
  match l with
  | [] -> empty
  | ((a, d) as first) :: rest ->
      check_degree a d;
      if fresh a && ordered first rest then of_sorted l
      else
        of_map
          (List.fold_left
             (fun m (a, d) ->
               check_degree a d;
               AMap.add a d m)
             AMap.empty l)

let of_list l =
  of_map
    (List.fold_left
       (fun acc (a, d) ->
         if AMap.mem a acc then
           invalid_arg ("Profile.of_list: duplicate atom " ^ Atom.to_string a);
         check_degree a d;
         AMap.add a d acc)
       AMap.empty l)

let remove t atom = of_map (AMap.remove atom (map t))
let find t atom = AMap.find_opt atom (map t)

let selections t =
  List.filter_map
    (function Atom.Sel s, d -> Some (s, d) | _ -> None)
    (entries t)

let joins t =
  List.filter_map (function Atom.Join j, d -> Some (j, d) | _ -> None) (entries t)

let equal a b =
  List.equal
    (fun (a1, d1) (a2, d2) -> Atom.compare a1 a2 = 0 && Degree.equal d1 d2)
    (entries a) (entries b)

let size t =
  List.fold_left
    (fun n -> function Atom.Sel _, _ -> n + 1 | Atom.Join _, _ -> n)
    0 (entries t)

let cardinal t = List.length (entries t)
let union a b = of_map (AMap.union (fun _ _ db -> Some db) (map a) (map b))

let validate db t =
  let errs =
    List.filter_map
      (fun (a, _) ->
        match Atom.validate db a with Ok () -> None | Error e -> Some e)
      (entries t)
  in
  if errs = [] then Ok () else Error errs

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
                match Atom.of_string cond with
                | Ok a -> Ok (Some (a, d))
                | Error (Atom.Syntax e) ->
                    Error (Printf.sprintf "bad condition in %S: %s" line e)
                | Error (Atom.Not_atomic e) ->
                    Error (Printf.sprintf "in %S: %s" line e))))
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
    | [] -> Ok (of_entries (List.rev acc))
    | (n, entry) :: rest -> (
        match parse_line entry with
        | Error e -> Error (Printf.sprintf "line %d: %s" n e)
        | Ok None -> go acc rest
        | Ok (Some (a, d)) ->
            if Degree.equal d Degree.zero then
              Error (Printf.sprintf "line %d: zero-valued preference" n)
            else go ((a, d) :: acc) rest)
  in
  go [] entries

let load path =
  Relal.Chaos.point Relal.Chaos.Profile_load;
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> of_string contents

let save path t = Out_channel.with_open_text path (fun oc -> output_string oc (to_string t))

let pp fmt t = Format.pp_print_string fmt (to_string t)
