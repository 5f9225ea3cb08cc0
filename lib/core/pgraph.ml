type t = Profile.adjacency

(* Edges are pushed onto the front of their relation's list, so the
   list ends up in the reverse of the push order.  The order pgraph.mli
   states for [out_edges] is runs of equal degree in entries order, each
   run its selections then its joins, both newest first; so the runs are
   taken last first, and within a run its joins, then its selections,
   each in entries order.  One lookup and one cons per edge, one cons
   per run, no sort. *)
let build p =
  let lists = Hashtbl.create 16 in
  let push ((a, _) as edge) =
    let rel =
      match a with Atom.Sel s -> s.Atom.s_rel | Atom.Join j -> j.Atom.j_from_rel
    in
    match Hashtbl.find lists rel with
    | l -> l := edge :: !l
    | exception Not_found -> Hashtbl.add lists rel (ref [ edge ])
  in
  (* The suffix each run starts, last run first. *)
  let rec runs acc prev = function
    | [] -> acc
    | ((_, d) :: rest) as l ->
        let d = Degree.to_float d in
        runs (if d = prev then acc else l :: acc) d rest
  in
  let rec push_each is_kind stop l =
    match l with
    | ((a, _) as edge) :: rest when l != stop ->
        if is_kind a then push edge;
        push_each is_kind stop rest
    | _ -> ()
  in
  let is_join = function Atom.Join _ -> true | Atom.Sel _ -> false in
  let is_sel a = not (is_join a) in
  ignore
    (List.fold_left
       (fun stop start ->
         push_each is_join stop start;
         push_each is_sel stop start;
         start)
       []
       (runs [] (-1.) (Profile.entries p)));
  let out = Hashtbl.create (Hashtbl.length lists) in
  Hashtbl.iter (fun rel l -> Hashtbl.add out rel !l) lists;
  out

let of_profile p = Profile.adjacency p ~build
let edges_of t rel = Option.value ~default:[] (Hashtbl.find_opt t rel)
let out_edges t rel = edges_of t (String.lowercase_ascii rel)

let sels_of edges =
  List.filter_map (function Atom.Sel s, d -> Some (s, d) | _ -> None) edges

let joins_of edges =
  List.filter_map (function Atom.Join j, d -> Some (j, d) | _ -> None) edges

let out_selections t rel = sels_of (out_edges t rel)
let out_joins t rel = joins_of (out_edges t rel)

let join_degree t j =
  List.find_map
    (fun (j', d) -> if j' = j then Some d else None)
    (out_joins t j.Atom.j_from_rel)

let selection_degree t s =
  List.find_map
    (fun (s', d) ->
      if
        s'.Atom.s_att = s.Atom.s_att
        && s'.Atom.s_op = s.Atom.s_op
        && Relal.Value.equal s'.Atom.s_val s.Atom.s_val
      then Some d
      else None)
    (out_selections t s.Atom.s_rel)

let relations t =
  List.sort String.compare (Hashtbl.fold (fun rel _ acc -> rel :: acc) t [])

let edge_count t = Hashtbl.fold (fun _ edges n -> n + List.length edges) t 0

let pp_dot fmt t =
  Format.fprintf fmt "digraph personalization {@.";
  Format.fprintf fmt "  rankdir=LR;@.";
  let rel_node r = Printf.sprintf "rel_%s" r in
  let seen_rel = Hashtbl.create 16 in
  let emit_rel r =
    if not (Hashtbl.mem seen_rel r) then begin
      Hashtbl.add seen_rel r ();
      Format.fprintf fmt "  %s [shape=box,label=%S];@." (rel_node r)
        (String.uppercase_ascii r)
    end
  in
  let rels = relations t in
  List.iter
    (fun rel ->
      match sels_of (edges_of t rel) with
      | [] -> ()
      | sels ->
          emit_rel rel;
          List.iteri
            (fun i (s, d) ->
              let vnode = Printf.sprintf "val_%s_%d" rel i in
              Format.fprintf fmt "  %s [shape=oval,label=%S];@." vnode
                (Relal.Value.to_string s.Atom.s_val);
              Format.fprintf fmt "  %s -> %s [label=\"%s=%s\"];@." (rel_node rel)
                vnode s.Atom.s_att (Degree.to_string d))
            sels)
    rels;
  List.iter
    (fun rel ->
      match joins_of (edges_of t rel) with
      | [] -> ()
      | joins ->
          emit_rel rel;
          List.iter
            (fun (j, d) ->
              emit_rel j.Atom.j_to_rel;
              Format.fprintf fmt "  %s -> %s [label=\"%s=%s.%s %s\"];@."
                (rel_node rel) (rel_node j.Atom.j_to_rel) j.Atom.j_from_att
                j.Atom.j_to_rel j.Atom.j_to_att (Degree.to_string d))
            joins)
    rels;
  Format.fprintf fmt "}@."
