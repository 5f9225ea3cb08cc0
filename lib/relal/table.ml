module H = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type bucket = { mutable ids : int array; mutable len : int }
(* A bucket stores row ids (positions in the batch) strictly ascending in
   [ids.(0)] .. [ids.(len - 1)]; [ids] may be longer.  Appends push at
   the end, and every mutation below keeps the order, which is what lets
   [lookup_ids] answer in row order with one blit.  A stored bucket is
   never empty. *)

(* An index maps each key to its bucket in one of two places.  A
   directory holds the int keys [lo .. hi], by value: [dir.(k - lo)] is
   the bucket of [Int k] (and of a float equal to it, see
   {!Value.int_key}), [no_rows] when no row holds it.  [build_index]
   makes one when the column's int keys are [dense]; there is none when
   [hi < lo].  The hash holds every other key: [Null], strings,
   non-integral floats, and ints outside the span (an append never
   widens it).  [dir_keys] counts the directory's non-empty slots. *)
type index = {
  col : int;
  buckets : bucket H.t;
  lo : int;
  hi : int;
  dir : bucket array;
  mutable dir_keys : int;
}

type t = { sch : Schema.t; batch : Batch.t; mutable indexes : index list }

let create sch = { sch; batch = Batch.create (); indexes = [] }
let schema t = t.sch
let batch t = t.batch
let cardinality t = Batch.length t.batch

let check_row t row =
  let cols = Schema.columns t.sch in
  if Array.length row <> Array.length cols then
    invalid_arg
      (Printf.sprintf "Table.insert: arity %d, expected %d in %s"
         (Array.length row) (Array.length cols)
         (Schema.name t.sch));
  Array.iteri
    (fun i v ->
      match Value.ty_of v with
      | None -> ()
      | Some ty ->
          if not (Value.compatible ty cols.(i).Schema.cty) then
            invalid_arg
              (Printf.sprintf "Table.insert: %s.%s expects %s, got %s"
                 (Schema.name t.sch) cols.(i).Schema.cname
                 (Value.ty_name cols.(i).Schema.cty)
                 (Value.ty_name ty)))
    row

(* The first position in [a.(0)] .. [a.(n - 1)], ascending, whose id is
   at least [x] ([n] if none is). *)
let lower_bound a n x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* The miss answer of [prober], and an empty directory slot: shared, so
   never written. *)
let no_rows = { ids = [||]; len = 0 }

let dense ~lo ~hi n =
  let span = hi - lo in
  (* [span < 0] when it overflows. *)
  n > 0 && span >= 0 && span < 4 * n

(* [v]'s directory slot, or -1 when the hash holds it. *)
let slot idx v =
  if idx.hi < idx.lo then -1
  else
    let k = Value.int_key v in
    if k >= idx.lo && k <= idx.hi then k - idx.lo else -1

(* [v]'s bucket, or [no_rows]. *)
let find idx v =
  let s = slot idx v in
  if s >= 0 then idx.dir.(s)
  else match H.find idx.buckets v with b -> b | exception Not_found -> no_rows

(* [v]'s bucket, stored empty first if no row holds [v]. *)
let find_or_add idx v =
  let s = slot idx v in
  if s >= 0 then begin
    let b = idx.dir.(s) in
    if b != no_rows then b
    else begin
      let b = { ids = [||]; len = 0 } in
      idx.dir.(s) <- b;
      idx.dir_keys <- idx.dir_keys + 1;
      b
    end
  end
  else
    match H.find idx.buckets v with
    | b -> b
    | exception Not_found ->
        let b = { ids = [||]; len = 0 } in
        H.add idx.buckets v b;
        b

(* Forget [v], whose bucket has emptied. *)
let drop idx v =
  let s = slot idx v in
  if s >= 0 then begin
    idx.dir.(s) <- no_rows;
    idx.dir_keys <- idx.dir_keys - 1
  end
  else H.remove idx.buckets v

let iter_buckets idx f =
  H.iter (fun _ b -> f b) idx.buckets;
  Array.iter (fun b -> if b != no_rows then f b) idx.dir

let push b rowid =
  if b.len = Array.length b.ids then begin
    let ids = Array.make (max 1 (2 * b.len)) 0 in
    Array.blit b.ids 0 ids 0 b.len;
    b.ids <- ids
  end;
  b.ids.(b.len) <- rowid;
  b.len <- b.len + 1

(* [rowid] must exceed every id already indexed: appends only. *)
let index_add idx rowid v = push (find_or_add idx v) rowid

(* Overwrites move a slot between buckets at an arbitrary id, so these
   two keep the ascending order explicitly. *)
let index_insert idx rowid v =
  let b = find_or_add idx v in
  let p = lower_bound b.ids b.len rowid in
  push b rowid;
  Array.blit b.ids p b.ids (p + 1) (b.len - 1 - p);
  b.ids.(p) <- rowid

let index_remove idx rowid v =
  let b = find idx v in
  let p = lower_bound b.ids b.len rowid in
  if p < b.len && b.ids.(p) = rowid then
    if b.len = 1 then drop idx v
    else begin
      Array.blit b.ids (p + 1) b.ids p (b.len - 1 - p);
      b.len <- b.len - 1
    end

let append t row =
  let rowid = Batch.length t.batch in
  Batch.add t.batch row;
  List.iter (fun idx -> index_add idx rowid row.(idx.col)) t.indexes

let insert t row =
  check_row t row;
  append t row

let insert_values t vs = insert t (Array.of_list vs)

let get t i =
  if i < 0 || i >= Batch.length t.batch then
    invalid_arg "Table.get: row id out of bounds";
  Batch.get t.batch i

let iter t f = Batch.iter f t.batch
let fold t ~init ~f = Batch.fold f init t.batch
let to_list t = Batch.to_list t.batch

let col_index_exn fn t col =
  match Schema.col_index t.sch col with
  | Some ci -> ci
  | None ->
      invalid_arg
        (Printf.sprintf "Table.%s: no column %s in %s" fn col
           (Schema.name t.sch))

let build_index t col =
  let ci = col_index_exn "build_index" t col in
  if not (List.exists (fun idx -> idx.col = ci) t.indexes) then begin
    let n = Batch.length t.batch in
    let rows = Batch.unsafe_rows t.batch in
    (* The span of the int keys, and how many rows hold one. *)
    let lo = ref max_int and hi = ref min_int and ints = ref 0 in
    for i = 0 to n - 1 do
      let k = Value.int_key rows.(i).(ci) in
      if k <> min_int then begin
        incr ints;
        if k < !lo then lo := k;
        if k > !hi then hi := k
      end
    done;
    let dense = dense ~lo:!lo ~hi:!hi !ints in
    let lo, hi = if dense then (!lo, !hi) else (0, -1) in
    let idx =
      {
        col = ci;
        buckets = H.create (max 16 (if dense then n - !ints else n));
        lo;
        hi;
        dir = Array.make (hi - lo + 1) no_rows;
        dir_keys = 0;
      }
    in
    (* Count each key's rows first, so that every bucket is allocated at
       its exact size, then fill the buckets in row order. *)
    for i = 0 to n - 1 do
      let b = find_or_add idx rows.(i).(ci) in
      b.len <- b.len + 1
    done;
    iter_buckets idx (fun b ->
        b.ids <- Array.make b.len 0;
        b.len <- 0);
    for i = 0 to n - 1 do
      let b = find idx rows.(i).(ci) in
      b.ids.(b.len) <- i;
      b.len <- b.len + 1
    done;
    t.indexes <- idx :: t.indexes
  end

let index_on t col =
  match Schema.col_index t.sch col with
  | None -> None
  | Some ci -> List.find_opt (fun idx -> idx.col = ci) t.indexes

let has_index t col = Option.is_some (index_on t col)

let indexed_columns t =
  Schema.columns t.sch |> Array.to_list
  |> List.filteri (fun ci _ -> List.exists (fun idx -> idx.col = ci) t.indexes)
  |> List.map (fun c -> c.Schema.cname)

let lookup_ids t col v =
  let ci = col_index_exn "lookup" t col in
  match List.find_opt (fun idx -> idx.col = ci) t.indexes with
  | Some idx ->
      let b = find idx v in
      Array.sub b.ids 0 b.len
  | None ->
      let rows = Batch.unsafe_rows t.batch in
      let acc = ref [] in
      for i = Batch.length t.batch - 1 downto 0 do
        if Value.equal rows.(i).(ci) v then acc := i :: !acc
      done;
      Array.of_list !acc

let lookup t col v =
  let rows = Batch.unsafe_rows t.batch in
  Array.fold_right (fun i acc -> rows.(i) :: acc) (lookup_ids t col v) []

let prober t col = Option.map find (index_on t col)
let count t col v = Option.map (fun idx -> (find idx v).len) (index_on t col)

let fanout t col =
  Option.map
    (fun idx ->
      float_of_int (cardinality t)
      /. float_of_int (max 1 (H.length idx.buckets + idx.dir_keys)))
    (index_on t col)

(* ---------------------------- keyed replace -------------------------- *)

let overwrite t i row =
  let old = Batch.get t.batch i in
  List.iter
    (fun idx ->
      let a = old.(idx.col) and b = row.(idx.col) in
      if not (Value.equal a b) then begin
        index_remove idx i a;
        index_insert idx i b
      end)
    t.indexes;
  Batch.set t.batch i row

(* Order-preserving compaction: [dead] is strictly ascending.  Only ids at
   or above [dead.(0)] change, and buckets are ascending, so a bucket is
   rewritten only when its last id is at or above that id, and then only
   from its first such id on: dead ids are dropped and survivors shifted
   down by the dead ids below them. *)
let remove_ids t dead =
  let n = Array.length dead in
  if n > 0 then begin
    Batch.remove t.batch dead;
    let first = dead.(0) in
    (* Is [b] empty once rewritten? *)
    let emptied b =
      if b.ids.(b.len - 1) < first then false
      else begin
        let w = ref (lower_bound b.ids b.len first) in
        for r = !w to b.len - 1 do
          let i = b.ids.(r) in
          let k = lower_bound dead n i in
          if k >= n || dead.(k) <> i then begin
            b.ids.(!w) <- i - k;
            incr w
          end
        done;
        b.len <- !w;
        !w = 0
      end
    in
    List.iter
      (fun idx ->
        H.filter_map_inplace
          (fun _ b -> if emptied b then None else Some b)
          idx.buckets;
        Array.iteri
          (fun s b ->
            if b != no_rows && emptied b then begin
              idx.dir.(s) <- no_rows;
              idx.dir_keys <- idx.dir_keys - 1
            end)
          idx.dir)
      t.indexes
  end

let replace ?(hook = ignore) t col key rows =
  let ci = col_index_exn "replace" t col in
  List.iter
    (fun row ->
      check_row t row;
      if not (Value.equal row.(ci) key) then
        invalid_arg
          (Printf.sprintf "Table.replace: row with %s.%s = %s, expected %s"
             (Schema.name t.sch) col
             (Value.to_string row.(ci))
             (Value.to_string key)))
    rows;
  let slots = lookup_ids t col key in
  let n_old = Array.length slots and n0 = cardinality t in
  let undo = ref [] in
  (try
     List.iteri
       (fun j row ->
         hook ();
         if j < n_old then begin
           undo := (slots.(j), Batch.get t.batch slots.(j)) :: !undo;
           overwrite t slots.(j) row
         end
         else append t row)
       rows
   with e ->
     remove_ids t (Array.init (cardinality t - n0) (fun j -> n0 + j));
     List.iter (fun (i, row) -> overwrite t i row) !undo;
     raise e);
  let n_new = List.length rows in
  if n_new < n_old then remove_ids t (Array.sub slots n_new (n_old - n_new))

let clear t =
  Batch.clear t.batch;
  t.indexes <-
    List.map
      (fun idx ->
        { idx with buckets = H.create 16; lo = 0; hi = -1; dir = [||]; dir_keys = 0 })
      t.indexes
