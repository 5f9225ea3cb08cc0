(* Growable array of rows — the executor's and table's shared storage.
   The row count is a cached field, never recomputed by traversal. *)

type t = { mutable data : Value.t array array; mutable len : int }

let create ?(cap = 0) () =
  { data = (if cap <= 0 then [||] else Array.make cap [||]); len = 0 }

let length b = b.len

let add b row =
  let cap = Array.length b.data in
  if b.len = cap then begin
    let ncap = if cap = 0 then 64 else 2 * cap in
    let nd = Array.make ncap row in
    Array.blit b.data 0 nd 0 b.len;
    b.data <- nd
  end;
  b.data.(b.len) <- row;
  b.len <- b.len + 1

let get b i =
  if i < 0 || i >= b.len then invalid_arg "Batch.get: row id out of bounds";
  b.data.(i)

let set b i row =
  if i < 0 || i >= b.len then invalid_arg "Batch.set: row id out of bounds";
  b.data.(i) <- row

(* Slide each run of survivors left over the removed ids, then clear the
   vacated tail so it pins no rows. *)
let remove b ids =
  let n = Array.length ids in
  let next j = if j + 1 < n then ids.(j + 1) else b.len in
  Array.iteri
    (fun j i ->
      if i < 0 || next j <= i then
        invalid_arg "Batch.remove: ids not ascending or out of bounds")
    ids;
  if n > 0 then begin
    let w = ref ids.(0) in
    for j = 0 to n - 1 do
      let lo = ids.(j) + 1 in
      Array.blit b.data lo b.data !w (next j - lo);
      w := !w + (next j - lo)
    done;
    Array.fill b.data !w (b.len - !w) [||];
    b.len <- !w
  end

let unsafe_rows b = b.data

let of_list l =
  let rows = Array.of_list l in
  { data = rows; len = Array.length rows }

let to_list b =
  let acc = ref [] in
  for i = b.len - 1 downto 0 do
    acc := b.data.(i) :: !acc
  done;
  !acc

let iter f b =
  for i = 0 to b.len - 1 do
    f b.data.(i)
  done

let fold f init b =
  let acc = ref init in
  iter (fun r -> acc := f !acc r) b;
  !acc

let clear b =
  b.data <- [||];
  b.len <- 0
