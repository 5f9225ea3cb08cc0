let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let choose n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    (* After step i, [acc] is C(n - k + i, i), which grows with i: once
       past [max_int] it stays there.  C(n - k + i, i) = acc * m / i with
       m = n - k + i, and i / gcd(acc, i) divides m, so dividing first
       keeps every product that fits exact. *)
    for i = 1 to k do
      if !acc < max_int then begin
        let g = gcd !acc i in
        let a = !acc / g and m = (n - k + i) / (i / g) in
        acc := if a > max_int / m then max_int else a * m
      end
    done;
    !acc
  end

let rec subsets xs k =
  if k = 0 then [ [] ]
  else
    match xs with
    | [] -> []
    | x :: rest ->
        let with_x = List.map (fun s -> x :: s) (subsets rest (k - 1)) in
        let without_x = subsets rest k in
        with_x @ without_x

let pairs xs =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go xs
