(* Order statistics for bench reports. [quartiles] follows Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so the
   spreads printed here match the ones Python computes from the same
   result lines. *)

let sorted xs = Array.of_list (List.sort compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

(* The highest whole percentile (50..99) that leaves at least ten samples
   above it under nearest rank, with its value; [None] below twenty
   samples. *)
let tail xs =
  let n = List.length xs in
  let rec find p =
    if p < 50 then None
    else if n - int_of_float (ceil (float_of_int (p * n) /. 100.)) >= 10 then
      Some (p, Harness.Stats.percentile (float_of_int p) xs)
    else find (p - 1)
  in
  find 99
