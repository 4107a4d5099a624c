(* SplitMix64, after Steele, Lea & Flood (OOPSLA 2014). The state is a
   single 64-bit counter advanced by the golden-gamma constant; outputs are
   a strong mix of the state.

   A stream is a 16-byte buffer: the state at offset 0, the gamma at
   offset 8, read and written with the unboxed int64 accessors. A mutable
   [int64] record field would box a fresh value on every advance; here
   each draw advances, mixes and reduces inside one function (the helpers
   below are inlined), so every intermediate stays in a register and a
   draw returning an [int] or a [bool] allocates nothing. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Gamma values must be odd; this mixer is used when splitting. *)
let mix_gamma z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L) in
  let z = Int64.logor z 1L in
  let n = Int64.(logxor z (shift_right_logical z 1)) in
  (* Ensure enough bit transitions in the gamma. *)
  let popcount = ref 0 in
  for i = 0 to 63 do
    if Int64.(logand (shift_right_logical n i) 1L) = 1L then incr popcount
  done;
  if !popcount < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let make state gamma =
  let t = Bytes.create 16 in
  Bytes.set_int64_le t 0 state;
  Bytes.set_int64_le t 8 gamma;
  t

let create seed = make seed golden_gamma

let of_int seed = create (Int64.of_int seed)

let copy = Bytes.copy

(* Advance the counter by the gamma and return the new state. *)
let[@inline] next_raw t =
  let s = Int64.add (Bytes.get_int64_le t 0) (Bytes.get_int64_le t 8) in
  Bytes.set_int64_le t 0 s;
  s

(* The top 53 bits of an output as a float in [0, 1). *)
let[@inline] unit_float z =
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let next_int64 t = mix64 (next_raw t)

let split t =
  let state' = mix64 (next_raw t) in
  let gamma' = mix_gamma (next_raw t) in
  make state' gamma'

(* Rejection sampling on the top 63 bits to avoid modulo bias: a draw
   whose bound-sized block would run past [Int64.max_int] is redrawn. *)
let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound <= 0";
  let b = Int64.of_int bound in
  let limit = Int64.(sub (sub max_int b) 1L) in
  let v = ref (-1) in
  while !v < 0 do
    let r = Int64.shift_right_logical (mix64 (next_raw t)) 1 in
    let m = Int64.rem r b in
    if Int64.sub r m <= limit then v := Int64.to_int m
  done;
  !v

let int_in t lo hi =
  if hi < lo then invalid_arg "Splitmix.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (mix64 (next_raw t)) 1L = 1L

let float t bound = unit_float (mix64 (next_raw t)) *. bound

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float (mix64 (next_raw t)) < p

let choose t = function
  | [] -> invalid_arg "Splitmix.choose: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let choose_array t a =
  if Array.length a = 0 then invalid_arg "Splitmix.choose_array: empty array";
  a.(int t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t xs =
  let a = Array.of_list xs in
  shuffle_in_place t a;
  Array.to_list a

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Splitmix.sample_without_replacement";
  let a = Array.init n (fun i -> i) in
  (* Partial Fisher–Yates: only the first k slots need to be randomized. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 k)

let subset t ~p xs = List.filter (fun _ -> bernoulli t p) xs

let nonempty_subset t xs =
  if xs = [] then invalid_arg "Splitmix.nonempty_subset: empty list";
  let rec try_once () =
    match subset t ~p:0.5 xs with
    | [] -> try_once ()
    | ys -> ys
  in
  try_once ()
