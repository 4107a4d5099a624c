(* Flat ring buffer per directed channel: the zero-allocation replacement
   for the Queue.t-per-channel layout. Storage is allocated lazily on the
   first push (no dummy element, no Obj.magic — the first pushed value
   seeds the backing array, which also keeps float-array representation
   honest) and doubles when full, so the steady-state push/pop hot path
   touches only the three header fields. Capacity is always a power of
   two so position arithmetic is a mask, not a division. *)

type 'a t = {
  mutable buf : 'a array; (* [||] until the first push *)
  mutable head : int; (* index of the front element *)
  mutable len : int;
}

let initial_capacity = 8

let create () = { buf = [||]; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) t.buf.(0) in
  (* Unroll the wrap: [head .. cap) then [0 .. head). *)
  let first = cap - t.head in
  Array.blit t.buf t.head buf 0 first;
  Array.blit t.buf 0 buf first t.head;
  t.buf <- buf;
  t.head <- 0

let push t x =
  let cap = Array.length t.buf in
  if cap = 0 then begin
    t.buf <- Array.make initial_capacity x;
    t.head <- 0;
    t.len <- 1
  end
  else begin
    if t.len = cap then grow t;
    let cap = Array.length t.buf in
    t.buf.((t.head + t.len) land (cap - 1)) <- x;
    t.len <- t.len + 1
  end

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let x = t.buf.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

(* [pop] leaves the element in its slot until a later push overwrites
   it, so a popped item stays reachable. [take] writes [vacant] there
   instead: a delivered item can then die young, where a stale slot in
   a long-lived ring would have the next minor collection promote it. *)
let take t ~vacant =
  if t.len = 0 then invalid_arg "Ring.take: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- vacant;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let peek t =
  if t.len = 0 then invalid_arg "Ring.peek: empty";
  t.buf.(t.head)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.get: out of range";
  t.buf.((t.head + i) land (Array.length t.buf - 1))

(* Insert [x] so it ends up at position [i] (0 = front), shifting
   [i .. len) back by one — the adversarial-reorder primitive. O(len - i)
   array moves, no allocation unless the ring must grow. *)
let insert t i x =
  if i < 0 || i > t.len then invalid_arg "Ring.insert: out of range";
  if i = t.len then push t x
  else begin
    if t.len = Array.length t.buf then grow t;
    let mask = Array.length t.buf - 1 in
    let j = ref t.len in
    while !j > i do
      t.buf.((t.head + !j) land mask) <- t.buf.((t.head + !j - 1) land mask);
      decr j
    done;
    t.buf.((t.head + i) land mask) <- x;
    t.len <- t.len + 1
  end

let clear t =
  t.head <- 0;
  t.len <- 0

let to_list t =
  if t.len = 0 then []
  else begin
    let mask = Array.length t.buf - 1 in
    List.init t.len (fun k -> t.buf.((t.head + k) land mask))
  end

let capacity t = Array.length t.buf
