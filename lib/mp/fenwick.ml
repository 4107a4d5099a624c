(* Fenwick tree over per-channel nonempty flags — the scheduler's uniform
   draw among nonempty channels in canonical order, factored out of
   Network so the select/flag-transition logic is unit-testable on its
   own. The select loop is kept byte-for-byte equivalent to the one the
   network has used since the Hashtbl-of-queues era: the (k+1)-th set
   flag by descending powers of two, so the same PRNG draw picks the
   same channel before and after the ring-buffer refactor. *)

type t = {
  n : int;
  flags : bool array;
  fen : int array; (* 1-based partial sums over the flags *)
  mutable count : int;
}

let create n =
  if n < 0 then invalid_arg "Fenwick.create";
  { n; flags = Array.make n false; fen = Array.make (n + 1) 0; count = 0 }

let count t = t.count
let mem t i = t.flags.(i)

let add t i delta =
  let i = ref (i + 1) in
  while !i <= t.n do
    t.fen.(!i) <- t.fen.(!i) + delta;
    i := !i + (!i land - !i)
  done

let set t i =
  if not t.flags.(i) then begin
    t.flags.(i) <- true;
    t.count <- t.count + 1;
    add t i 1
  end

let clear t i =
  if t.flags.(i) then begin
    t.flags.(i) <- false;
    t.count <- t.count - 1;
    add t i (-1)
  end

(* Index of the (k+1)-th set flag, 0-based: classic Fenwick select by
   descending powers of two. Caller guarantees [0 <= k < count]. *)
let select t k =
  let pw = ref 1 in
  while !pw * 2 <= t.n do
    pw := !pw * 2
  done;
  let pos = ref 0 and rem = ref k in
  while !pw > 0 do
    let np = !pos + !pw in
    if np <= t.n && t.fen.(np) <= !rem then begin
      pos := np;
      rem := !rem - t.fen.(np)
    end;
    pw := !pw lsr 1
  done;
  !pos
