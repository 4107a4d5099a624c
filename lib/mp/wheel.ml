(* Hierarchical timer wheel, indexed by an integer timer id. Six levels
   of 64 slots cover 2^36 ticks of horizon; further-out deadlines alias
   into the top level and are re-bucketed as they surface (the standard
   hashed-wheel trick). Arming is O(1); a tick touches one slot per
   level boundary crossed, so a step with no due timers costs an array
   read — the property that replaces the O(n)-per-step down-counter
   scan.

   Cancellation and re-arming are lazy: [deadline.(id)] holds the one
   authoritative fire time (or -1). Slot entries are just ids; an entry
   whose id's deadline does not match the surfacing tick is stale (the
   timer was cancelled or re-armed) and is dropped, except that an entry
   surfacing *early* (top-level aliasing) is re-inserted for its real
   deadline. Each id therefore fires at most once per arming, in tick
   order, regardless of how many stale entries linger. *)

let bits = 6
let slots = 1 lsl bits (* 64 *)
let levels = 6

type t = {
  wheel : int list array array; (* [level].[slot] -> timer ids *)
  deadline : int array; (* per id: absolute fire tick, -1 = unarmed *)
  mutable now : int;
  mutable armed : int; (* ids with a live deadline *)
  mutable upto : int; (* end of the current advance window *)
  (* The drained slot's entries not yet handed out, [ready.(i)] for
     [i < left], the oldest at [left - 1]. Grown on demand, never
     shrunk, so a tick allocates nothing. *)
  mutable ready : int array;
  mutable left : int;
}

let create ~ids =
  if ids < 0 then invalid_arg "Wheel.create";
  {
    wheel = Array.init levels (fun _ -> Array.make slots []);
    deadline = Array.make (max ids 1) (-1);
    now = 0;
    armed = 0;
    upto = 0;
    ready = Array.make 16 0;
    left = 0;
  }

let now t = t.now
let pending t = t.armed
let armed t id = t.deadline.(id) >= 0
let deadline t id = t.deadline.(id)

(* Bucket an entry by how far out its deadline is *from the current
   tick*: level l spans [64^l, 64^(l+1)) ticks ahead, slot = the
   deadline's l-th 6-bit digit. Deadlines beyond the horizon alias into
   the top level and re-bucket on surfacing. *)
let rec level_of delta l span =
  if l = levels - 1 || delta < span * slots then l
  else level_of delta (l + 1) (span * slots)

let insert t id at =
  let l = level_of (at - t.now) 0 1 in
  let slot = (at lsr (bits * l)) land (slots - 1) in
  t.wheel.(l).(slot) <- id :: t.wheel.(l).(slot)

let arm t id ~at =
  if at <= t.now then invalid_arg "Wheel.arm: deadline not in the future";
  if t.deadline.(id) < 0 then t.armed <- t.armed + 1;
  t.deadline.(id) <- at;
  insert t id at

let cancel t id =
  if t.deadline.(id) >= 0 then begin
    t.deadline.(id) <- -1;
    t.armed <- t.armed - 1
  end

(* Earliest live deadline, scanning the id table: O(ids), used only on
   idle jumps (all channels empty), never on the per-step path. *)
let next t =
  if t.armed = 0 then None
  else begin
    let best = ref max_int in
    Array.iter (fun d -> if d >= 0 && d < !best then best := d) t.deadline;
    if !best = max_int then None else Some !best
  end

(* Move slot [l].[slot] into [ready] in its list order, newest entry
   first (slots are built as LIFO lists), and return its length. *)
let rec fill ready i = function
  | [] -> i
  | id :: older ->
      ready.(i) <- id;
      fill ready (i + 1) older

let take t l slot =
  let entries = t.wheel.(l).(slot) in
  let k = List.length entries in
  if k > Array.length t.ready then t.ready <- Array.make (2 * k) 0;
  t.wheel.(l).(slot) <- [];
  fill t.ready 0 entries

(* One tick: cascade any level whose digit rolled over (re-bucketing its
   live entries, oldest first), then load the level-0 slot into [ready]
   for [next_due] to drain, oldest first (the order wheel.mli states). *)
let tick t =
  t.now <- t.now + 1;
  let l = ref 1 in
  while !l < levels && t.now land ((1 lsl (bits * !l)) - 1) = 0 do
    for i = take t !l ((t.now lsr (bits * !l)) land (slots - 1)) - 1 downto 0 do
      let d = t.deadline.(t.ready.(i)) in
      if d >= t.now then insert t t.ready.(i) d
    done;
    incr l
  done;
  t.left <- take t 0 (t.now land (slots - 1))

let advance t ~upto =
  (* With nothing armed the clock can jump: stale slot entries are
     harmless (their deadlines are behind [now] and drop on surfacing). *)
  if t.armed = 0 then t.now <- max t.now upto;
  t.upto <- upto

let rec next_due t =
  if t.left > 0 then begin
    t.left <- t.left - 1;
    let id = t.ready.(t.left) in
    let d = t.deadline.(id) in
    if d = t.now then begin
      t.deadline.(id) <- -1;
      t.armed <- t.armed - 1;
      id
    end
    else begin
      if d > t.now then insert t id d;
      next_due t
    end
  end
  else if t.now < t.upto then begin
    tick t;
    next_due t
  end
  else -1
