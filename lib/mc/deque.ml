(* Work-stealing deques.

   A lock-protected double-ended queue for continuous (barrier-free)
   traversals: the owner pushes and pops at the tail (LIFO keeps its
   working set hot), thieves take a batch from the head — the oldest
   entries, which in a search frontier are the ones whose subtrees are
   largest, so one steal buys a thief the most independent work. A plain
   mutex per deque instead of a Chase-Lev array: operations are a few
   words long, the owner amortizes the lock over push/pop pairs, and
   contention only arises when a thief targets this victim — on the
   scale the model checker runs at (µs-long expansions) the lock is
   far below noise, and it keeps resize and batch-steal trivially
   correct. *)

type 'a t = {
  dq_lock : Mutex.t;
  mutable dq_buf : 'a option array; (* circular; head..tail-1 live *)
  mutable dq_head : int; (* steal end (logical index) *)
  mutable dq_tail : int; (* owner end (logical index) *)
  dq_size : int Atomic.t; (* lock-free size hint for victim selection *)
}

let create () =
  {
    dq_lock = Mutex.create ();
    dq_buf = Array.make 64 None;
    dq_head = 0;
    dq_tail = 0;
    dq_size = Atomic.make 0;
  }

let size d = Atomic.get d.dq_size

let grow d =
  let cap = Array.length d.dq_buf in
  let buf' = Array.make (cap * 2) None in
  let n = d.dq_tail - d.dq_head in
  for k = 0 to n - 1 do
    buf'.(k) <- d.dq_buf.((d.dq_head + k) land (cap - 1))
  done;
  d.dq_buf <- buf';
  d.dq_head <- 0;
  d.dq_tail <- n

let push d v =
  Mutex.lock d.dq_lock;
  let cap = Array.length d.dq_buf in
  if d.dq_tail - d.dq_head = cap then grow d;
  d.dq_buf.(d.dq_tail land (Array.length d.dq_buf - 1)) <- Some v;
  d.dq_tail <- d.dq_tail + 1;
  Atomic.incr d.dq_size;
  Mutex.unlock d.dq_lock

let pop d =
  Mutex.lock d.dq_lock;
  let r =
    if d.dq_tail = d.dq_head then None
    else begin
      d.dq_tail <- d.dq_tail - 1;
      let i = d.dq_tail land (Array.length d.dq_buf - 1) in
      let v = d.dq_buf.(i) in
      d.dq_buf.(i) <- None;
      Atomic.decr d.dq_size;
      v
    end
  in
  Mutex.unlock d.dq_lock;
  r

let steal ~victim ~into =
  (* Never hold two deque locks at once: two thieves stealing from each
     other would order the locks oppositely and deadlock. The batch is
     staged through a local buffer between the victim's lock and the
     thief's. *)
  Mutex.lock victim.dq_lock;
  let n = victim.dq_tail - victim.dq_head in
  if n = 0 then begin
    Mutex.unlock victim.dq_lock;
    0
  end
  else begin
    (* take half (at least 1, at most 64): enough that a thief does not
       come straight back, bounded so the victim keeps a working set *)
    let take = min 64 (max 1 (n / 2)) in
    let vcap = Array.length victim.dq_buf in
    let loot =
      Array.init take (fun k ->
          let i = (victim.dq_head + k) land (vcap - 1) in
          let v = victim.dq_buf.(i) in
          victim.dq_buf.(i) <- None;
          v)
    in
    victim.dq_head <- victim.dq_head + take;
    ignore (Atomic.fetch_and_add victim.dq_size (-take));
    Mutex.unlock victim.dq_lock;
    Mutex.lock into.dq_lock;
    Array.iter
      (fun v ->
        if into.dq_tail - into.dq_head = Array.length into.dq_buf then
          grow into;
        into.dq_buf.(into.dq_tail land (Array.length into.dq_buf - 1)) <- v;
        into.dq_tail <- into.dq_tail + 1)
      loot;
    ignore (Atomic.fetch_and_add into.dq_size take);
    Mutex.unlock into.dq_lock;
    take
  end
