(* The model checker's visited set: open-addressing tables specialized
   for codec keys, striped for concurrent use.

   Each stripe is linear probing over two parallel arrays: hashes (0 =
   empty slot, hashes are normalized to be nonzero) and keys. Lookups
   compare the inline hash first — a 63-bit fingerprint — and touch the
   key bytes only on a hash match, so a probe over a displaced cluster
   costs one int comparison per slot. Probes take the candidate key as a
   [Bytes] scratch (the codec's buffer): the key is copied into an
   immutable string only when it is actually inserted.

   A fixed number of stripes, each behind its own mutex: concurrent
   insert-or-member calls contend only when their keys' fingerprints
   land on the same stripe. The stripe index comes from high hash bits
   (bits the within-stripe probe, which uses the low bits, never
   reaches), and the stripe count is a constant — NOT derived from the
   worker count — so the set of keys in each stripe, hence each stripe's
   final capacity, hence the aggregate [stats], is a pure function of
   the key set: byte-identical whatever the worker count or insertion
   order.

   Budget enforcement is exact under concurrency: once a probe finds a
   free slot (under the stripe lock), a global atomic counter is bumped
   *before* the slot is written; the fetch that would create entry
   [budget + 1] raises [Full] with nothing written, so exactly [budget]
   inserts ever succeed. *)

type stats = {
  entries : int;
  capacity : int;
  key_bytes : int;
  table_bytes : int;
  load : float;
}

let norm h = if h = 0 then 1 else h

let rec power_of_two n c = if c >= n then c else power_of_two n (c * 2)

(* Does the stored key equal the first [len] bytes of [buf]? *)
let key_matches key buf len =
  String.length key = len
  &&
  let rec go i =
    i >= len || (String.unsafe_get key i = Bytes.unsafe_get buf i && go (i + 1))
  in
  go 0

module Sharded = struct
  exception Full

  type stripe = {
    mutable hashes : int array;
    mutable keys : string array;
    mutable mask : int; (* capacity - 1; capacity is a power of two *)
    mutable count : int;
    mutable key_bytes : int;
    lock : Mutex.t;
  }

  type t = {
    stripes : stripe array;
    total : int Atomic.t; (* committed entries, for budget checks *)
    resizes : int Atomic.t;
  }

  let nstripes = 64

  (* stripe index = (hash lsr shift) land (nstripes - 1): high bits, as
     stripe tables stay far below 2^39 slots *)
  let shift = 39

  let create ?(capacity = 4096) () =
    let per = power_of_two (max 16 (capacity / nstripes)) 16 in
    {
      stripes =
        Array.init nstripes (fun _ ->
            {
              hashes = Array.make per 0;
              keys = Array.make per "";
              mask = per - 1;
              count = 0;
              key_bytes = 0;
              lock = Mutex.create ();
            });
      total = Atomic.make 0;
      resizes = Atomic.make 0;
    }

  let stripe_of t h = t.stripes.((h lsr shift) land (nstripes - 1))
  let cardinal t = Atomic.get t.total
  let resizes t = Atomic.get t.resizes

  let stats t =
    let entries = ref 0 and capacity = ref 0 and key_bytes = ref 0 in
    Array.iter
      (fun p ->
        entries := !entries + p.count;
        capacity := !capacity + p.mask + 1;
        key_bytes := !key_bytes + p.key_bytes)
      t.stripes;
    {
      entries = !entries;
      capacity = !capacity;
      key_bytes = !key_bytes;
      table_bytes = !capacity * 2 * (Sys.word_size / 8);
      load = float_of_int !entries /. float_of_int !capacity;
    }

  let insert_fresh p h key =
    let rec probe i =
      if p.hashes.(i) = 0 then begin
        p.hashes.(i) <- h;
        p.keys.(i) <- key
      end
      else probe ((i + 1) land p.mask)
    in
    probe (h land p.mask)

  let grow t p =
    let old_hashes = p.hashes and old_keys = p.keys in
    let cap = (p.mask + 1) * 2 in
    p.hashes <- Array.make cap 0;
    p.keys <- Array.make cap "";
    p.mask <- cap - 1;
    Array.iteri
      (fun i h -> if h <> 0 then insert_fresh p h old_keys.(i))
      old_hashes;
    Atomic.incr t.resizes

  (* Commit a new key at slot [i]: claim a budget unit first (raising
     [Full] leaves the stripe untouched), then write. The stripe lock is
     held by the caller. *)
  let commit t p ~budget i h key len =
    let prev = Atomic.fetch_and_add t.total 1 in
    if prev >= budget then begin
      (* undo the claim; the stripe itself was not modified *)
      ignore (Atomic.fetch_and_add t.total (-1));
      Mutex.unlock p.lock;
      raise Full
    end;
    p.hashes.(i) <- h;
    p.keys.(i) <- key;
    p.count <- p.count + 1;
    p.key_bytes <- p.key_bytes + len;
    (* grow at 3/4 load so fingerprint-first probes stay short *)
    if p.count * 4 > (p.mask + 1) * 3 then grow t p

  let mem t ~hash buf ~len =
    let h = norm hash in
    let p = stripe_of t h in
    Mutex.lock p.lock;
    let rec probe i =
      let hi = p.hashes.(i) in
      if hi = 0 then false
      else if hi = h && key_matches p.keys.(i) buf len then true
      else probe ((i + 1) land p.mask)
    in
    let r = probe (h land p.mask) in
    Mutex.unlock p.lock;
    r

  let add_if_absent ?(budget = max_int) t ~hash buf ~len =
    let h = norm hash in
    let p = stripe_of t h in
    Mutex.lock p.lock;
    let rec probe i =
      let hi = p.hashes.(i) in
      if hi = 0 then begin
        commit t p ~budget i h (Bytes.sub_string buf 0 len) len;
        true
      end
      else if hi = h && key_matches p.keys.(i) buf len then false
      else probe ((i + 1) land p.mask)
    in
    let r = probe (h land p.mask) in
    Mutex.unlock p.lock;
    r

  let iter t f =
    Array.iter
      (fun p ->
        Array.iteri (fun i h -> if h <> 0 then f ~hash:h p.keys.(i)) p.hashes)
      t.stripes
end
