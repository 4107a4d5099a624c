(** The model checker's visited set.

    A hash set specialized for {!Codec} keys: linear probing over two
    parallel power-of-two arrays holding the (nonzero-normalized) 63-bit
    hash inline next to the key. Lookups compare the inline hash first
    and touch key bytes only on a fingerprint match; insertion from a
    {!Codec.t} scratch buffer copies the key into an immutable string
    only when it is genuinely new. No bucket lists, no per-lookup
    allocation, and {!stats} reports the resident footprint so the
    checker can expose memory alongside throughput. *)

type stats = {
  entries : int;  (** distinct keys stored *)
  capacity : int;  (** slots allocated, summed over stripes *)
  key_bytes : int;  (** total bytes of stored key payloads *)
  table_bytes : int;
      (** bytes of the slot arrays (hash word + key pointer per slot) —
          the table's own footprint, excluding key payloads *)
  load : float;  (** [entries / capacity], kept below 0.75 *)
}

(** The concurrent store {!Par} uses at every worker count: 64
    independent open-addressing tables (stripes), each behind its own
    mutex and each growing by doubling at 3/4 load. A key's stripe comes
    from high fingerprint bits, so concurrent insert-or-member calls
    contend only on fingerprint-colliding stripes. The stripe count is a
    constant — {e independent of the worker count} — and each stripe
    grows as a function of its own entry count alone, so {!Sharded.stats}
    is a pure function of the final key set: byte-identical whatever the
    number of inserting domains or their interleaving. *)
module Sharded : sig
  type t

  exception Full
  (** Raised by an insert that would exceed [?budget], before anything
      is written: exactly [budget] inserts ever succeed, under any
      concurrency. *)

  val create : ?capacity:int -> unit -> t
  (** An empty store. [capacity] (default 4096) is the initial total
      slot count, split evenly over the stripes (rounded up to a power of
      two, minimum 16 slots per stripe). *)

  val cardinal : t -> int
  (** Committed entries (atomic read; exact once writers joined). *)

  val resizes : t -> int
  (** Stripe doublings so far. *)

  val stats : t -> stats
  (** Aggregate over stripes. Deterministic for a given key set. *)

  val mem : t -> hash:int -> Bytes.t -> len:int -> bool
  (** Is the key given by the first [len] bytes of the scratch present?
      [hash] must be the key's {!Codec.hash} (any hash works, 0
      included, as long as equal keys get equal hashes). Never
      allocates. *)

  val add_if_absent : ?budget:int -> t -> hash:int -> Bytes.t -> len:int -> bool
  (** Insert the key if absent; [true] iff it was inserted. Copies the
      scratch bytes into an owned string only on insertion.
      @raise Full if inserting would exceed [budget] (default
      unbounded). *)

  val iter : t -> (hash:int -> string -> unit) -> unit
  (** Every stored (normalized hash, key) pair, stripe by stripe. Call
      only after inserting domains have joined: iteration is unlocked. *)
end
