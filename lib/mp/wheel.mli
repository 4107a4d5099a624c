(** Hierarchical timer wheel over integer timer ids — the O(expired)
    replacement for the per-step down-counter scan. Six
    levels of 64 slots; arming is O(1), a tick with nothing due costs an
    array read, cancellation and re-arming are lazy (stale slot entries
    drop when they surface). Ticks are abstract: the network advances
    the wheel once per acted scheduler step. *)

type t

val create : ids:int -> t
(** A wheel for timer ids [0 .. ids-1], at tick 0, nothing armed. *)

val now : t -> int
(** Current tick. *)

val arm : t -> int -> at:int -> unit
(** [arm t id ~at] (re-)arms [id] to fire at absolute tick [at]; a
    previous arming of the same id is superseded.
    @raise Invalid_argument unless [at > now t]. *)

val cancel : t -> int -> unit
(** Disarm [id]; idempotent. O(1) — the slot entry is dropped lazily. *)

val armed : t -> int -> bool
val deadline : t -> int -> int
(** [id]'s pending fire tick, [-1] when unarmed. *)

val pending : t -> int
(** Number of armed ids. *)

val next : t -> int option
(** Earliest pending deadline — O(ids), for idle jumps only. *)

val advance : t -> upto:int -> (int -> unit) -> unit
(** [advance t ~upto fire] moves the clock to [upto], calling [fire id]
    for every timer due in [(now, upto]], in deadline order (arming
    order within a tick). Timers armed by [fire] for later ticks within
    the window fire in the same sweep. *)
