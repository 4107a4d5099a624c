(** A lock-protected work-stealing deque: the owner pushes and pops at
    the tail (LIFO), thieves batch-steal from the head (the oldest —
    in a search frontier, the largest-subtree — entries). Every
    operation takes the deque's mutex; {!steal} never holds two locks
    at once, so any steal pattern (including mutual theft) is
    deadlock-free. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Append at the owner end. Grows the ring as needed. *)

val pop : 'a t -> 'a option
(** Take the most recently pushed entry, or [None] when empty. *)

val steal : victim:'a t -> into:'a t -> int
(** Move a batch (half the victim's entries, at least 1, at most 64)
    from the victim's head to [into]'s tail; returns the count moved
    ([0] = victim was empty). *)

val size : 'a t -> int
(** Lock-free size hint (atomic read) — for victim selection; may lag
    in-flight operations by a batch. *)
