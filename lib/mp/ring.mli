(** Flat FIFO ring buffer — the per-channel message queue of the mp
    runtime. Backing storage is allocated lazily on the first {!push}
    and doubled on demand; once warm, push/pop allocate nothing, which
    is what the b4 minor-words-per-step gate measures. Not thread-safe;
    one ring belongs to one scheduler. *)

type 'a t

val create : unit -> 'a t
(** An empty ring with no backing storage yet. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the back. Amortized O(1), allocation-free unless the ring
    grows. *)

val pop : 'a t -> 'a
(** Remove and return the front element.
    @raise Invalid_argument when empty. *)

val take : 'a t -> vacant:'a -> 'a
(** [take t ~vacant] is {!pop}, and also overwrites the freed slot with
    [vacant] so the ring no longer references the element. [pop] leaves
    it there until a later push lands on the slot.
    @raise Invalid_argument when empty. *)

val peek : 'a t -> 'a
(** The front element without removing it.
    @raise Invalid_argument when empty. *)

val get : 'a t -> int -> 'a
(** [get t i] is the element at position [i] (0 = front).
    @raise Invalid_argument out of range. *)

val insert : 'a t -> int -> 'a -> unit
(** [insert t i x] places [x] at position [i] (0 = front), shifting the
    tail back — the adversarial-reorder primitive: the new element
    overtakes everything at positions [i .. length). [insert t (length
    t) x] is [push]. @raise Invalid_argument out of range. *)

val clear : 'a t -> unit
(** Empty the ring, keeping its storage. *)

val to_list : 'a t -> 'a list
(** Front first. *)

val capacity : 'a t -> int
(** Current backing-array size (0 before the first push) — exposed for
    the growth tests. *)
