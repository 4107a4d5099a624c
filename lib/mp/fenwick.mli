(** Fenwick (binary-indexed) tree over boolean flags, specialized for
    the channel scheduler: flag [i] is "channel [i] is nonempty", and
    one uniform draw in [\[0, count)] selects a nonempty channel in
    canonical index order via {!select}. Maintained flag transitions
    are O(log n); select is O(log n); both allocation-free. *)

type t

val create : int -> t
(** [create n] — [n] flags, all clear. *)

val count : t -> int
(** Number of set flags. *)

val mem : t -> int -> bool
(** Is flag [i] set? *)

val set : t -> int -> unit
(** Set flag [i]; idempotent. *)

val clear : t -> int -> unit
(** Clear flag [i]; idempotent. *)

val select : t -> int -> int
(** [select t k] is the index of the [(k+1)]-th set flag (0-based [k]),
    the same walk the pre-ring network used — one PRNG draw bounded by
    {!count} reproduces the historical channel choice exactly. Behaviour
    is unspecified unless [0 <= k < count t]. *)
