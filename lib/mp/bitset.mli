(** Rank/select bitset over boolean flags, specialized for the channel
    scheduler: flag [i] is "channel [i] is nonempty", and one uniform
    draw in [\[0, count)] selects a nonempty channel in index order via
    {!select}. Flags are packed 32 to a word, with a count per word and
    per 1,024-flag block: {!set} and {!clear} are O(1), and {!select}
    scans block counts, then word counts, then one word's bytes through
    256-entry tables built once at module initialisation. No operation
    allocates. *)

type t

val create : int -> t
(** [create n] — [n] flags, all clear. *)

val count : t -> int
(** Number of set flags. *)

val mem : t -> int -> bool
(** Is flag [i] set? @raise Invalid_argument unless [0 <= i < n]. *)

val set : t -> int -> unit
(** Set flag [i]; idempotent. @raise Invalid_argument unless
    [0 <= i < n]. *)

val clear : t -> int -> unit
(** Clear flag [i]; idempotent. @raise Invalid_argument unless
    [0 <= i < n]. *)

val select : t -> int -> int
(** [select t k] is the index of the [(k+1)]-th set flag (0-based [k])
    in index order — the channel the scheduler's Fenwick tree picked for
    the same draw, so one PRNG draw bounded by {!count} reproduces the
    historical channel choice exactly.
    @raise Invalid_argument unless [0 <= k < count t]. *)
