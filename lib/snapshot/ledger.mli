(** Per-process event ledgers — the locally-recordable slice of a run's
    history that cut oracles rebuild verdicts from.

    A ledger is immutable and grows by {!observe}; the snapshot glue
    keeps one per process (fed from the synchronizer's event hook, so
    appends happen exactly when the process itself executes the event)
    and captures the current value into each cut. Invalid deliveries are
    recorded as bare pulses: the oracle budget (Prop. 4) only counts
    them per destination. *)

type t = {
  generated : (int * int * int) list;  (** (gid, dest, pulse), newest first *)
  delivered : (int * int) list;  (** valid deliveries: (gid, pulse) *)
  invalid : int list;  (** pulses of invalid deliveries at self *)
  n_generated : int;
  n_delivered : int;
  n_invalid : int;
}

val empty : t

val observe : t -> pulse:int -> Ssmfp.Protocol.event -> t
(** Appends on [Generated] and [Delivered] (valid → [delivered],
    invalid → [invalid]); all other events leave the ledger unchanged. *)

val generated : t -> (int * int * int) list
(** Chronological (oldest first). *)

val delivered : t -> (int * int) list
val invalid : t -> int list

val encode : Mc.Codec.t -> t -> unit
(** Stable encoding (counts then entries) — part of a view's piece
    hash, so a cut's fingerprint pins its ledgers too. *)
