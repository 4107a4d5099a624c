(** The fault-free destination-based forwarding baseline (paper §3.1,
    citing Merlin–Schweitzer 1978).

    This is the protocol SSMFP's "no significant over-cost" claim is
    measured against. It lives in the message-switched *network-move*
    model of §2.2 — generation, forwarding (an atomic copy-and-erase
    across two processors) and consumption — with:

    - one buffer [b_p(d)] per processor and destination (the
      destination-based buffer graph of Figure 1, acyclic, hence
      deadlock-free);
    - correct, constant routing trees [T_d] (the scheme's standing
      assumption: it tolerates no corruption);
    - per-buffer fair selection among competing feeders (the same
      rotating-queue fairness as SSMFP's [choice_p(d)]), avoiding
      livelocks;
    - a [(source, sequence)] tag on messages, the paper's "identity of the
      source and a two-value flag" device against losses — sequence
      numbers are unbounded here, which is precisely what a
      non-stabilizing protocol may assume.

    Execution is synchronous and receiver-driven: one step (= one round)
    lets every processor consume, then every empty buffer pull from its
    fairly chosen feeder. Ghost ids are reused from {!Ssmfp.Message} so
    the same oracles apply. *)

type message = {
  info : string;
  src : int;
  seq : int;
  ghost : Ssmfp.Message.ghost;
}

type t

type stats = {
  rounds : int;
  moves : int;  (** generation + forwarding + consumption moves *)
  delivered : (int * message) list;  (** (round, message), delivery order *)
}

val create : Topology.Graph.t -> t
(** Pristine network: empty buffers, canonical routing trees. *)

val send : t -> src:int -> dest:int -> string -> unit
(** Enqueue a message in [src]'s outbox. *)

val step : t -> int
(** One synchronous round; returns the number of moves performed. *)

val is_quiescent : t -> bool
(** No buffered message and no pending outbox entry. *)

val run_to_quiescence : t -> [ `Quiescent | `Max_rounds ]
(** Iterate {!step}, at most 1_000_000 rounds. *)

val stats : t -> stats

val buffer : t -> p:int -> d:int -> message option
(** Inspect buffer [b_p(d)] (tests). *)
