(** Local state of a processor running SSMFP composed with the routing
    protocol [A].

    Per destination [d], a processor owns the two buffers of the paper's
    buffer graph (Figure 2): [buf_r] (reception) and [buf_e] (emission),
    plus the fairness queue backing [choice_p(d)]. The routing table is
    [A]'s state. [request]/[outbox] are the Input/Output interface to the
    higher layer; [rr] is the destination-rotation cursor that orders the
    actions offered to the daemon (the bookkeeping realizing the paper's
    "all destination algorithms run simultaneously" composition — see
    DESIGN.md).

    All of it, except [outbox] (owned by the higher layer), is protocol
    state and therefore arbitrarily corruptible in an initial
    configuration.

    Values are copy-on-write: {!with_slot} and every protocol action
    build fresh arrays, and nothing writes into [routing] or [slots] in
    place, so the message-passing port shares them with its published
    snapshots. *)

type slot = {
  buf_r : Message.t option;  (** [bufR_p(d)], the reception buffer *)
  buf_e : Message.t option;  (** [bufE_p(d)], the emission buffer *)
  queue : int list;
      (** fairness queue over [N_p ∪ {p}]; arbitrary content tolerated,
          normalized on use by {!Choice.normalize} *)
}

type t = {
  routing : Routing.Selfstab.state;
  slots : slot array;  (** indexed by destination, length [n] *)
  rr : int;  (** destination rotation cursor *)
  request : bool;  (** the shared variable [request_p] *)
  outbox : (int * Message.info) list;
      (** higher-layer send queue: [(destination, info)], head first *)
}

val empty_slot : Topology.Graph.t -> p:int -> slot
(** Empty buffers, queue = [p :: N_p]. *)

val clean : Topology.Graph.t -> ?correct_routing:bool -> int -> t
(** [clean g p] is the pristine state: empty buffers, canonical queues, no
    request, empty outbox, and routing tables stabilized when
    [correct_routing] (default [true]) or all-zero otherwise. *)

val slot : t -> int -> slot
val with_slot : t -> int -> slot -> t
(** Functional slot update (fresh array). *)

val with_routing : t -> Routing.Selfstab.state -> t
val with_rr : t -> int -> t

val next_message : t -> Message.info option
(** [nextMessage_p]: info of the head of [outbox]. *)

val pop_outbox : t -> t
(** Drop the head of [outbox] (after R1 generated it). *)

val push_outbox : t -> dest:int -> Message.info -> t
(** Append a send request (higher layer). *)

val wants_request : t -> bool
(** The higher layer's rule for raising [request_p]: the outbox holds a
    message and [request_p] is down. R1 lowers it again when it
    generates the head message. *)

val has_occupied : t -> bool
(** [occupied_buffers t <> []] without building the list — the hot
    drain check at large [n]. *)

val occupied_buffers : t -> (int * [ `R | `E ] * Message.t) list
(** All messages present at this processor as [(destination, buffer,
    message)] — the paper's "m is existing on p". *)

val pp : Format.formatter -> t -> unit
(** Compact rendering of the non-empty parts of the state. *)
