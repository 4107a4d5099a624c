(** Sliding-window retransmission for one directed channel (data-link
    style: sequence numbers, cumulative acks, nak/selective retransmit),
    as a pure state-machine pair — the caller owns the timers (the
    network's wheel) and the actual sending.

    Epochs make the pair self-stabilizing under crash-recovery and
    channel garbage: receivers adopt any foreign epoch (finite stray
    frames perturb them finitely often), senders ignore foreign acks and
    {e resync} — bump the epoch, renumber the unacked window from zero —
    when a valid ack proves the receiver lost its state. Within one
    receiver epoch every accepted payload is delivered exactly once, in
    order; across a receiver reset, payloads acked before the crash are
    not replayed (the synchronizer above is full-state and refreshed, so
    it tolerates this).

    Liveness under partial synchrony ({!Synchrony}): after GST a frame
    or ack in flight is delivered within [delta + C] steps, so with RTO
    ≥ 2(delta + C) every RTO fire makes progress — the window advances
    within O(delta + C) steps per frame, and a burst of [k] sends drains
    in O((k/w)(delta + C)) after GST regardless of pre-GST losses. *)

type 'a frame =
  | Data of { epoch : int; seq : int; body : 'a }
  | Ack of { epoch : int; cum : int; nak : int }
      (** [cum]: everything [<= cum] received; [nak]: first missing seq
          the receiver wants retransmitted, [-1] for none *)

type 'a sender
type 'a receiver

val max_size : int
(** 1024, 128 times the port's default window: each sender and receiver
    preallocates [w] slots. *)

val sender : ?epoch:int -> int -> 'a sender
(** [sender w] — window size [1 <= w <= max_size], else
    [Invalid_argument]. *)

val receiver : ?epoch:int -> int -> 'a receiver

val send : 'a sender -> 'a -> 'a frame list
(** Queue a payload: returns the Data frame to transmit now, or [[]] if
    the window is full (the payload waits in the overflow backlog and is
    assigned a seq when an ack opens the window). *)

val send_latest : 'a sender -> 'a -> 'a frame list
(** [send], but for full-state payloads where newer supersedes older:
    the overflow backlog is replaced by this payload instead of grown,
    bounding the channel's lag at the window plus one pending payload.
    Payloads already sequence-numbered (in flight) are not recalled. *)

val on_ack : 'a sender -> epoch:int -> cum:int -> nak:int -> 'a frame list
(** Process an ack: releases the window through [cum], emits backlog
    frames that now fit, retransmits the naked seq if still unacked.
    Foreign-epoch acks are ignored; a valid ack behind the send base
    triggers resync (fresh epoch, unacked frames renumbered from 0). *)

val on_rto : 'a sender -> 'a frame list
(** Retransmission timeout: resend the base frame (cumulative-ack
    repair), [[]] when nothing is in flight. *)

val on_data :
  'a receiver -> epoch:int -> seq:int -> 'a -> 'a list * 'a frame
(** Process a Data frame: returns the in-order payloads it unlocks
    (possibly several, possibly none) and the ack to send back. *)

val reset_sender : 'a sender -> unit
(** Crash amnesia: drop all window state and move to a fresh epoch. *)

val reset_receiver : 'a receiver -> unit
(** Crash amnesia: fresh epoch (so the next Data frame forces adoption
    rather than resuming stale numbering), empty window. *)

val busy : 'a sender -> bool
(** Frames in flight or backlogged — the RTO timer should be armed. *)

val in_flight : 'a sender -> int
val backlog : 'a sender -> int
val retransmits : 'a sender -> int
(** RTO, nak and resync retransmissions, cumulative. *)

val sender_epoch : 'a sender -> int
val receiver_epoch : 'a receiver -> int
val expected : 'a receiver -> int
