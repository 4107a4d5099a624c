(** Asynchronous message-passing substrate (paper §4: "it will be
    interesting to carry our protocol in the message passing model").

    Processes communicate over FIFO channels, one per directed edge. A
    scheduler step delivers the head message of one non-empty channel to
    its recipient's handler, which updates the local state and sends
    messages in turn. The random scheduler is fair with probability 1.
    Channels may start with arbitrary garbage in flight — the
    message-passing analogue of an arbitrary initial configuration.

    The substrate can be made unreliable along the axes Delaët et al.
    identify as the hard part of message-passing snap-stabilization
    (arXiv:0802.1123): probabilistic {e loss}, {e duplication} and
    {e reordering} of handler-sent messages, plus {e crash–recovery} of
    whole processes ({!crash}). All unreliability draws come from the
    scheduler's PRNG stream and are guarded by their knob being non-zero,
    so a network created without a knob replays the exact draw sequence
    it had before the knob existed.

    Internals (production-scale runtime): channels are flat {!Ring}
    buffers indexed densely (no hash lookups or key allocation on the
    delivery path), the nonempty-channel draw is a {!Bitset} select
    (one PRNG draw bounded by the nonempty count, the historical
    stream; O(1) flag updates and a select that scans block and word
    counts), and crash expiries plus user timers live on a hierarchical
    {!Wheel} — a step costs one select plus O(expired), never O(n). *)

type ('s, 'm) handler = self:int -> from:int -> 's -> 'm -> 's * (int * 'm) list
(** [handler ~self ~from state msg] consumes one message and returns the
    new local state plus messages to send as [(neighbor, payload)]. *)

type ('s, 'm) t

val create :
  ?loss:float ->
  ?duplication:float ->
  ?reorder:float ->
  ?prof:Obs.Prof.t ->
  ?synchrony:Synchrony.t ->
  ?on_recover:(self:int -> 's -> 's) ->
  init:(int -> 's) ->
  handler:('s, 'm) handler ->
  Topology.Graph.t ->
  ('s, 'm) t
(** [loss] (default 0.) drops each handler-sent message copy with that
    probability (injected messages are never dropped). [duplication]
    (default 0.) enqueues a second copy of a handler-sent message with
    that probability — each copy then takes its own loss draw.
    [reorder] (default 0.) makes an enqueued message overtake at least
    one message already in its channel with that probability (a FIFO
    violation). Retransmission-based protocols get their spontaneous
    actions from the timer wheel ({!set_timer_handler}). [on_recover] is
    applied to a process's state at the moment its {!crash} span expires
    — the hook where a protocol models amnesia or re-initialization.

    [?synchrony] switches the channels to the partial-synchrony model
    (known Δ, unknown GST): before step [gst] the three knobs apply
    unchanged; from [gst] on, fault draws are suppressed (consuming no
    PRNG draws) and a round-robin age probe forces delivery from any
    channel continuously nonempty for more than [delta] steps, so every
    post-GST channel head is delivered within [delta + C] steps
    ({!Synchrony}). Without it, behaviour is byte-identical to the
    fully-asynchronous network.

    [?prof] (track 0 = the scheduler's domain) turns on Lamport-stamped
    causal tracing: every handler/timer send gets a fresh message id
    and the sender's incremented Lamport clock (duplicated copies and
    broadcast fan-out share the id), each delivery advances the
    receiver's clock and appends a {!hop}, and the instruments
    ["mp.send_deliver_ns"] (latency histogram), ["mp.in_flight"] and
    ["mp.channel_depth"] (queue depths sampled every 64th step) and
    ["mp.sends"] fill in. Stamping never touches the scheduler PRNG:
    the run is identical with profiling on or off. *)

val inject : ('s, 'm) t -> from:int -> into:int -> 'm -> unit
(** Plant a message in the channel [from → into] (initial garbage, or a
    kick-off message). @raise Invalid_argument on a non-edge. *)

val send_one : ('s, 'm) t -> from:int -> into:int -> 'm -> unit
(** Enqueue one stamped message on [from → into] outside the unreliable
    link — bootstrap traffic, one message per channel (window frames
    carry per-channel sequence numbers). @raise Invalid_argument on a
    non-edge. *)

val state : ('s, 'm) t -> int -> 's
val set_state : ('s, 'm) t -> int -> 's -> unit

val in_flight : ('s, 'm) t -> int
(** Total messages currently in channels — an O(1) maintained counter. *)

val deliveries : ('s, 'm) t -> int
(** Channel deliveries performed so far. *)

val dropped : ('s, 'm) t -> int
(** Messages lost to [loss] so far. *)

val duplicated : ('s, 'm) t -> int
(** Messages that got a second copy enqueued so far. *)

val reordered : ('s, 'm) t -> int
(** Enqueues that violated FIFO order so far. *)

val dropped_while_down : ('s, 'm) t -> int
(** Messages that arrived at a crashed process and evaporated. *)

(** {2 Timers} — wheel-driven per-process timers for retransmission
    layers. They fire deterministically at their armed deadline, consume
    no scheduler draws, cost O(expired) per step, and survive crashes (a
    timer due while its process is down is re-armed to fire right after
    recovery). When all channels are empty, pending timers drive the
    step: the clock jumps to the next deadline. *)

val set_timer_handler :
  ('s, 'm) t -> keys:int -> (self:int -> key:int -> 's -> 's * (int * 'm) list) -> unit
(** Install the timer-fire handler and allocate the wheel: each process
    owns timer keys [0 .. keys-1]. The handler's sends go through the
    unreliable link like any handler send. Call once, before arming. *)

val arm_timer : ('s, 'm) t -> self:int -> key:int -> after:int -> unit
(** (Re-)arm [self]'s timer [key] to fire [max 1 after] steps from now.
    @raise Invalid_argument without a handler installed or on a bad key. *)

val cancel_timer : ('s, 'm) t -> self:int -> key:int -> unit
val timer_armed : ('s, 'm) t -> self:int -> key:int -> bool

(** {2 Snapshot layer} — Chandy–Lamport markers multiplexed {e under}
    the application protocol. Markers share the per-edge FIFO rings
    with application payloads (their position in the ring is what
    defines the channel-state cut), travel the same unreliable link
    (loss, duplication, reordering, crash evaporation), and are
    dispatched to {!on_marker} instead of the application handler. A
    network with no attached snapshot layer never carries a marker and
    behaves exactly as before. *)

val send_marker :
  ('s, 'm) t -> Prng.Splitmix.t -> from:int -> into:int -> epoch:int -> unit
(** Post a snapshot marker for [epoch] into the channel [from → into]
    through the unreliable link. Loss/duplication/reorder draws come
    from the {e caller's} PRNG stream (the snapshot layer owns one), so
    the scheduler's own draw sequence never depends on snapshot
    activity. @raise Invalid_argument on a non-edge. *)

val on_marker :
  ('s, 'm) t -> (self:int -> from:int -> epoch:int -> unit) -> unit
(** Install the marker handler: called when a marker is delivered to an
    up process (crashed recipients evaporate markers like any other
    traffic). The handler may re-enter {!send_marker}. *)

val on_deliver : ('s, 'm) t -> (self:int -> from:int -> 'm -> unit) -> unit
(** Install the channel-state recording tap: called on every application
    delivery, after the crash check and {e before} the handler runs, so
    the snapshot layer records payloads exactly as they crossed the
    interface. *)

val channel_contents : ('s, 'm) t -> from:int -> into:int -> 'm list
(** Application payloads currently in flight on [from → into], head
    first, markers elided — the omniscient view differential tests
    compare in-band capture against. @raise Invalid_argument on a
    non-edge. *)

val markers_sent : ('s, 'm) t -> int
val markers_delivered : ('s, 'm) t -> int

val markers_dropped : ('s, 'm) t -> int
(** Markers lost to [loss] or evaporated at a crashed process. *)

(** {2 Crash–recovery} *)

val crash : ('s, 'm) t -> int -> down_for:int -> unit
(** [crash t p ~down_for] takes process [p] down for the next [down_for]
    scheduler steps: messages delivered to it evaporate (counted by
    {!dropped_while_down}), its timers do not fire, and messages it sent
    before crashing stay in flight. Crashing an already-down process
    extends its span to at least [down_for]. When the span expires the
    [on_recover] hook (if any) rewrites its state.
    @raise Invalid_argument if [down_for < 1] or [p] is not a process. *)

val is_down : ('s, 'm) t -> int -> bool

(** {2 Causal tracing} — all empty/zero unless [?prof] was enabled. *)

type hop = {
  hop_id : int;  (** message id; one id delivered twice = a duplicate *)
  hop_from : int;
  hop_into : int;
  hop_send_lamport : int;
  hop_recv_lamport : int;  (** [max (receiver + 1) (send + 1)] *)
  hop_latency_ns : int;  (** send→deliver wall-clock *)
}

val lamport : ('s, 'm) t -> int -> int
(** Process [p]'s current Lamport clock. *)

val hops : ('s, 'm) t -> hop list
(** The delivery log, chronological. A bounded ring (16384 hops) —
    long runs keep the most recent window. *)

val causal_chain : ('s, 'm) t -> id:int -> hop list
(** The causal past of message [id]'s (latest) delivery, oldest first:
    each hop delivered into the next hop's sender with a receive
    Lamport ≤ the send Lamport — the tightest chain of deliveries whose
    information could have flowed into each send. Built only from
    deliveries that actually happened, so it works under loss,
    duplication and reordering; [[]] if [id] was never delivered. *)

type prof_overwrites = {
  stamps_evicted : int;
      (** stamps whose ring slot was reused while the message might
          still be in flight (stamp ring capacity 32768) *)
  samples_lost : int;
      (** deliveries that found their stamp slot reused — latency
          samples and hops the histograms are missing *)
  hops_evicted : int;  (** hop records pushed out of the 16384-hop ring *)
}

val prof_overwrites : ('s, 'm) t -> prof_overwrites
(** Ring-overwrite accounting for saturated runs; all zero without
    [?prof]. *)

(** {2 Scheduling} *)

val step : ('s, 'm) t -> Prng.Splitmix.t -> bool
(** Deliver one message from a uniformly random non-empty channel;
    [false] when channels are empty and no wheel timer is pending.
    Down-spans decrement once per returning-true step. Under
    [?synchrony], a post-GST age-probe hit delivers from the over-age
    channel instead (no draws consumed); with wheel timers pending and
    channels empty, the clock jumps to the next deadline and that fire
    is the step. *)

val run :
  ?max_deliveries:int ->
  ?stop:(('s, 'm) t -> bool) ->
  ('s, 'm) t ->
  Prng.Splitmix.t ->
  [ `Idle | `Stopped | `Max_deliveries ]
(** Deliver until channels drain, [stop] holds, or the delivery budget
    (default 5_000_000) is exhausted. *)
