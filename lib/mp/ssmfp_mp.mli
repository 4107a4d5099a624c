(** SSMFP carried to the message-passing model (paper §4, future work).

    The paper closes by asking whether the protocol can run in the (more
    realistic) message-passing model, noting that no automatic transformer
    from the state model is known. This module implements the classical
    local-synchronizer construction experimentally:

    - every process keeps its SSMFP + routing state (reused verbatim from
      {!Ssmfp.State}) plus *mirrors* of its neighbors' readable variables
      (buffers and routing entries);
    - execution proceeds in pulses: a process entering pulse [k] publishes
      a snapshot of its readable state to its neighbors, and once it holds
      a pulse-[k] snapshot from every neighbor it evaluates its guards
      against that consistent pulse-[k] view, executes its
      highest-priority enabled action, and enters pulse [k + 1];
    - pulses self-stabilize by maximum adoption (a process receiving a
      snapshot with a larger pulse jumps to it and republishes), the
      standard asynchronous-unison repair, so arbitrary initial pulses,
      mirrors and even garbage snapshots sitting in channels are
      tolerated.

    A barrier is one synchronous-daemon move of the state model, but the
    pulses are not its rounds: a process adopts any larger pulse,
    including a neighbor's ordinary one-pulse lead, and so skips its own
    barrier for the pulses it jumps. Adoption jumps were measured at
    53–72% of all pulse advances (pristine ring:32, adversarial tori),
    and draining an adversarial torus takes 3.8–4.2 times the
    synchronous state model's rounds. Two-state snapshots, which would
    make pulses equal rounds, are the ROADMAP's open item "Pulses are
    rounds".

    Evaluating a barrier allocates O(deg) words: p's core and its
    neighbors' mirrors are written into one guard view per instance, and
    {!Ssmfp.Protocol.first_enabled} stops at the first enabled action.
    An executed action copies the one array it writes, since cores are
    copy-on-write; that is what lets a publish share the arrays in O(1)
    (see {!public}).

    What this does and does not establish: the construction uses unbounded
    pulse counters, so it is *not* a snap-stabilizing message-passing
    protocol (the open problem stands). The experiments measure the
    behaviour the port actually exhibits — with consistent pulse-aligned
    views the R4/R5 erasure race that loses messages under stale views
    cannot fire, and runs from corrupted starts deliver every valid
    message exactly once. *)

type public = {
  pub_routing : Routing.Selfstab.state;
  pub_bufs : Ssmfp.State.slot array;
      (** per destination; neighbors read only [buf_r] and [buf_e] *)
}
(** A process's readable state, published at each pulse. Both arrays are
    the publishing core's own, shared rather than copied: cores are
    copy-on-write ({!Ssmfp.State.with_slot}, {!Routing.Selfstab.apply}
    and the fault injectors build fresh arrays), so a published snapshot
    never changes afterwards. No layer may write into these arrays; the
    test suite pins that every delivered payload and every core keeps its
    contents for the rest of the run. *)

type payload = Snapshot of int * public  (** (pulse, readable state) *)

type t

type channel_stats = {
  delivered : int;
  lost : int;  (** dropped by [loss] *)
  duplicated : int;
  reordered : int;
  dropped_while_down : int;  (** evaporated at a crashed process *)
}

type result = {
  outcome : [ `All_done | `Max_deliveries ];
  channel_deliveries : int;  (** messages the network delivered *)
  max_pulse : int;  (** highest pulse reached *)
  oracle : Harness.Oracle.t;
      (** same observables as the state-model runs; "rounds" are pulses *)
  verdict : Harness.Oracle.verdict;
}

val create :
  ?spec:Harness.Fault.spec ->
  ?channel_garbage:int ->
  ?loss:float ->
  ?duplication:float ->
  ?reorder:float ->
  ?seed:int ->
  ?prof:Obs.Prof.t ->
  ?window:int ->
  ?synchrony:Synchrony.t ->
  Topology.Graph.t ->
  Harness.Workload.t ->
  t
(** [channel_garbage] (default 0) random snapshot messages (random pulses,
    random buffer contents) are planted in random channels; [spec]
    (default pristine) corrupts the process states as in the state-model
    runs; [loss]/[duplication]/[reorder] (default 0.) are the
    {!Network.create} unreliability knobs applied to every sent snapshot.

    Retransmission is a sliding window: each directed channel gets a
    {!Window} sender/receiver pair of size [w] ([?window], default 8);
    snapshots ride sequence-numbered Data frames, receivers return
    cumulative acks with nak-based selective retransmit, and liveness is
    driven by deterministic per-channel RTO timers plus a slow
    per-process refresh timer on the network's wheel. Snapshots are
    full-state, so publishing conflates each channel's overflow backlog
    to the newest payload ({!Window.send_latest}) — bounding channel
    lag at [w + 1] payloads so congested channels carry current state
    rather than an unbounded queue of stale pulses. The {e base}
    retransmission timeout is [2 * (delta + C)] under [?synchrony], else
    [max 64 C], where [C] is the directed-channel count — the scheduler
    delivers one message per step, so an RTO below the in-flight count
    would retransmit into its own queue; each channel doubles its RTO
    on consecutive fires without an intervening ack (capped at
    [1024 * rto]) and resets to the base on any ack. The refresh period
    is [max (8 * rto) (16 * C)], staggered per process across a whole
    period. Channel garbage is planted as Data frames with random
    epochs and sequence numbers, attacking the window state machines
    too. @raise Invalid_argument unless
    [1 <= window <= ]{!Window.max_size}.

    [?synchrony] threads the partial-synchrony config to
    {!Network.create}: before GST all knobs apply; after GST faults stop
    and channel age is bounded by [delta], which with the window layer's
    epoch resync yields eventual barrier completion from any
    configuration.

    Snapshots are idempotent for receivers, so duplication and
    reordering are tolerated by construction; crashes
    ({!crash_process}) lose the synchronizer's volatile state (mirrors,
    timers, window state) while the SSMFP core and pulse counter survive
    on stable storage.

    [?prof] threads through to {!Network.create} (Lamport stamps, hop
    log, latency and queue-depth histograms) and additionally counts
    every refresh republish and window retransmission in
    ["mp.retransmissions"]. Profiling consumes no PRNG draws: the run is
    identical with it on or off. *)

val run : ?max_deliveries:int -> t -> result
(** Deliver channel messages under the fair random scheduler until every
    buffer and outbox is empty (then verify SP), or the budget (default
    2_000_000) runs out. *)

(** {2 Chaos access}

    Hooks for the chaos layer: segmented driving, mid-run core
    corruption, crash injection and the run's observables. *)

val graph : t -> Topology.Graph.t
val oracle : t -> Harness.Oracle.t
val expected_valid : t -> int

val max_pulse : t -> int
(** Highest pulse reached so far (the mp-model round counter). *)

val channel_deliveries : t -> int

val core : t -> int -> Ssmfp.State.t
(** Process [p]'s SSMFP core state (snapshot mirrors excluded). *)

val set_core : t -> int -> Ssmfp.State.t -> unit
(** Overwrite [p]'s core, keeping its pulse and mirrors — the mp-model
    analogue of [Sim.Engine.set_state] for fault injection. *)

val crash_process : t -> int -> down_for:int -> unit
(** Take a process down for [down_for] scheduler steps (see
    {!Network.crash}); on recovery it forgets mirrors and timers. *)

val channel_stats : t -> channel_stats

val pulse_of : t -> int -> int
(** Process [p]'s own pulse counter (as opposed to the global
    {!max_pulse}). *)

val window : t -> int
(** The window size this instance was created with. *)

val window_retransmits : t -> int
(** Total window-layer retransmissions (RTO, nak, resync) across all
    channels. *)

val prof_overwrites : t -> Network.prof_overwrites
(** Profiling-ring overwrite accounting from the underlying network
    (stamp/hop ring evictions, lost latency samples) — all zero without
    [?prof]. *)

(** {2 Snapshot layer access}

    The distributed-snapshot subsystem ([lib/snapshot]) layers a
    Chandy–Lamport marker protocol {e under} this synchronizer: markers
    share the channels with pulse snapshots, and these pass-throughs
    let the engine attach without exposing the network record. *)

type event_hook = pid:int -> pulse:int -> Ssmfp.Protocol.event -> unit

val set_event_hook : t -> event_hook -> unit
(** Install an in-band event observer: called for every protocol event a
    barrier execution emits, right after the omniscient oracle observes
    it, attributed to the acting process and its pulse. The snapshot
    layer's per-process ledgers are fed from here. *)

val on_marker : t -> (self:int -> from:int -> epoch:int -> unit) -> unit
val on_deliver : t -> (self:int -> from:int -> payload -> unit) -> unit

val send_marker :
  t -> Prng.Splitmix.t -> from:int -> into:int -> epoch:int -> unit
(** {!Network.send_marker} on the underlying network: the marker takes
    the same unreliable link as the snapshots, with fault draws from the
    caller's PRNG stream. *)

type marker_stats = { m_sent : int; m_delivered : int; m_dropped : int }

val marker_stats : t -> marker_stats

val hops : t -> Network.hop list
(** The network's causal delivery log (empty without [?prof]). *)

val causal_chain : t -> id:int -> Network.hop list
(** {!Network.causal_chain} on the underlying network. *)

val lamport : t -> int -> int
(** Process [p]'s Lamport clock (0 without [?prof]). *)

val all_drained : t -> bool
(** Every outbox and buffer is empty — the mp-model quiescence test. *)

val drive :
  ?max_deliveries:int ->
  ?stop:(t -> bool) ->
  t ->
  [ `Idle | `Stopped | `Max_deliveries ]
(** Run the scheduler until [stop] holds (checked before each step), the
    channels drain with no timer pending, or the budget runs out —
    the segmented form of {!run} the chaos layer interleaves with
    injections. *)
