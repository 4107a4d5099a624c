(** Generic Chandy–Lamport engine over unreliable channels.

    Written against closures rather than a network type: the host wires
    {!handle_marker} to marker deliveries, {!tap} to application
    deliveries, and supplies [send] (post a marker into a channel),
    [capture] (read one process's recordable view), codec walks for
    states and payloads, and a [clock] (any monotone counter — the mp
    driver uses channel deliveries), plus [freeze] functions that copy a
    captured value out of the live system's reach. {!Ssmfp_link} is the
    instantiation for the SSMFP synchronizer; the generic engine is also
    testable directly on a raw [Mp.Network].

    Faulty-substrate adaptations: markers carry an {e epoch} (stale or
    duplicate markers are idempotently ignored), each {!tick} of an
    active epoch retransmits markers — targeted at where the epoch is
    stuck (one marker per still-open channel plus one per
    recorded→unrecorded edge, not a full re-flood), recovering marker
    loss and crash evaporation at a cost proportional to the damage —
    and {!initiate} abandons any still-active epoch. FIFO violations by
    the [reorder] knob can still yield inconsistent cuts — measured by
    the cut oracle, not assumed away. *)

type ('p, 'm) t

type stats = {
  epochs_started : int;
  cuts_completed : int;
  abandoned : int;
  markers_resent : int;  (** individual marker re-sends across epochs *)
}

val create :
  ?prof:Obs.Prof.t ->
  send:(from:int -> into:int -> epoch:int -> unit) ->
  capture:(int -> 'p) ->
  freeze_state:('p -> 'p) ->
  freeze_msg:('m -> 'm) ->
  encode_state:(Mc.Codec.t -> 'p -> unit) ->
  encode_msg:(Mc.Codec.t -> 'm -> unit) ->
  clock:(unit -> int) ->
  Topology.Graph.t ->
  ('p, 'm) t
(** The cut stores each captured state and recorded payload as given,
    and its shadow fingerprint hashes [freeze_state] / [freeze_msg] of
    them, taken at the capture instant: a copy that encodes the same
    bytes and that no later step of the live system can reach (the
    identity for immutable values). Both are hashed when the cut
    assembles, so recording costs a freeze rather than an encoding, and
    a captured value mutated in place after capture shows as a mismatch
    between the two fingerprints.

    [?prof] registers the ["snap.epoch"] span, ["snap.cuts"] /
    ["snap.abandoned"] / ["snap.marker_resends"] counters and the
    ["snap.cut_latency"] histogram on track 0; recording never touches
    any PRNG. *)

val initiate : ?initiator:int -> ('p, 'm) t -> unit
(** Start a new epoch: abandon any active one, record the initiator
    (default: rotating over processes) and flood its markers. On a
    1-process graph the cut completes immediately. *)

val handle_marker : ('p, 'm) t -> self:int -> from:int -> epoch:int -> unit
(** A marker for [epoch] was delivered to [self] on channel
    [(from, self)]. May call [send] (the flood from a newly recorded
    process). *)

val tap : ('p, 'm) t -> self:int -> from:int -> 'm -> unit
(** An application payload was delivered on [(from, self)] — recorded
    iff that channel is currently being recorded. Call on {e every}
    delivery, before the application handler. *)

val tick : ('p, 'm) t -> unit
(** Drive retransmission; call periodically (the mp driver ticks every
    few hundred deliveries). No-op when no epoch is active. *)

val active : ('p, 'm) t -> bool
val epoch : ('p, 'm) t -> int

val take_completed : ('p, 'm) t -> ('p, 'm) Cut.t list
(** Completed cuts since the last call, oldest first. *)

val stats : ('p, 'm) t -> stats
