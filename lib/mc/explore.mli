(** Bounded model checking of SSMFP (experiment E7).

    The paper's contribution is a proof; the strongest mechanical evidence
    a reproduction can add is exhaustive verification on small instances.
    This module enumerates *every* initial configuration of a small
    network's destination component (all buffer contents over a small
    message alphabet, all fairness-queue orders, all request flags) and
    explores the *full* nondeterministic transition system under the
    central daemon — every enabled (processor, action) choice branches,
    and the higher layer raising [request_p] is itself a nondeterministic
    transition — checking:

    - {b safety} (Lemma 5 / SP): the single valid workload message is
      never delivered twice, on any reachable configuration along any
      schedule;
    - {b no deadlock}: every reachable configuration still holding traffic
      has at least one enabled action;
    - {b liveness} (Lemmas 1–3): under the weakly fair round-robin daemon,
      every initial configuration leads to quiescence with the valid
      message generated and delivered exactly once, within a step bound.

    Configurations are explored with routing tables correct and frozen —
    the Proposition 1 setting; corrupted-routing behaviour is covered by
    the randomized property tests, which drive the full protocol. Ghost
    identities are canonicalized away in the visited-set key (only the
    visible triple, validity, and the delivery counter matter), and the
    destination-rotation cursor [rr] is omitted from the key: the checker
    branches over every enabled action, so offer order is irrelevant. *)

type scenario = {
  graph : Topology.Graph.t;
  dest : int;  (** the destination component checked *)
  src : int;  (** processor with one workload message ["v"] for [dest] *)
  payload_pool : string list;
      (** infos of enumerated invalid messages; include ["v"] to exercise
          collisions with the valid message *)
}

val two_chain : scenario
(** The 2-processor network (0–1), dest 1, src 0, pool [["v"; "x"]]. *)

val three_chain : scenario
(** The 3-processor path (0–1–2), dest 2, src 0, pool [["v"]]. *)

val enumerate_initials : scenario -> Ssmfp.State.t array list
(** Every initial configuration of the scenario's destination component:
    all (empty or invalid-message) contents of the [2n] buffers over
    [pool × last × color], both queue orders, both request flags. Other
    destinations start empty (they stay empty: the workload only feeds
    [dest]). *)

val sample_initials :
  Prng.Splitmix.t -> count:int -> scenario -> Ssmfp.State.t array list
(** Uniform sample of the same space (for scenarios too big to
    enumerate). *)

val sample_initials_corrupted :
  Prng.Splitmix.t -> count:int -> scenario -> Ssmfp.State.t array list
(** Like {!sample_initials} but with uniformly random (within-domain)
    routing tables as well — for checks that run the routing protocol [A]
    inside the search. *)

type safety_report = {
  initial_count : int;
  explored : int;  (** distinct canonical configurations visited *)
  transitions : int;
  duplicate_delivery : bool;  (** true = violation found *)
  lost_valid : string option;
      (** a configuration where the generated valid message vanished
          undelivered, if one is reachable (this is how the checker caught
          the [q = p] reading of rule R5 — see DESIGN.md §5) *)
  deadlock : string option;  (** a rendering of a stuck configuration *)
  visited : Store.stats;
      (** resident footprint of the visited set (key bytes, slot-array
          bytes, load factor) at the end of the search *)
}

val model :
  ?variant:Ssmfp.Protocol.variant ->
  ?run_routing:bool ->
  ?por:bool ->
  Topology.Graph.t ->
  (Ssmfp.State.t, Ssmfp.Protocol.action, Ssmfp.Protocol.event, int) Par.model
(** SSMFP as a {!Par.model}: the monitor is the valid-delivery count
    clamped at 2, keyed by {!Codec.encode}; external transitions raise
    request flags; [por] (default false) installs the ample-set hook; a
    second delivery is pruned, a lost valid message is the witness, and a
    terminal configuration holding traffic is a deadlock. {!check_safety}
    runs it; tests swap its [encode] to search under other keys. *)

val check_safety :
  ?variant:Ssmfp.Protocol.variant ->
  ?simultaneity:bool ->
  ?run_routing:bool ->
  ?max_configs:int ->
  ?workers:int ->
  ?por:bool ->
  ?prof:Obs.Prof.t ->
  scenario ->
  Ssmfp.State.t array list ->
  safety_report
(** Exhaustive search over the union of reachable spaces ({!model} run
    through {!Par.check_safety}; bound: [max_configs], default
    2_000_000 — a key that would exceed it raises [Failure] before being
    inserted, so the bound is exact). [variant] lets the checker
    explore ablated protocols — notably [literal_r5], whose reachable
    valid-message loss this checker discovered. [simultaneity] (default
    false) additionally branches over every composite step of the
    distributed daemon — all non-empty selections of at most one enabled
    action per processor executing against the same pre-step
    configuration — which is where simultaneous-erasure races would
    surface; it multiplies the branching factor, so keep the scenario
    small. [run_routing] (default false) includes the routing protocol
    [A]'s repair actions in the searched transition system — use with
    {!sample_initials_corrupted} to check SP while tables are being
    repaired; the routing entries then join the canonical key.

    [workers] (default 1; [0] = autodetect) is the number of
    work-stealing worker loops; [por] (default false) enables the
    ample-set partial-order reduction (changes the explored counts, not
    the verdicts); [prof] attributes wall-clock to roots/run/steal/reduce
    spans per domain. Every report field is independent of [workers]
    and [prof] — see {!Par.check_safety} for the determinism and
    instrumentation rules. *)

type liveness_report = {
  checked : int;
  max_steps_seen : int;  (** worst schedule length to quiescence *)
  failures : string list;  (** one line per failing initial configuration *)
}

val check_liveness : scenario -> Ssmfp.State.t array list -> liveness_report
(** Run each initial configuration to quiescence under the round-robin
    daemon (bound 20_000 steps each) and verify exactly-once delivery. *)
