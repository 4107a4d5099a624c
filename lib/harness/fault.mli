(** Initial-configuration (fault) injection.

    Snap-stabilization quantifies over *every* configuration: corrupted
    routing tables, garbage messages occupying buffers, scrambled fairness
    queues, stuck request flags. This module builds such configurations,
    staying inside each variable's type domain (see DESIGN.md): colors in
    [0..Δ], [last] in [N_p ∪ {p}], [via] in [N_p ∪ {p}], [dist] in
    [0..n]. Invalid messages receive [Invalid] ghosts so the oracles can
    count them separately (Proposition 4). *)

type routing_mode =
  | Correct  (** stabilized tables (the "fault-free" start) *)
  | Random  (** uniform garbage within domain *)
  | Worst  (** {!Routing.Selfstab.init_worst}: zero dists, cyclic pointers *)

type spec = {
  routing : routing_mode;
  buffer_fill : float;
      (** probability that each buffer holds an invalid message *)
  scramble_queues : bool;
      (** arbitrary (still domain-valid after normalization) queue order *)
  random_requests : bool;  (** arbitrary initial [request_p] flags *)
  random_rr : bool;  (** arbitrary destination cursors *)
  payload_pool : string list;
      (** useful informations of invalid messages (collisions with valid
          traffic are deliberate) *)
}

val pristine : spec
(** Correct routing, empty buffers, canonical queues — the configuration a
    non-stabilizing protocol assumes. *)

val adversarial : spec
(** Worst routing, all buffers filled, scrambled everything. *)

val random_spec : Prng.Splitmix.t -> spec
(** A random point in the corruption space (for property-based tests). *)

val invalid_message :
  Prng.Splitmix.t ->
  Topology.Graph.t ->
  at:int ->
  delta:int ->
  string list ->
  Ssmfp.Message.t
(** One domain-valid invalid occurrence sitting at processor [at]:
    [last ∈ N_at ∪ {at}], [color ∈ \[0..Δ\]], info drawn from the pool.
    Used for initial buffer fills here and for mid-run buffer bursts by
    the chaos layer. *)

val initial_states :
  ?rng:Prng.Splitmix.t ->
  spec ->
  Topology.Graph.t ->
  workload:Workload.t ->
  int ->
  Ssmfp.State.t
(** [initial_states ?rng spec g ~workload p] builds [p]'s initial state:
    corruption per [spec] (drawing from [rng], required unless the spec is
    deterministic), outbox from [workload]. Call once per processor with
    the same [rng] to build a configuration. *)

val fill_component : Topology.Graph.t -> dest:int -> Ssmfp.State.t array -> int
(** Overwrite *every* buffer of destination [dest]'s component with
    distinct invalid messages (all [2n] of them — the worst case of
    Proposition 4); [last] fields point to a neighbour chosen
    deterministically, colors cycle over [0..Δ]. Returns the number of
    invalid messages planted. *)

val invalid_count : Ssmfp.State.t array -> int
(** Invalid occurrences currently buffered across the configuration. *)
