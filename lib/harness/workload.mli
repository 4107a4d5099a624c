(** Workload generators: who sends what to whom.

    A workload is the higher-layer traffic handed to the protocol through
    the [request_p]/[nextMessage_p] interface: a per-processor list of
    [(destination, info)] send requests, submitted in order. The [info]
    strings are intentionally *colliding-prone* ("the same useful
    information", as in Figure 3's two [m'] messages) when
    [distinct_payloads] is false, stressing the flag machinery. *)

type t = (int * Ssmfp.Message.info) list array
(** [t.(p)] is processor [p]'s outbox, head sent first. *)

val total : t -> int
(** Number of messages over all processors. *)

val empty : n:int -> t

val single : n:int -> src:int -> dest:int -> count:int -> t
(** [count] messages from [src] to [dest] (the tracked-message probe of
    experiment E2). *)

val uniform_random :
  ?distinct_payloads:bool ->
  Prng.Splitmix.t ->
  n:int ->
  per_processor:int ->
  t
(** Every processor sends [per_processor] messages to uniformly random
    other processors. *)

val all_to_one : n:int -> dest:int -> per_processor:int -> t
(** Convergecast: everyone (except [dest]) floods one destination — the
    hotspot pattern that maximizes [choice] contention. *)

val one_to_all : n:int -> src:int -> rounds:int -> t
(** Broadcast-by-unicast: [src] sends [rounds] messages to every other
    processor. *)

val permutation : Prng.Splitmix.t -> n:int -> per_processor:int -> t
(** A random perfect matching of sources to destinations (each processor
    both sends to and receives from exactly one peer per round). *)

val neighbors_only : Topology.Graph.t -> per_processor:int -> t
(** Every processor sends to each of its direct neighbors (distance 1
    traffic; the baseline sanity workload). *)

val saturating :
  Prng.Splitmix.t -> graph:Topology.Graph.t -> per_processor:int -> t
(** Heavy uniform cross-traffic over random destinations — the adversarial
    load of the worst-case latency experiments (Prop. 5/6). *)
