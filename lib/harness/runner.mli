(** Experiment orchestration: build a network, corrupt it, drive the
    higher layer, run SSMFP (+ [A]) under a chosen daemon, and collect
    oracle verdicts and measurements.

    The higher layer is simulated in the engine's [before_step] hook: any
    processor whose [request_p] is down and whose outbox is non-empty
    raises the flag (the paper's Input/Output contract — the layer may set
    the flag only when it is false, and the wait is blocking). *)

type daemon_kind =
  | Synchronous
  | Central_random
  | Distributed_random
  | Round_robin
  | Adversarial_lowest
  | Random_action

val daemon_kind_of_string : string -> (daemon_kind, string) Stdlib.result
val daemon_kind_to_string : daemon_kind -> string
val all_daemon_kinds : daemon_kind list

type engine =
  (Ssmfp.State.t, Ssmfp.Protocol.action, Ssmfp.Protocol.event) Sim.Engine.t
(** The concrete engine type the runner drives, exposed so external
    injectors (the chaos layer) can be typed against it. *)

type config = {
  graph : Topology.Graph.t;
  spec : Fault.spec;  (** initial-configuration corruption *)
  workload : Workload.t;
  daemon : daemon_kind;
  variant : Ssmfp.Protocol.variant;  (** ablation switches *)
  run_routing : bool;  (** simulate [A]; switch off to freeze tables *)
  seed : int;  (** master seed: fault injection + daemon randomness *)
  max_steps : int;
  mode : Sim.Engine.mode;
      (** guard-evaluation strategy; {!Sim.Engine.Full_sweep} is the
          reference mode for differential runs (observable results are
          identical either way) *)
  prepare : (Ssmfp.State.t array -> unit) option;
      (** final touch-up of the initial configuration (e.g.
          {!Fault.fill_component}), applied before the engine starts *)
  responder : (int -> Ssmfp.Message.info -> (int * Ssmfp.Message.info) list) option;
      (** higher-layer reactions: when a valid message is delivered at a
          processor, [responder pid info] lists the [(destination, info)]
          messages that processor submits in response (request/response
          traffic). Replies count towards the SP verdict like any other
          workload message. Make it terminating: a responder that always
          replies never drains. *)
  inject : (engine -> unit) option;
      (** mid-run fault injector, called in [before_step] after request
          flags are raised — i.e. before the engine's terminal check, so
          an injection at a quiescent configuration re-enables the
          system. [None] leaves the plain code path untouched (the
          zero-fault chaos runner relies on this for byte-identity). *)
}

val config :
  ?spec:Fault.spec ->
  ?daemon:daemon_kind ->
  ?variant:Ssmfp.Protocol.variant ->
  ?run_routing:bool ->
  ?seed:int ->
  ?max_steps:int ->
  ?mode:Sim.Engine.mode ->
  ?prepare:(Ssmfp.State.t array -> unit) ->
  ?responder:(int -> Ssmfp.Message.info -> (int * Ssmfp.Message.info) list) ->
  Topology.Graph.t ->
  Workload.t ->
  config
(** Defaults: pristine spec, [Distributed_random] daemon, faithful
    variant, routing on, seed 1, 2_000_000 steps, incremental guard
    evaluation, no injector (set [inject] by record update). *)

type result = {
  outcome : [ `Quiescent | `Max_steps ];
  stats : Sim.Engine.stats;
  oracle : Oracle.t;
  verdict : Oracle.verdict;  (** SP check (loss checked iff quiescent) *)
  invalid_planted : int;  (** invalid occurrences in the initial config *)
  submitted : int;
      (** workload messages plus responder replies over the whole run *)
  routing_settled_round : int;
      (** round of the last routing-table write (measured [R_A]; 0 when
          tables start correct or [A] is frozen) *)
  final_net : Ssmfp.State.t Sim.Engine.net;
  metrics : Obs.Metrics.snapshot;
      (** telemetry of the run: [moves.*] counters per rule, [engine.*]
          step/round/frontier series, [oracle.*] tallies and latency /
          delay histograms (see README "Observability") *)
}

val run : ?obs:Obs.Sink.t -> config -> result
(** Execute to quiescence (engine terminal) or [max_steps].

    [obs], when given, receives the full telemetry of the run: every
    protocol event lands in the sink's journal (if it has one) and
    deep per-step probes (buffer-occupancy sampling) are switched on.
    Without it the runner still meters the cheap series and returns the
    snapshot in [metrics]. *)

val run_baseline :
  Topology.Graph.t -> Workload.t -> Baseline.Forwarding.stats
(** Drive the fault-free baseline to quiescence on the same workload (for
    the over-cost comparison, experiment E6). *)
