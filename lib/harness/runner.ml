type daemon_kind =
  | Synchronous
  | Central_random
  | Distributed_random
  | Round_robin
  | Adversarial_lowest
  | Random_action

let daemon_kind_to_string = function
  | Synchronous -> "synchronous"
  | Central_random -> "central"
  | Distributed_random -> "distributed"
  | Round_robin -> "round-robin"
  | Adversarial_lowest -> "adversarial"
  | Random_action -> "random-action"

let all_daemon_kinds =
  [
    Synchronous;
    Central_random;
    Distributed_random;
    Round_robin;
    Adversarial_lowest;
    Random_action;
  ]

let daemon_kind_of_string s =
  match
    List.find_opt
      (fun k -> daemon_kind_to_string k = String.lowercase_ascii s)
      all_daemon_kinds
  with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown daemon %S (expected %s)" s
           (String.concat ", " (List.map daemon_kind_to_string all_daemon_kinds)))

type engine =
  (Ssmfp.State.t, Ssmfp.Protocol.action, Ssmfp.Protocol.event) Sim.Engine.t

type config = {
  graph : Topology.Graph.t;
  spec : Fault.spec;
  workload : Workload.t;
  daemon : daemon_kind;
  variant : Ssmfp.Protocol.variant;
  run_routing : bool;
  seed : int;
  max_steps : int;
  mode : Sim.Engine.mode;
  prepare : (Ssmfp.State.t array -> unit) option;
  responder : (int -> Ssmfp.Message.info -> (int * Ssmfp.Message.info) list) option;
  inject : (engine -> unit) option;
}

let config ?(spec = Fault.pristine) ?(daemon = Distributed_random)
    ?(variant = Ssmfp.Protocol.faithful) ?(run_routing = true) ?(seed = 1)
    ?(max_steps = 2_000_000) ?(mode = Sim.Engine.Incremental) ?prepare
    ?responder graph workload =
  {
    graph;
    spec;
    workload;
    daemon;
    variant;
    run_routing;
    seed;
    max_steps;
    mode;
    prepare;
    responder;
    inject = None;
  }

type result = {
  outcome : [ `Quiescent | `Max_steps ];
  stats : Sim.Engine.stats;
  oracle : Oracle.t;
  verdict : Oracle.verdict;
  invalid_planted : int;
  submitted : int;
      (* workload messages + responder-generated replies handed to the
         higher layer over the whole run *)
  routing_settled_round : int;
  final_net : Ssmfp.State.t Sim.Engine.net;
  metrics : Obs.Metrics.snapshot;
}

let make_daemon kind rng =
  match kind with
  | Synchronous -> Sim.Daemon.synchronous ()
  | Central_random -> Sim.Daemon.central_random rng
  | Distributed_random -> Sim.Daemon.distributed_random rng
  | Round_robin -> Sim.Daemon.round_robin ()
  | Adversarial_lowest -> Sim.Daemon.adversarial_lowest ()
  | Random_action -> Sim.Daemon.random_action rng

let run ?obs cfg =
  let sink = match obs with Some s -> s | None -> Obs.Sink.create () in
  let metrics = Obs.Sink.metrics sink in
  let journal = Obs.Sink.journal sink in
  (* Deep probes rescan the configuration every step; only pay for them
     when a caller attached a sink and therefore wants the telemetry. *)
  let deep = obs <> None in
  let master = Prng.Splitmix.of_int cfg.seed in
  let fault_rng = Prng.Splitmix.split master in
  let daemon_rng = Prng.Splitmix.split master in
  (* One guard cache per run: the engine evaluates only dirty
     processors, and the cache only their changed destinations. *)
  let protocol =
    Ssmfp.Protocol.Cache.(
      protocol
        (create ~variant:cfg.variant ~run_routing:cfg.run_routing cfg.graph))
  in
  let states =
    Array.init
      (Topology.Graph.n cfg.graph)
      (fun p ->
        Fault.initial_states ~rng:fault_rng cfg.spec cfg.graph
          ~workload:cfg.workload p)
  in
  Option.iter (fun f -> f states) cfg.prepare;
  let engine =
    Sim.Engine.make ~mode:cfg.mode ~graph:cfg.graph ~protocol (fun p ->
        states.(p))
  in
  let invalid_planted =
    Fault.invalid_count (Sim.Engine.net engine).Sim.Engine.states
  in
  let oracle = Oracle.create () in
  let daemon = make_daemon cfg.daemon daemon_rng in
  let routing_settled = ref 0 in
  let on_raise p =
    Oracle.observe_request_raised oracle
      ~round:(Sim.Engine.rounds engine) ~pid:p
  in
  let raise_requests = Ssmfp.Protocol.raise_requests ~on_raise in
  let submitted = ref (Workload.total cfg.workload) in
  let respond pid (m : Ssmfp.Message.t) =
    match cfg.responder with
    | None -> ()
    | Some f ->
        List.iter
          (fun (dest, info) ->
            incr submitted;
            let st = Sim.Engine.state engine pid in
            Sim.Engine.set_state engine pid
              (Ssmfp.State.push_outbox st ~dest info))
          (f pid m.Ssmfp.Message.info)
  in
  let on_events ~step events =
    let round = Sim.Engine.rounds engine in
    List.iter
      (fun (pid, ev) ->
        (match ev with
        | Ssmfp.Protocol.Routing_update _ -> routing_settled := round
        | Ssmfp.Protocol.Delivered m when Ssmfp.Message.is_valid m ->
            respond pid m
        | _ -> ());
        (match journal with
        | Some j -> Obs.Journal.record j ~step ~round ~pid ev
        | None -> ());
        Oracle.observe oracle ~round ~pid ev)
      events
  in
  let probe =
    {
      (* Per-rule move counts come from the engine's stats at the end. *)
      Sim.Engine.on_move = (fun ~pid:_ ~rule:_ -> ());
      on_step =
        (fun ~step:_ ~frontier ~moves ->
          Obs.Metrics.observe metrics "engine.frontier_size"
            (float_of_int frontier);
          Obs.Metrics.observe metrics "engine.moves_per_step"
            (float_of_int moves);
          if deep then
            Obs.Metrics.observe metrics "engine.buffer_occupancy"
              (float_of_int
                 (Ssmfp.Protocol.message_count (Sim.Engine.net engine))));
      on_round =
        (fun ~round:_ ~moves ->
          Obs.Metrics.observe metrics "engine.round_moves" (float_of_int moves));
    }
  in
  let before_step =
    match cfg.inject with
    | None -> raise_requests
    | Some inject ->
        fun t ->
          raise_requests t;
          inject t
  in
  let status =
    Sim.Engine.run ~max_steps:cfg.max_steps ~before_step ~on_events ~probe
      engine daemon
  in
  let outcome =
    match status with
    | `Terminal -> `Quiescent
    | `Max_steps -> `Max_steps
    | `Stopped -> `Max_steps (* no stop condition is installed *)
  in
  let verdict =
    Oracle.check_sp oracle ~expected_valid:!submitted
      ~n:(Topology.Graph.n cfg.graph)
      ~at_quiescence:(outcome = `Quiescent)
  in
  let stats = Sim.Engine.stats engine in
  (* Final aggregates: engine totals as gauges, oracle tallies as
     counters, and the oracle's per-message timing samples as
     histograms, so a snapshot alone tells the run's story. *)
  Obs.Metrics.set_gauge metrics "engine.steps" (float_of_int stats.Sim.Engine.steps);
  Obs.Metrics.set_gauge metrics "engine.rounds" (float_of_int stats.Sim.Engine.rounds);
  Obs.Metrics.set_gauge metrics "engine.moves" (float_of_int stats.Sim.Engine.moves);
  List.iter
    (fun (rule, k) -> Obs.Metrics.incr metrics ~by:k ("moves." ^ rule))
    stats.Sim.Engine.moves_by_rule;
  Obs.Metrics.incr metrics ~by:(Oracle.valid_generated oracle)
    "oracle.valid_generated";
  Obs.Metrics.incr metrics ~by:(Oracle.valid_delivered oracle)
    "oracle.valid_delivered";
  Obs.Metrics.incr metrics ~by:(Oracle.invalid_delivered_total oracle)
    "oracle.invalid_delivered";
  Obs.Metrics.incr metrics ~by:invalid_planted "oracle.invalid_planted";
  Obs.Metrics.incr metrics ~by:!submitted "oracle.submitted";
  List.iter
    (fun l -> Obs.Metrics.observe metrics "oracle.latency_rounds" l)
    (Oracle.latencies oracle);
  List.iter
    (fun d -> Obs.Metrics.observe metrics "oracle.delay_rounds" d)
    (Oracle.delays oracle);
  {
    outcome;
    stats;
    oracle;
    verdict;
    invalid_planted;
    submitted = !submitted;
    routing_settled_round = !routing_settled;
    final_net = Sim.Engine.net engine;
    metrics = Obs.Metrics.snapshot metrics;
  }

let run_baseline graph workload =
  let t = Baseline.Forwarding.create graph in
  Array.iteri
    (fun src msgs ->
      List.iter (fun (dest, info) -> Baseline.Forwarding.send t ~src ~dest info) msgs)
    workload;
  (match Baseline.Forwarding.run_to_quiescence t with
  | `Quiescent -> ()
  | `Max_rounds -> failwith "baseline did not reach quiescence");
  Baseline.Forwarding.stats t
