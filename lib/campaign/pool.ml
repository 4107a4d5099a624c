type run_summary = {
  outcome : [ `Quiescent | `Max_steps ];
  steps : int;
  rounds : int;
  moves : int;
  valid_generated : int;
  valid_delivered : int;
  duplicate_delivered : int;
  invalid_delivered : int;
  invalid_worst_dest : int;
  invalid_planted : int;
  submitted : int;
  routing_settled_round : int;
  verdict_ok : bool;
  violations : string list;
  latencies : float list;
  delays : float list;
  recovery : Chaos.Recovery.report option;
  channel : Mp.Ssmfp_mp.channel_stats option;
  snapshot : Chaos.Mp_run.snapshot_outcome option;
}

type crash = { crash_msg : string; crash_backtrace : string }
type status = Done of run_summary | Crashed of crash

type outcome = {
  scenario : Spec.scenario;
  n : int;
  delta : int;
  diameter : int;
  status : status;
  seconds : float;
}

let default_workers () = max 1 (min 8 (Domain.recommended_domain_count ()))

let run_list ?(prof = Obs.Prof.disabled) ?(workers = 1) thunks =
  let arr = Array.of_list thunks in
  let total = Array.length arr in
  let results = Array.make total None in
  let next = Atomic.make 0 in
  (* Per-domain profiling: worker [w] records only into track [w]. The
     per-track task counter is the steal count (how many tasks each
     domain's cursor fetches won), the task spans give utilization, and
     the latency histogram is merged across tracks at export. *)
  let sp_task = Obs.Prof.span prof "campaign.task" in
  let h_task = Obs.Prof.histo prof "campaign.task_ns" in
  let c_tasks = Obs.Prof.counter prof "campaign.tasks" in
  (* Work stealing over a shared cursor: each cell of [results] is written
     by exactly one domain and read only after every join, so there is no
     data race on the payloads. *)
  let worker w () =
    let tr = Obs.Prof.track prof w in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let t0 = Obs.Prof.now prof in
        let r = try Ok (arr.(i) ()) with e -> Error (Printexc.to_string e) in
        let t1 = Obs.Prof.now prof in
        Obs.Prof.record_interval tr sp_task ~start:t0 ~stop:t1;
        Obs.Prof.observe tr h_task (t1 - t0);
        Obs.Prof.add tr c_tasks 1;
        results.(i) <- Some r;
        loop ()
      end
    in
    loop ()
  in
  let workers = max 1 (min workers total) in
  if workers <= 1 then worker 0 ()
  else begin
    let others =
      List.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    List.iter Domain.join others
  end;
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) results)

let oracle_tallies oracle =
  ( Harness.Oracle.valid_generated oracle,
    Harness.Oracle.valid_delivered oracle,
    Harness.Oracle.duplicate_delivered_total oracle,
    Harness.Oracle.invalid_delivered_total oracle,
    List.fold_left
      (fun acc (_, c) -> max acc c)
      0
      (Harness.Oracle.invalid_deliveries oracle),
    (* The oracle folds its hash table in bucket order; sort so aggregate
       percentiles never depend on insertion history. *)
    List.sort compare (Harness.Oracle.latencies oracle),
    List.sort compare (Harness.Oracle.delays oracle) )

let summary_of_chaos (o : Chaos.Runner.outcome) =
  let r = o.Chaos.Runner.run in
  let generated, delivered, duplicated, invalid, invalid_worst, latencies, delays
      =
    oracle_tallies r.Harness.Runner.oracle
  in
  let verdict_ok, violations, recovery =
    Chaos.Recovery.verdict ~schedule:o.Chaos.Runner.schedule
      ~verdict:o.Chaos.Runner.sp_verdict ~report:o.Chaos.Runner.report
  in
  {
    outcome = r.Harness.Runner.outcome;
    steps = r.Harness.Runner.stats.Sim.Engine.steps;
    rounds = r.Harness.Runner.stats.Sim.Engine.rounds;
    moves = r.Harness.Runner.stats.Sim.Engine.moves;
    valid_generated = generated;
    valid_delivered = delivered;
    duplicate_delivered = duplicated;
    invalid_delivered = invalid;
    invalid_worst_dest = invalid_worst;
    invalid_planted = r.Harness.Runner.invalid_planted;
    submitted = r.Harness.Runner.submitted + o.Chaos.Runner.aftermath_submitted;
    routing_settled_round = r.Harness.Runner.routing_settled_round;
    verdict_ok;
    violations;
    latencies;
    delays;
    recovery;
    channel = None;
    snapshot = None;
  }

let summary_of_mp (o : Chaos.Mp_run.outcome) =
  let generated, delivered, duplicated, invalid, invalid_worst, latencies, delays
      =
    oracle_tallies o.Chaos.Mp_run.oracle
  in
  let verdict_ok, violations, recovery = Chaos.Mp_run.verdict o in
  {
    outcome =
      (match o.Chaos.Mp_run.mp_outcome with
      | `All_done -> `Quiescent
      | `Max_deliveries -> `Max_steps);
    (* steps and moves are channel deliveries here — the mp model's unit
       of work; rounds are synchronizer pulses. *)
    steps = o.Chaos.Mp_run.channel_deliveries;
    rounds = o.Chaos.Mp_run.max_pulse;
    moves = o.Chaos.Mp_run.channel_deliveries;
    valid_generated = generated;
    valid_delivered = delivered;
    duplicate_delivered = duplicated;
    invalid_delivered = invalid;
    invalid_worst_dest = invalid_worst;
    invalid_planted = o.Chaos.Mp_run.invalid_planted;
    submitted = o.Chaos.Mp_run.submitted;
    routing_settled_round = 0;
    verdict_ok;
    violations;
    latencies;
    delays;
    recovery;
    channel = Some o.Chaos.Mp_run.channel;
    snapshot = o.Chaos.Mp_run.snapshot;
  }

(* channel_garbage mirrors the corruption axis on the mp side: forged
   messages sitting in flight at start, scaled like the planted state
   corruption (Prop. 4's budget is per destination, hence the 2n). *)
let mp_channel_garbage (sc : Spec.scenario) ~n =
  match sc.Spec.corruption with
  | Spec.Pristine -> 0
  | Spec.Random_point -> 10
  | Spec.Adversarial -> 2 * n

let run_scenario (sc : Spec.scenario) =
  let aftermath = Chaos.Recovery.aftermath_for sc.Spec.chaos in
  match sc.Spec.model with
  | Spec.State_model ->
      (* Zero-burst schedules delegate to the plain runner inside
         Chaos.Runner — byte-identical to Harness.Runner.run. *)
      summary_of_chaos
        (Chaos.Runner.run ~aftermath ~schedule:sc.Spec.chaos
           (Spec.materialize sc))
  | Spec.Mp_model ->
      let n = Topology.Graph.n sc.Spec.topology.Spec.graph in
      summary_of_mp
        (Chaos.Mp_run.run
           ~spec:(Spec.materialize_fault_spec sc)
           ~channel_garbage:(mp_channel_garbage sc ~n) ~seed:sc.Spec.seed
           ~aftermath ~snapshot_every:sc.Spec.snapshot
           ~schedule:sc.Spec.chaos sc.Spec.topology.Spec.graph
           (Spec.materialize_workload sc))

let run_one sc =
  let t0 = Unix.gettimeofday () in
  let n, delta, diameter =
    Chaos.Recovery.graph_meta sc.Spec.topology.Spec.graph
  in
  let status =
    (* Fresh, deterministic ghost ids per scenario, whatever the worker
       ran before — the artifact must not depend on scheduling. *)
    Ssmfp.Message.reset_ghost_counter ();
    Printexc.record_backtrace true;
    match run_scenario sc with
    | s -> Done s
    | exception e ->
        let raw = Printexc.get_raw_backtrace () in
        Crashed
          {
            crash_msg = Printexc.to_string e;
            crash_backtrace = String.trim (Printexc.raw_backtrace_to_string raw);
          }
  in
  {
    scenario = sc;
    n;
    delta;
    diameter;
    status;
    seconds = Unix.gettimeofday () -. t0;
  }

let run ?workers ?prof scenarios =
  let results =
    run_list ?prof ?workers (List.map (fun sc () -> run_one sc) scenarios)
  in
  List.map2
    (fun sc result ->
      match result with
      | Ok o -> o
      | Error msg ->
          (* run_one already catches runner exceptions; this branch
             only fires if scenario metadata itself blew up. *)
          let n, delta, diameter =
            Chaos.Recovery.graph_meta sc.Spec.topology.Spec.graph
          in
          {
            scenario = sc;
            n;
            delta;
            diameter;
            status = Crashed { crash_msg = msg; crash_backtrace = "" };
            seconds = 0.;
          })
    scenarios results
