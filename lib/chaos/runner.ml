type outcome = {
  run : Harness.Runner.result;
  report : Recovery.report;
  fired : (int * int) list;
  aftermath_submitted : int;
  sp_verdict : Harness.Oracle.verdict;
  schedule : Schedule.t;
}

let analyze_run schedule fired ~aftermath_submitted (run : Harness.Runner.result)
    g =
  let n, delta, diameter = Recovery.graph_meta g in
  let report =
    Recovery.analyze ~oracle:run.Harness.Runner.oracle
      ~burst_rounds:(List.map fst fired) ~n ~delta ~diameter
      ~final_round:run.Harness.Runner.stats.Sim.Engine.rounds
      ~quiescent:(run.Harness.Runner.outcome = `Quiescent)
      ~routing_settled_round:run.Harness.Runner.routing_settled_round ()
  in
  let sp_verdict =
    if aftermath_submitted = 0 then run.Harness.Runner.verdict
    else
      Harness.Oracle.check_sp run.Harness.Runner.oracle
        ~expected_valid:(run.Harness.Runner.submitted + aftermath_submitted)
        ~n
        ~at_quiescence:(run.Harness.Runner.outcome = `Quiescent)
  in
  {
    run;
    report;
    fired = List.rev fired;
    aftermath_submitted;
    sp_verdict;
    schedule;
  }

let run ?obs ?(aftermath = 0) ?(prof = Obs.Prof.disabled) ~schedule
    (cfg : Harness.Runner.config) =
  let prof_on = Obs.Prof.enabled prof in
  let ptr = Obs.Prof.track prof 0 in
  let sp_run = Obs.Prof.span prof "chaos.run" in
  let run_t0 = Obs.Prof.now prof in
  let finish outcome =
    if prof_on then Obs.Prof.record ptr sp_run ~start:run_t0;
    outcome
  in
  if schedule.Schedule.bursts = [] then
    (* Zero-burst schedules take the plain runner's code path untouched
       (inject = None), which is what makes them byte-identical to
       Harness.Runner.run — events, stats and final configuration. *)
    let run = Harness.Runner.run ?obs { cfg with Harness.Runner.inject = None } in
    finish
      (analyze_run schedule [] ~aftermath_submitted:0 run
         cfg.Harness.Runner.graph)
  else begin
    (* The chaos stream is derived from the scenario seed but never
       shared with the runner's fault/daemon streams, so the base
       execution's draws are those of the burst-free run until the first
       burst lands. *)
    let chaos_rng = Prng.Splitmix.of_int (cfg.Harness.Runner.seed + 6_700_417) in
    let journal = Option.bind obs Obs.Sink.journal in
    let pending = ref (List.sort (fun a b -> compare a.Schedule.at b.Schedule.at) schedule.Schedule.bursts) in
    let fired = ref [] in
    let aftermath_submitted = ref 0 in
    (* The probe wave behind the recovery oracle's post-burst SP check:
       fresh requests submitted right after the last burst, so the
       "delivered once-and-only-once after faults stop" clause is never
       vacuously true. *)
    let submit_aftermath engine =
      aftermath_submitted :=
        Recovery.aftermath_wave chaos_rng
          ~n:(Topology.Graph.n cfg.Harness.Runner.graph)
          aftermath
          (fun src ~dest info ->
            Sim.Engine.set_state engine src
              (Ssmfp.State.push_outbox (Sim.Engine.state engine src) ~dest info))
    in
    let inject engine =
      let rec fire () =
        match !pending with
        | [] -> ()
        | b :: rest ->
            let round = Sim.Engine.rounds engine in
            (* Terminal counts as "now": a burst scheduled past
               quiescence strikes the quiescent configuration, and
               because this hook runs before the engine's terminal
               check, the corruption re-enables the system. *)
            if round >= b.Schedule.at || Sim.Engine.is_terminal engine then begin
              pending := rest;
              let victims = Inject.burst chaos_rng ?journal b engine in
              fired := (round, victims) :: !fired;
              if rest = [] then submit_aftermath engine;
              fire ()
            end
      in
      fire ()
    in
    let run =
      Harness.Runner.run ?obs { cfg with Harness.Runner.inject = Some inject }
    in
    finish
      (analyze_run schedule !fired ~aftermath_submitted:!aftermath_submitted run
         cfg.Harness.Runner.graph)
  end
