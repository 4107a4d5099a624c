(* Convergecast onto a hotspot: every processor floods one destination.

   This is the workload that maximizes contention on the destination's
   reception buffer, where the fair choice_p(d) queue earns its keep: each
   feeder is served in rotation, so no source is passed more than Δ times
   (the bound behind Propositions 5 and 6). The example contrasts the
   per-source delivery latencies under the faithful protocol and under the
   unfair ablation (no queue rotation), and compares the total cost with
   the fault-free baseline.

   Run with: dune exec examples/hotspot_convergecast.exe *)

let run_variant name variant =
  let graph = Topology.Builders.star 8 in
  let n = Topology.Graph.n graph in
  let workload = Harness.Workload.all_to_one ~n ~dest:0 ~per_processor:8 in
  let cfg =
    Harness.Runner.config ~variant ~daemon:Harness.Runner.Synchronous ~seed:3
      graph workload
  in
  let r = Harness.Runner.run cfg in
  let waits =
    List.concat_map
      (fun (_, rounds) ->
        match rounds with
        | [] | [ _ ] -> []
        | first :: rest ->
            snd
              (List.fold_left
                 (fun (prev, acc) x -> (x, float_of_int (x - prev) :: acc))
                 (first, []) rest))
      (Harness.Oracle.generation_rounds r.oracle)
  in
  let w = Harness.Stats.summarize waits in
  Printf.printf "%-12s delivered %d/%d in %d rounds; waiting time mean %.1f max %.0f\n"
    name
    (Harness.Oracle.valid_delivered r.oracle)
    (Harness.Workload.total workload)
    r.stats.Sim.Engine.rounds w.Harness.Stats.mean w.Harness.Stats.max;
  r

let () =
  print_endline "star8 convergecast: 7 leaves send 8 messages each to the hub";
  let faithful = run_variant "faithful" Ssmfp.Protocol.faithful in
  let _ =
    run_variant "no-rotation"
      { Ssmfp.Protocol.faithful with Ssmfp.Protocol.rotate_queue = false }
  in
  (* Against the fault-free baseline on the same workload. *)
  let graph = Topology.Builders.star 8 in
  let workload = Harness.Workload.all_to_one ~n:8 ~dest:0 ~per_processor:8 in
  let b = Harness.Runner.run_baseline graph workload in
  Printf.printf "%-12s delivered %d in %d rounds (no fault tolerance)\n"
    "baseline" (List.length b.Baseline.Forwarding.delivered)
    b.Baseline.Forwarding.rounds;
  Printf.printf
    "snap-stabilization cost on this workload: %.1fx rounds vs baseline\n"
    (float_of_int faithful.Harness.Runner.stats.Sim.Engine.rounds
    /. float_of_int b.Baseline.Forwarding.rounds)
