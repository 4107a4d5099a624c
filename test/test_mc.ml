(* Tests for the bounded model checker (experiment E7's machinery). *)

let test_two_chain_enumeration () =
  let sc = Mc.Explore.two_chain in
  let inits = Mc.Explore.enumerate_initials sc in
  (* per processor: (1 + |pool| * |last| * |colors|) ^ 2 buffer contents
     * 2 queue orders * 2 request flags = 9*9*2*2 = 324; two processors *)
  Alcotest.(check int) "104976 initial configurations" (324 * 324)
    (List.length inits)

let test_two_chain_exhaustive_safety () =
  let sc = Mc.Explore.two_chain in
  let inits = Mc.Explore.enumerate_initials sc in
  let r = Mc.Explore.check_safety sc inits in
  Alcotest.(check bool) "no duplicate delivery" false r.Mc.Explore.duplicate_delivery;
  Alcotest.(check (option string)) "no loss" None r.Mc.Explore.lost_valid;
  Alcotest.(check (option string)) "no deadlock" None r.Mc.Explore.deadlock;
  Alcotest.(check bool) "explored beyond initials" true
    (r.Mc.Explore.explored > r.Mc.Explore.initial_count);
  (* A guard change that keeps the search consistent but wrong moves
     these counts. *)
  Alcotest.(check (pair int int)) "explored, transitions" (108_280, 205_362)
    (r.Mc.Explore.explored, r.Mc.Explore.transitions)

let test_two_chain_liveness_sample () =
  let sc = Mc.Explore.two_chain in
  let rng = Prng.Splitmix.of_int 7 in
  let inits = Mc.Explore.sample_initials rng ~count:500 sc in
  let r = Mc.Explore.check_liveness sc inits in
  Alcotest.(check int) "500 checked" 500 r.Mc.Explore.checked;
  Alcotest.(check (list string)) "no failures" [] r.Mc.Explore.failures;
  Alcotest.(check bool) "bounded schedules" true (r.Mc.Explore.max_steps_seen < 200)

let test_three_chain_sampled () =
  let sc = Mc.Explore.three_chain in
  let rng = Prng.Splitmix.of_int 8 in
  let inits = Mc.Explore.sample_initials rng ~count:150 sc in
  let sr = Mc.Explore.check_safety sc inits in
  Alcotest.(check bool) "no dup" false sr.Mc.Explore.duplicate_delivery;
  Alcotest.(check (option string)) "no loss" None sr.Mc.Explore.lost_valid;
  Alcotest.(check (option string)) "no deadlock" None sr.Mc.Explore.deadlock;
  let lr = Mc.Explore.check_liveness sc inits in
  Alcotest.(check (list string)) "liveness" [] lr.Mc.Explore.failures

let test_two_chain_simultaneity () =
  (* Composite steps of the distributed daemon: simultaneous executions
     reading the same pre-step configuration. This is where a double
     R4/R5 erasure would lose a message; the guards make the two rules
     mutually exclusive on the same copy, and the search confirms it. *)
  let sc = Mc.Explore.two_chain in
  let inits = Mc.Explore.enumerate_initials sc in
  let r = Mc.Explore.check_safety ~simultaneity:true sc inits in
  Alcotest.(check bool) "no duplicate" false r.Mc.Explore.duplicate_delivery;
  Alcotest.(check (option string)) "no loss" None r.Mc.Explore.lost_valid;
  Alcotest.(check (option string)) "no deadlock" None r.Mc.Explore.deadlock;
  Alcotest.(check (pair int int)) "explored, transitions" (108_296, 241_958)
    (r.Mc.Explore.explored, r.Mc.Explore.transitions)

let test_routing_active_safety () =
  (* SP safety while A repairs corrupted tables *inside* the search:
     every interleaving of repair and forwarding actions. *)
  let sc = Mc.Explore.two_chain in
  let rng = Prng.Splitmix.of_int 23 in
  let inits = Mc.Explore.sample_initials_corrupted rng ~count:400 sc in
  let r = Mc.Explore.check_safety ~run_routing:true sc inits in
  Alcotest.(check bool) "no duplicate" false r.Mc.Explore.duplicate_delivery;
  Alcotest.(check (option string)) "no loss" None r.Mc.Explore.lost_valid;
  Alcotest.(check (option string)) "no deadlock" None r.Mc.Explore.deadlock

let test_literal_r5_loses_messages () =
  (* Positive control: under the paper's literal R5 guard (no q <> p
     restriction), the checker must find the reachable loss that motivated
     the restriction. The invalid pool must contain the valid payload so
     bufE_p can hold an identical invalid occupant. *)
  let sc = Mc.Explore.two_chain in
  let inits = Mc.Explore.enumerate_initials sc in
  let variant = { Ssmfp.Protocol.faithful with Ssmfp.Protocol.literal_r5 = true } in
  let r = Mc.Explore.check_safety ~variant sc inits in
  Alcotest.(check bool) "loss found" true (r.Mc.Explore.lost_valid <> None)

let test_fig2_sampled_simultaneity () =
  (* the Figure 2/3 network (4 processors, Δ = 3): sampled initial
     configurations, composite distributed-daemon steps *)
  let sc =
    {
      Mc.Explore.graph = Topology.Builders.paper_figure2;
      dest = 1;
      src = 2;
      payload_pool = [ "v" ];
    }
  in
  let rng = Prng.Splitmix.of_int 31 in
  let inits = Mc.Explore.sample_initials rng ~count:20 sc in
  let r = Mc.Explore.check_safety ~simultaneity:true sc inits in
  Alcotest.(check bool) "no duplicate" false r.Mc.Explore.duplicate_delivery;
  Alcotest.(check (option string)) "no loss" None r.Mc.Explore.lost_valid;
  Alcotest.(check (option string)) "no deadlock" None r.Mc.Explore.deadlock

let test_budget_guard () =
  let sc = Mc.Explore.two_chain in
  let inits = Mc.Explore.enumerate_initials sc in
  Alcotest.check_raises "budget"
    (Failure
       "Mc.check_safety: configuration budget exhausted (max_configs = 10)")
    (fun () -> ignore (Mc.Explore.check_safety ~max_configs:10 sc inits))

let test_sample_within_enumeration_space () =
  let sc = Mc.Explore.two_chain in
  let rng = Prng.Splitmix.of_int 9 in
  let sample = Mc.Explore.sample_initials rng ~count:50 sc in
  Alcotest.(check int) "count" 50 (List.length sample);
  List.iter
    (fun states ->
      Alcotest.(check int) "two processors" 2 (Array.length states);
      (* the workload message sits at src *)
      Alcotest.(check int) "outbox at src" 1
        (List.length states.(sc.Mc.Explore.src).Ssmfp.State.outbox))
    sample

let test_profiled_search_unperturbed () =
  (* Profiling must be a pure observer: the report's semantic fields
     agree with the sequential, unprofiled search at every worker count,
     the span-name set is worker-count independent, and the emitted
     Chrome trace passes the nesting validator. *)
  let sc = Mc.Explore.two_chain in
  let rng = Prng.Splitmix.of_int 11 in
  let inits = Mc.Explore.sample_initials rng ~count:200 sc in
  let semantic (r : Mc.Explore.safety_report) =
    ( r.Mc.Explore.explored,
      r.Mc.Explore.transitions,
      r.Mc.Explore.duplicate_delivery,
      r.Mc.Explore.lost_valid,
      r.Mc.Explore.deadlock )
  in
  let plain = semantic (Mc.Explore.check_safety sc inits) in
  let profiled w =
    let prof = Obs.Prof.create ~tracks:w () in
    let r = Mc.Explore.check_safety ~workers:w ~prof sc inits in
    (semantic r, prof)
  in
  let r2, p2 = profiled 2 in
  let r4, p4 = profiled 4 in
  Alcotest.(check bool) "2 workers, profiled = sequential" true (r2 = plain);
  Alcotest.(check bool) "4 workers, profiled = sequential" true (r4 = plain);
  let names p = List.sort compare (Obs.Prof.span_names p) in
  Alcotest.(check (list string)) "span set independent of worker count"
    (names p2) (names p4);
  Alcotest.(check bool) "spans recorded" true (Obs.Prof.events p4 <> []);
  match Obs.Traceview.validate (Obs.Traceview.to_json p4) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace fails validation: %s" e

let () =
  Alcotest.run "mc"
    [
      ( "explore",
        [
          Alcotest.test_case "enumeration size" `Quick test_two_chain_enumeration;
          Alcotest.test_case "exhaustive safety (2-chain)" `Slow
            test_two_chain_exhaustive_safety;
          Alcotest.test_case "liveness sample (2-chain)" `Quick
            test_two_chain_liveness_sample;
          Alcotest.test_case "sampled 3-chain" `Quick test_three_chain_sampled;
          Alcotest.test_case "simultaneity (2-chain)" `Slow
            test_two_chain_simultaneity;
          Alcotest.test_case "routing active (sampled)" `Quick
            test_routing_active_safety;
          Alcotest.test_case "literal R5 loses (positive control)" `Slow
            test_literal_r5_loses_messages;
          Alcotest.test_case "fig2 net, composite steps (sampled)" `Slow
            test_fig2_sampled_simultaneity;
          Alcotest.test_case "budget guard" `Quick test_budget_guard;
          Alcotest.test_case "sampling shape" `Quick
            test_sample_within_enumeration_space;
          Alcotest.test_case "profiled search unperturbed" `Quick
            test_profiled_search_unperturbed;
        ] );
    ]
