(* Tests for the asynchronous message-passing substrate and the SSMFP
   port. *)

let path3 = Topology.Builders.path 3

(* A trivial echo protocol to test the network mechanics: integers hop to
   the right, each process counts what it saw. *)
let counter_net () =
  Mp.Network.create
    ~init:(fun _ -> 0)
    ~handler:(fun ~self ~from:_ count msg ->
      let sends = if self < 2 && msg > 0 then [ (self + 1, msg - 1) ] else [] in
      (count + 1, sends))
    path3

let test_network_fifo () =
  let net =
    Mp.Network.create
      ~init:(fun _ -> [])
      ~handler:(fun ~self:_ ~from:_ seen msg -> (msg :: seen, []))
      path3
  in
  Mp.Network.inject net ~from:0 ~into:1 "a";
  Mp.Network.inject net ~from:0 ~into:1 "b";
  Mp.Network.inject net ~from:0 ~into:1 "c";
  let rng = Prng.Splitmix.of_int 1 in
  ignore (Mp.Network.run net rng);
  Alcotest.(check (list string)) "FIFO order" [ "c"; "b"; "a" ]
    (Mp.Network.state net 1)

let test_network_relay () =
  let net = counter_net () in
  Mp.Network.inject net ~from:0 ~into:1 2;
  let rng = Prng.Splitmix.of_int 2 in
  let status = Mp.Network.run net rng in
  Alcotest.(check bool) "drains" true (status = `Idle);
  Alcotest.(check int) "two deliveries" 2 (Mp.Network.deliveries net);
  Alcotest.(check int) "p1 saw one" 1 (Mp.Network.state net 1);
  Alcotest.(check int) "p2 saw one" 1 (Mp.Network.state net 2)

let test_network_rejects_non_edge () =
  let net = counter_net () in
  Alcotest.check_raises "non-edge" (Invalid_argument "Network: not an edge")
    (fun () -> Mp.Network.inject net ~from:0 ~into:2 5)

let test_network_in_flight () =
  let net = counter_net () in
  Alcotest.(check int) "empty" 0 (Mp.Network.in_flight net);
  Mp.Network.send_one net ~from:1 ~into:0 7;
  Mp.Network.send_one net ~from:1 ~into:2 7;
  Alcotest.(check int) "two channels" 2 (Mp.Network.in_flight net)

let test_network_budget () =
  let net =
    (* ping-pong forever *)
    Mp.Network.create
      ~init:(fun _ -> ())
      ~handler:(fun ~self ~from:_ () () -> ((), [ (1 - self, ()) ]))
      (Topology.Builders.path 2)
  in
  Mp.Network.inject net ~from:0 ~into:1 ();
  let rng = Prng.Splitmix.of_int 3 in
  Alcotest.(check bool) "budget stops" true
    (Mp.Network.run ~max_deliveries:50 net rng = `Max_deliveries);
  Alcotest.(check int) "counted" 50 (Mp.Network.deliveries net)

(* ---------------- the SSMFP port ---------------- *)

let port_ok ?(spec = Harness.Fault.pristine) ?(garbage = 0) ?(loss = 0.) ~seed g
    per_processor =
  let n = Topology.Graph.n g in
  let rng = Prng.Splitmix.of_int (seed + 13) in
  let wl = Harness.Workload.uniform_random rng ~n ~per_processor in
  let t = Mp.Ssmfp_mp.create ~spec ~channel_garbage:garbage ~loss ~seed g wl in
  let r = Mp.Ssmfp_mp.run t in
  (r, r.Mp.Ssmfp_mp.outcome = `All_done && r.Mp.Ssmfp_mp.verdict.Harness.Oracle.ok)

let test_port_pristine () =
  let r, ok = port_ok ~seed:1 (Topology.Builders.ring 5) 2 in
  Alcotest.(check bool) "SP" true ok;
  Alcotest.(check int) "all delivered" 10
    (Harness.Oracle.valid_delivered r.Mp.Ssmfp_mp.oracle)

let test_port_adversarial () =
  let _, ok =
    port_ok ~spec:Harness.Fault.adversarial ~seed:2 (Topology.Builders.ring 5) 2
  in
  Alcotest.(check bool) "SP from corrupted processes" true ok

let test_port_channel_garbage () =
  let _, ok =
    port_ok ~spec:Harness.Fault.adversarial ~garbage:40 ~seed:3
      Topology.Builders.paper_figure2 2
  in
  Alcotest.(check bool) "SP with garbage in flight" true ok

let test_network_loss_and_timeout () =
  (* a lossy relay with timer-driven resend: the message still gets
     through *)
  let arrived = ref false in
  let net =
    Mp.Network.create ~loss:0.5
      ~init:(fun _ -> ())
      ~handler:(fun ~self ~from:_ () msg ->
        if self = 1 && msg = "payload" then arrived := true;
        ((), []))
      (Topology.Builders.path 2)
  in
  (* processor 0 sends from a periodic timer until the run stops; every
     copy crosses the lossy link *)
  Mp.Network.set_timer_handler net ~keys:1 (fun ~self ~key () ->
      Mp.Network.arm_timer net ~self ~key ~after:4;
      ((), [ (1, "payload") ]));
  Mp.Network.arm_timer net ~self:0 ~key:0 ~after:4;
  let rng = Prng.Splitmix.of_int 7 in
  ignore
    (Mp.Network.run ~max_deliveries:500 ~stop:(fun _ -> !arrived) net rng);
  Alcotest.(check bool) "copies were lost" true (Mp.Network.dropped net > 0);
  Alcotest.(check bool) "arrived despite loss" true !arrived

let test_port_lossy_channels () =
  let _, ok =
    port_ok ~spec:Harness.Fault.adversarial ~garbage:10 ~loss:0.25 ~seed:6
      (Topology.Builders.ring 5) 2
  in
  Alcotest.(check bool) "SP with 25%% snapshot loss" true ok

let test_port_pulses_advance () =
  let r, _ = port_ok ~seed:4 (Topology.Builders.path 3) 1 in
  Alcotest.(check bool) "pulses advanced" true (r.Mp.Ssmfp_mp.max_pulse > 0)

(* ---------------- unreliable-channel hardening ---------------- *)

(* On a trigger, processor 0 fans 20 numbered messages to 1; processor 1
   records arrivals in order. Everything 0 sends crosses the unreliable
   link. *)
let fanout_net ~loss ~duplication ~reorder =
  Mp.Network.create ~loss ~duplication ~reorder
    ~init:(fun _ -> [])
    ~handler:(fun ~self ~from:_ seen msg ->
      if self = 0 then (seen, List.init 20 (fun i -> (1, i + 1)))
      else (msg :: seen, []))
    (Topology.Builders.path 2)

let test_network_unreliable_deterministic () =
  let once seed =
    let net = fanout_net ~loss:0.3 ~duplication:0.3 ~reorder:0.3 in
    Mp.Network.inject net ~from:1 ~into:0 0;
    ignore (Mp.Network.run net (Prng.Splitmix.of_int seed));
    ( Mp.Network.state net 1,
      Mp.Network.deliveries net,
      Mp.Network.dropped net,
      Mp.Network.duplicated net,
      Mp.Network.reordered net )
  in
  let a = once 21 and b = once 21 in
  Alcotest.(check bool) "same seed, same run" true (a = b);
  let received, delivered, lost, dup, _ = a in
  Alcotest.(check bool) "loss bit" true (lost > 0);
  Alcotest.(check bool) "duplication bit" true (dup > 0);
  (* the trigger plus every surviving copy of the 20 sends *)
  Alcotest.(check int) "conservation" delivered
    (1 + 20 + dup - lost);
  Alcotest.(check int) "receiver saw the survivors" (delivered - 1)
    (List.length received)

let test_network_reorder_overtakes () =
  let net = fanout_net ~loss:0. ~duplication:0. ~reorder:1.0 in
  Mp.Network.inject net ~from:1 ~into:0 0;
  ignore (Mp.Network.run net (Prng.Splitmix.of_int 5));
  let arrival = List.rev (Mp.Network.state net 1) in
  Alcotest.(check bool) "every overtake counted" true
    (Mp.Network.reordered net > 0);
  Alcotest.(check (list int)) "nothing lost"
    (List.init 20 (fun i -> i + 1))
    (List.sort compare arrival);
  Alcotest.(check bool) "FIFO violated" true
    (arrival <> List.init 20 (fun i -> i + 1))

let test_network_total_loss () =
  let net = fanout_net ~loss:1.0 ~duplication:0. ~reorder:0. in
  Mp.Network.inject net ~from:1 ~into:0 0;
  let status = Mp.Network.run net (Prng.Splitmix.of_int 8) in
  Alcotest.(check bool) "drains (nothing survives the link)" true
    (status = `Idle);
  Alcotest.(check int) "only the injected trigger" 1 (Mp.Network.deliveries net);
  Alcotest.(check int) "all sends dropped" 20 (Mp.Network.dropped net);
  Alcotest.(check (list int)) "receiver starved" [] (Mp.Network.state net 1)

let test_network_crash_recovery () =
  let recovered = ref false in
  let net =
    Mp.Network.create
      ~on_recover:(fun ~self:_ _ ->
        recovered := true;
        100)
      ~init:(fun _ -> 0)
      ~handler:(fun ~self:_ ~from:_ s m -> (s + m, []))
      (Topology.Builders.path 2)
  in
  Mp.Network.crash net 1 ~down_for:1;
  Alcotest.(check bool) "down" true (Mp.Network.is_down net 1);
  Mp.Network.inject net ~from:0 ~into:1 5;
  ignore (Mp.Network.run net (Prng.Splitmix.of_int 12));
  Alcotest.(check int) "evaporated at the interface" 1
    (Mp.Network.dropped_while_down net);
  Alcotest.(check bool) "recovery hook ran" true !recovered;
  Alcotest.(check bool) "back up" false (Mp.Network.is_down net 1);
  Mp.Network.inject net ~from:0 ~into:1 7;
  ignore (Mp.Network.run net (Prng.Splitmix.of_int 13));
  Alcotest.(check int) "deliveries resume on the rewritten state" 107
    (Mp.Network.state net 1)

(* ---------------- causal tracing (Lamport stamps) ---------------- *)

let profiled_port ?(loss = 0.) ~seed g per_processor =
  Ssmfp.Message.reset_ghost_counter ();
  let n = Topology.Graph.n g in
  let rng = Prng.Splitmix.of_int (seed + 13) in
  let wl = Harness.Workload.uniform_random rng ~n ~per_processor in
  let prof = Obs.Prof.create ~tracks:1 () in
  let t = Mp.Ssmfp_mp.create ~loss ~seed ~prof g wl in
  let r = Mp.Ssmfp_mp.run t in
  (t, r, prof)

let test_port_lamport_tracing () =
  let g = Topology.Builders.path 3 in
  let t, r, prof = profiled_port ~seed:4 g 1 in
  Alcotest.(check bool) "run completes" true (r.Mp.Ssmfp_mp.outcome = `All_done);
  (* every delivery advanced some clock, and hops were logged *)
  let clocks = List.init 3 (Mp.Ssmfp_mp.lamport t) in
  Alcotest.(check bool) "lamport clocks advanced" true
    (List.for_all (fun c -> c > 0) clocks);
  let hops = Mp.Ssmfp_mp.hops t in
  Alcotest.(check bool) "hop log populated" true (hops <> []);
  List.iter
    (fun h ->
      Alcotest.(check bool) "hop is an edge" true
        (Topology.Graph.is_edge g h.Mp.Network.hop_from h.Mp.Network.hop_into);
      Alcotest.(check bool) "receive clock exceeds send clock" true
        (h.Mp.Network.hop_recv_lamport > h.Mp.Network.hop_send_lamport
        || h.Mp.Network.hop_recv_lamport > 0))
    hops;
  (* latency histogram filled in *)
  let hl = Obs.Prof.histo prof "mp.send_deliver_ns" in
  (match Obs.Prof.histo_summary prof hl with
  | None -> Alcotest.fail "no latency samples"
  | Some s ->
      Alcotest.(check int) "one latency sample per logged delivery"
        (List.length hops) s.Obs.Prof.hs_count);
  Alcotest.(check bool) "sends counted" true
    (Obs.Prof.counter_total prof (Obs.Prof.counter prof "mp.sends") > 0)

let test_port_causal_chain () =
  let g = Topology.Builders.path 3 in
  let t, _, _ = profiled_port ~seed:4 g 1 in
  let hops = Mp.Ssmfp_mp.hops t in
  let last = List.nth hops (List.length hops - 1) in
  let chain = Mp.Ssmfp_mp.causal_chain t ~id:last.Mp.Network.hop_id in
  Alcotest.(check bool) "chain found" true (chain <> []);
  (* the chain ends at the queried delivery *)
  let final = List.nth chain (List.length chain - 1) in
  Alcotest.(check int) "chain ends at the queried message"
    last.Mp.Network.hop_id final.Mp.Network.hop_id;
  (* each link flows into the next sender with a consistent clock *)
  let rec check_links = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check int) "link delivered into the next sender"
          b.Mp.Network.hop_from a.Mp.Network.hop_into;
        Alcotest.(check bool) "clocks monotone along the chain" true
          (a.Mp.Network.hop_recv_lamport <= b.Mp.Network.hop_send_lamport);
        check_links rest
    | _ -> ()
  in
  check_links chain;
  Alcotest.(check (list Alcotest.reject)) "undelivered id has no chain" []
    (Mp.Ssmfp_mp.causal_chain t ~id:(-42))

let test_port_retransmissions_counted () =
  (* under loss, the window's RTO and refresh timers must retransmit —
     and the profiler must see it *)
  let _, r, prof = profiled_port ~loss:0.3 ~seed:6 (Topology.Builders.ring 4) 1 in
  Alcotest.(check bool) "still drains under loss" true
    (r.Mp.Ssmfp_mp.outcome = `All_done);
  let c = Obs.Prof.counter prof "mp.retransmissions" in
  Alcotest.(check bool) "retransmissions counted" true
    (Obs.Prof.counter_total prof c > 0)

let test_port_profiling_pure () =
  (* profiling consumes no PRNG draws: the run is identical with it on
     or off *)
  let once ~with_prof =
    Ssmfp.Message.reset_ghost_counter ();
    let rng = Prng.Splitmix.of_int 31 in
    let wl = Harness.Workload.uniform_random rng ~n:5 ~per_processor:2 in
    let prof =
      if with_prof then Obs.Prof.create ~tracks:1 () else Obs.Prof.disabled
    in
    let t =
      Mp.Ssmfp_mp.create ~spec:Harness.Fault.adversarial ~channel_garbage:10
        ~loss:0.2 ~duplication:0.1 ~reorder:0.1 ~seed:44 ~prof
        (Topology.Builders.ring 5) wl
    in
    let r = Mp.Ssmfp_mp.run t in
    ( r.Mp.Ssmfp_mp.outcome,
      r.Mp.Ssmfp_mp.channel_deliveries,
      r.Mp.Ssmfp_mp.max_pulse,
      r.Mp.Ssmfp_mp.verdict,
      Mp.Ssmfp_mp.channel_stats t )
  in
  Alcotest.(check bool) "profiling is a pure observer" true
    (once ~with_prof:false = once ~with_prof:true)

let test_port_seeded_determinism () =
  let once () =
    Ssmfp.Message.reset_ghost_counter ();
    let rng = Prng.Splitmix.of_int 31 in
    let wl = Harness.Workload.uniform_random rng ~n:5 ~per_processor:2 in
    let t =
      Mp.Ssmfp_mp.create ~spec:Harness.Fault.adversarial ~channel_garbage:10
        ~loss:0.2 ~duplication:0.1 ~reorder:0.1 ~seed:44
        (Topology.Builders.ring 5) wl
    in
    let r = Mp.Ssmfp_mp.run t in
    ( r.Mp.Ssmfp_mp.outcome,
      r.Mp.Ssmfp_mp.channel_deliveries,
      r.Mp.Ssmfp_mp.max_pulse,
      r.Mp.Ssmfp_mp.verdict,
      Mp.Ssmfp_mp.channel_stats t )
  in
  let a = once () and b = once () in
  Alcotest.(check bool) "identical runs" true (a = b);
  let outcome, _, _, verdict, stats = a in
  Alcotest.(check bool) "still drains and satisfies SP" true
    (outcome = `All_done && verdict.Harness.Oracle.ok);
  Alcotest.(check bool) "channel actually misbehaved" true
    (stats.Mp.Ssmfp_mp.lost > 0)

let test_port_total_loss_starves () =
  Ssmfp.Message.reset_ghost_counter ();
  let rng = Prng.Splitmix.of_int 5 in
  let wl = Harness.Workload.uniform_random rng ~n:4 ~per_processor:1 in
  let t =
    Mp.Ssmfp_mp.create ~loss:1.0 ~seed:9 (Topology.Builders.ring 4) wl
  in
  let r = Mp.Ssmfp_mp.run ~max_deliveries:20_000 t in
  Alcotest.(check bool) "never drains" true
    (r.Mp.Ssmfp_mp.outcome = `Max_deliveries);
  Alcotest.(check int) "no valid message gets through" 0
    (Harness.Oracle.valid_delivered r.Mp.Ssmfp_mp.oracle)

let test_port_crash_recovery () =
  Ssmfp.Message.reset_ghost_counter ();
  let rng = Prng.Splitmix.of_int 6 in
  let wl = Harness.Workload.uniform_random rng ~n:5 ~per_processor:1 in
  let t = Mp.Ssmfp_mp.create ~seed:14 (Topology.Builders.ring 5) wl in
  Mp.Ssmfp_mp.crash_process t 2 ~down_for:50;
  let r = Mp.Ssmfp_mp.run t in
  Alcotest.(check bool) "drains after the crash span" true
    (r.Mp.Ssmfp_mp.outcome = `All_done);
  Alcotest.(check bool) "SP despite the crash" true
    r.Mp.Ssmfp_mp.verdict.Harness.Oracle.ok

let prop_port_sp =
  QCheck.Test.make ~name:"MP port satisfies SP from random corruption"
    ~count:15
    QCheck.(pair (int_range 3 6) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Topology.Builders.ring n in
      let rng = Prng.Splitmix.of_int seed in
      let spec = Harness.Fault.random_spec rng in
      let _, ok = port_ok ~spec ~garbage:(seed mod 15) ~seed g 1 in
      ok)

let () =
  Alcotest.run "mp"
    [
      ( "network",
        [
          Alcotest.test_case "fifo" `Quick test_network_fifo;
          Alcotest.test_case "relay" `Quick test_network_relay;
          Alcotest.test_case "rejects non-edge" `Quick test_network_rejects_non_edge;
          Alcotest.test_case "in flight" `Quick test_network_in_flight;
          Alcotest.test_case "delivery budget" `Quick test_network_budget;
          Alcotest.test_case "loss + timeout" `Quick test_network_loss_and_timeout;
          Alcotest.test_case "unreliable deterministic" `Quick
            test_network_unreliable_deterministic;
          Alcotest.test_case "reorder overtakes" `Quick
            test_network_reorder_overtakes;
          Alcotest.test_case "total loss" `Quick test_network_total_loss;
          Alcotest.test_case "crash recovery" `Quick test_network_crash_recovery;
        ] );
      ( "ssmfp port",
        [
          Alcotest.test_case "pristine" `Quick test_port_pristine;
          Alcotest.test_case "adversarial" `Quick test_port_adversarial;
          Alcotest.test_case "channel garbage" `Quick test_port_channel_garbage;
          Alcotest.test_case "lossy channels" `Quick test_port_lossy_channels;
          Alcotest.test_case "pulses advance" `Quick test_port_pulses_advance;
          Alcotest.test_case "seeded determinism" `Quick
            test_port_seeded_determinism;
          Alcotest.test_case "total loss starves" `Quick
            test_port_total_loss_starves;
          Alcotest.test_case "crash recovery" `Quick test_port_crash_recovery;
          Alcotest.test_case "lamport tracing" `Quick test_port_lamport_tracing;
          Alcotest.test_case "causal chain" `Quick test_port_causal_chain;
          Alcotest.test_case "retransmissions counted" `Quick
            test_port_retransmissions_counted;
          Alcotest.test_case "profiling pure" `Quick test_port_profiling_pure;
          QCheck_alcotest.to_alcotest prop_port_sp;
        ] );
    ]
