(* Tests for the harness: statistics, reporting, workloads, fault
   injection, and the oracle's bookkeeping. *)

let feq = Alcotest.(check (float 1e-9))

(* ---------------- stats ---------------- *)

let test_stats_basics () =
  let xs = [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  feq "mean" 5.0 (Harness.Stats.mean xs);
  feq "stddev" 2.0 (Harness.Stats.stddev xs);
  feq "min" 2.0 (Harness.Stats.minimum xs);
  feq "max" 9.0 (Harness.Stats.maximum xs);
  Alcotest.(check int) "count" 8 (Harness.Stats.count xs)

let test_stats_empty () =
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Harness.Stats.mean []));
  Alcotest.(check bool) "p50 nan" true
    (Float.is_nan (Harness.Stats.percentile 50. []));
  Alcotest.(check int) "count 0" 0 (Harness.Stats.count [])

let test_summarize_empty () =
  (* The documented contract: never raises, count 0, every float nan. *)
  let s = Harness.Stats.summarize [] in
  Alcotest.(check int) "count" 0 s.Harness.Stats.count;
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " nan") true (Float.is_nan v))
    [
      ("mean", s.Harness.Stats.mean);
      ("stddev", s.Harness.Stats.stddev);
      ("min", s.Harness.Stats.min);
      ("max", s.Harness.Stats.max);
      ("p50", s.Harness.Stats.p50);
      ("p90", s.Harness.Stats.p90);
      ("p99", s.Harness.Stats.p99);
    ];
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f nan" p)
        true
        (Float.is_nan (Harness.Stats.percentile p [])))
    [ 0.; 50.; 100. ]

let test_percentiles () =
  let xs = Harness.Stats.of_ints (List.init 100 (fun i -> i + 1)) in
  feq "p50" 50. (Harness.Stats.percentile 50. xs);
  feq "p90" 90. (Harness.Stats.percentile 90. xs);
  feq "p99" 99. (Harness.Stats.percentile 99. xs);
  feq "p100 = max" 100. (Harness.Stats.percentile 100. xs)

let test_percentiles_unsorted () =
  (* nearest-rank must not depend on input order, and duplicates count
     with their multiplicity *)
  let xs = [ 9.; 1.; 5.; 5.; 5.; 2.; 7.; 1.; 3.; 8. ] in
  feq "p50" 5. (Harness.Stats.percentile 50. xs);
  feq "p90" 8. (Harness.Stats.percentile 90. xs);
  feq "p99" 9. (Harness.Stats.percentile 99. xs);
  feq "p0 = min" 1. (Harness.Stats.percentile 0. xs);
  (* a single sample is every percentile *)
  feq "singleton p50" 42. (Harness.Stats.percentile 50. [ 42. ]);
  feq "singleton p99" 42. (Harness.Stats.percentile 99. [ 42. ])

let test_summary () =
  let s = Harness.Stats.summarize [ 1.; 2.; 3. ] in
  feq "mean" 2. s.Harness.Stats.mean;
  Alcotest.(check int) "count" 3 s.Harness.Stats.count;
  let str = Format.asprintf "%a" Harness.Stats.pp_summary s in
  Alcotest.(check bool) "renders" true (Test_util.contains str "mean=2.00")

let test_summary_percentiles_agree () =
  (* summarize sorts once and reads all three percentiles off the same
     sorted sample; pin them against the one-shot [percentile] on a
     deliberately shuffled input *)
  let xs = [ 30.; 10.; 90.; 50.; 70.; 20.; 100.; 40.; 80.; 60. ] in
  let s = Harness.Stats.summarize xs in
  feq "p50" (Harness.Stats.percentile 50. xs) s.Harness.Stats.p50;
  feq "p90" (Harness.Stats.percentile 90. xs) s.Harness.Stats.p90;
  feq "p99" (Harness.Stats.percentile 99. xs) s.Harness.Stats.p99;
  feq "p50 value" 50. s.Harness.Stats.p50;
  feq "p90 value" 90. s.Harness.Stats.p90;
  feq "p99 value" 100. s.Harness.Stats.p99;
  feq "min" 10. s.Harness.Stats.min;
  feq "max" 100. s.Harness.Stats.max

let test_histogram () =
  let h = Harness.Stats.histogram ~buckets:2 [ 0.; 1.; 2.; 3. ] in
  Alcotest.(check int) "two buckets" 2 (List.length h);
  let counts = List.map (fun (_, _, c) -> c) h in
  Alcotest.(check (list int)) "counts" [ 2; 2 ] counts;
  Alcotest.(check (list (triple (float 1e-9) (float 1e-9) int))) "empty" []
    (Harness.Stats.histogram ~buckets:3 [])

(* ---------------- report ---------------- *)

let test_report_table () =
  let t = Harness.Report.table ~headers:[ "a"; "b" ] in
  Harness.Report.add_row t [ "x"; "1" ];
  Harness.Report.add_int_row t "y" [ 22 ];
  let s = Harness.Report.render t in
  Alcotest.(check bool) "aligned header" true (Test_util.contains s "a | b");
  Alcotest.(check bool) "row" true (Test_util.contains s "y | 22");
  Alcotest.check_raises "arity" (Invalid_argument "Report.add_row: arity mismatch")
    (fun () -> Harness.Report.add_row t [ "only one" ])

let test_report_csv () =
  let t = Harness.Report.table ~headers:[ "name"; "value" ] in
  Harness.Report.add_row t [ "with,comma"; "with\"quote" ];
  let csv = Harness.Report.to_csv t in
  Alcotest.(check bool) "escaped comma" true
    (Test_util.contains csv "\"with,comma\"");
  Alcotest.(check bool) "escaped quote" true
    (Test_util.contains csv "\"with\"\"quote\"")

let test_bar_chart () =
  let s = Harness.Report.bar_chart ~width:10 ~title:"t" [ ("a", 10.); ("b", 5.) ] in
  Alcotest.(check bool) "full bar" true (Test_util.contains s "##########");
  Alcotest.(check bool) "half bar" true (Test_util.contains s "##### 5.00")

(* ---------------- workloads ---------------- *)

let test_workload_single () =
  let wl = Harness.Workload.single ~n:5 ~src:2 ~dest:4 ~count:3 in
  Alcotest.(check int) "total" 3 (Harness.Workload.total wl);
  Alcotest.(check int) "all at src" 3 (List.length wl.(2));
  List.iter (fun (d, _) -> Alcotest.(check int) "dest" 4 d) wl.(2)

let test_workload_uniform () =
  let rng = Prng.Splitmix.of_int 5 in
  let wl = Harness.Workload.uniform_random rng ~n:6 ~per_processor:4 in
  Alcotest.(check int) "total" 24 (Harness.Workload.total wl);
  Array.iteri
    (fun src msgs ->
      List.iter
        (fun (dest, _) ->
          Alcotest.(check bool) "valid dest" true
            (dest >= 0 && dest < 6 && dest <> src))
        msgs)
    wl

let test_workload_all_to_one () =
  let wl = Harness.Workload.all_to_one ~n:4 ~dest:1 ~per_processor:2 in
  Alcotest.(check int) "total" 6 (Harness.Workload.total wl);
  Alcotest.(check (list (pair int string))) "dest silent" [] wl.(1)

let test_workload_one_to_all () =
  let wl = Harness.Workload.one_to_all ~n:4 ~src:0 ~rounds:2 in
  Alcotest.(check int) "total" 6 (Harness.Workload.total wl)

let test_workload_permutation () =
  let rng = Prng.Splitmix.of_int 6 in
  let wl = Harness.Workload.permutation rng ~n:6 ~per_processor:1 in
  Alcotest.(check int) "total" 6 (Harness.Workload.total wl);
  Array.iteri
    (fun src -> function
      | [ (dest, _) ] -> Alcotest.(check bool) "derangement" true (dest <> src)
      | _ -> Alcotest.fail "one message per processor")
    wl

let test_workload_neighbors () =
  let g = Topology.Builders.star 4 in
  let wl = Harness.Workload.neighbors_only g ~per_processor:1 in
  Alcotest.(check int) "center sends 3" 3 (List.length wl.(0));
  Alcotest.(check int) "leaf sends 1" 1 (List.length wl.(1))

let workload_testable = Alcotest.(array (list (pair int string)))

let test_workload_deterministic () =
  (* Equal seeds must yield byte-identical workloads — the campaign
     engine's determinism rests on this. *)
  let uniform () =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 5) ~n:7
      ~per_processor:3
  in
  Alcotest.check workload_testable "uniform identical" (uniform ()) (uniform ());
  let perm () =
    Harness.Workload.permutation (Prng.Splitmix.of_int 9) ~n:8 ~per_processor:2
  in
  Alcotest.check workload_testable "permutation identical" (perm ()) (perm ());
  let sat () =
    Harness.Workload.saturating
      (Prng.Splitmix.of_int 11)
      ~graph:(Topology.Builders.ring 6) ~per_processor:2
  in
  Alcotest.check workload_testable "saturating identical" (sat ()) (sat ())

let test_workload_totals () =
  (* total = n × per_processor for the all-senders generators. *)
  let check_total name expected wl =
    Alcotest.(check int) name expected (Harness.Workload.total wl)
  in
  check_total "uniform 6*4" 24
    (Harness.Workload.uniform_random (Prng.Splitmix.of_int 1) ~n:6
       ~per_processor:4);
  check_total "permutation 5*3" 15
    (Harness.Workload.permutation (Prng.Splitmix.of_int 2) ~n:5 ~per_processor:3);
  check_total "saturating 8*2" 16
    (Harness.Workload.saturating (Prng.Splitmix.of_int 3)
       ~graph:(Topology.Builders.ring 8) ~per_processor:2);
  check_total "empty" 0 (Harness.Workload.empty ~n:9)

let test_workload_payload_collisions () =
  let distinct_count wl =
    let payloads =
      Array.to_list wl |> List.concat_map (List.map (fun (_, info) -> info))
    in
    List.length (List.sort_uniq compare payloads)
  in
  let rng () = Prng.Splitmix.of_int 13 in
  let colliding =
    Harness.Workload.uniform_random ~distinct_payloads:false (rng ()) ~n:6
      ~per_processor:3
  in
  (* distinct_payloads:false collapses every payload onto one string, so
     cross-source collisions are guaranteed (the Figure 3 stress). *)
  Alcotest.(check int) "all payloads collide" 1 (distinct_count colliding);
  let distinct =
    Harness.Workload.uniform_random ~distinct_payloads:true (rng ()) ~n:6
      ~per_processor:3
  in
  Alcotest.(check int) "payloads distinct" 18 (distinct_count distinct);
  (* saturating is uniform_random with colliding payloads by construction *)
  let sat =
    Harness.Workload.saturating (rng ()) ~graph:(Topology.Builders.ring 6)
      ~per_processor:3
  in
  Alcotest.(check int) "saturating collides" 1 (distinct_count sat)

(* ---------------- fault injection ---------------- *)

let test_fault_pristine () =
  let g = Topology.Builders.ring 5 in
  let wl = Harness.Workload.empty ~n:5 in
  let st = Harness.Fault.initial_states Harness.Fault.pristine g ~workload:wl 2 in
  Alcotest.(check bool) "no messages" true (Ssmfp.State.occupied_buffers st = []);
  Alcotest.(check bool) "no request" false st.Ssmfp.State.request

let test_fault_adversarial_domains () =
  let g = Topology.Builders.ring 5 in
  let delta = Topology.Graph.max_degree g in
  let rng = Prng.Splitmix.of_int 9 in
  let wl = Harness.Workload.empty ~n:5 in
  for p = 0 to 4 do
    let st =
      Harness.Fault.initial_states ~rng Harness.Fault.adversarial g ~workload:wl p
    in
    List.iter
      (fun (_, _, m) ->
        Alcotest.(check bool) "color in domain" true
          (m.Ssmfp.Message.color >= 0 && m.Ssmfp.Message.color <= delta);
        Alcotest.(check bool) "last in N_p u {p}" true
          (m.Ssmfp.Message.last = p
          || Topology.Graph.is_edge g p m.Ssmfp.Message.last);
        Alcotest.(check bool) "invalid ghost" false (Ssmfp.Message.is_valid m))
      (Ssmfp.State.occupied_buffers st);
    (* all 2n buffers filled under buffer_fill = 1.0 *)
    Alcotest.(check int) "full" 10 (List.length (Ssmfp.State.occupied_buffers st))
  done

let test_fault_needs_rng () =
  let g = Topology.Builders.ring 5 in
  let wl = Harness.Workload.empty ~n:5 in
  Alcotest.check_raises "rng required"
    (Invalid_argument "Fault.initial_states: spec needs a rng") (fun () ->
      ignore
        (Harness.Fault.initial_states Harness.Fault.adversarial g ~workload:wl 0))

let test_fill_component () =
  let g = Topology.Builders.ring 5 in
  let states = Array.init 5 (fun p -> Ssmfp.State.clean g p) in
  let planted = Harness.Fault.fill_component g ~dest:3 states in
  Alcotest.(check int) "2n planted" 10 planted;
  Alcotest.(check int) "counted" 10 (Harness.Fault.invalid_count states);
  (* only destination 3's buffers were touched *)
  Array.iter
    (fun st ->
      List.iter
        (fun (d, _, _) -> Alcotest.(check int) "dest 3 only" 3 d)
        (Ssmfp.State.occupied_buffers st))
    states

(* ---------------- oracle ---------------- *)

let test_oracle_exactly_once () =
  let o = Harness.Oracle.create () in
  let m = Ssmfp.Message.fresh_valid ~src:0 "m" in
  Harness.Oracle.observe_request_raised o ~round:1 ~pid:0;
  Harness.Oracle.observe o ~round:3 ~pid:0 (Ssmfp.Protocol.Generated (m, 2));
  Harness.Oracle.observe o ~round:9 ~pid:2 (Ssmfp.Protocol.Delivered m);
  Alcotest.(check int) "generated" 1 (Harness.Oracle.valid_generated o);
  Alcotest.(check int) "delivered" 1 (Harness.Oracle.valid_delivered o);
  Alcotest.(check (list (pair int int))) "no dup" []
    (Harness.Oracle.duplicated_ghosts o);
  Alcotest.(check (list int)) "no loss" [] (Harness.Oracle.lost_ghosts o);
  Alcotest.(check (list (float 1e-9))) "latency 6" [ 6. ]
    (Harness.Oracle.latencies o);
  Alcotest.(check (list (float 1e-9))) "delay 2" [ 2. ] (Harness.Oracle.delays o);
  let v = Harness.Oracle.check_sp o ~expected_valid:1 ~n:4 ~at_quiescence:true in
  Alcotest.(check bool) "verdict ok" true v.Harness.Oracle.ok

let test_oracle_detects_duplicate () =
  let o = Harness.Oracle.create () in
  let m = Ssmfp.Message.fresh_valid ~src:0 "m" in
  Harness.Oracle.observe o ~round:1 ~pid:0 (Ssmfp.Protocol.Generated (m, 1));
  Harness.Oracle.observe o ~round:2 ~pid:1 (Ssmfp.Protocol.Delivered m);
  Harness.Oracle.observe o ~round:3 ~pid:1 (Ssmfp.Protocol.Delivered m);
  Alcotest.(check int) "dup listed" 1
    (List.length (Harness.Oracle.duplicated_ghosts o));
  let v = Harness.Oracle.check_sp o ~expected_valid:1 ~n:4 ~at_quiescence:true in
  Alcotest.(check bool) "verdict fails" false v.Harness.Oracle.ok

let test_oracle_detects_loss () =
  let o = Harness.Oracle.create () in
  let m = Ssmfp.Message.fresh_valid ~src:0 "m" in
  Harness.Oracle.observe o ~round:1 ~pid:0 (Ssmfp.Protocol.Generated (m, 1));
  Alcotest.(check int) "lost listed" 1 (List.length (Harness.Oracle.lost_ghosts o));
  let v = Harness.Oracle.check_sp o ~expected_valid:1 ~n:4 ~at_quiescence:true in
  Alcotest.(check bool) "fails at quiescence" false v.Harness.Oracle.ok;
  let v' = Harness.Oracle.check_sp o ~expected_valid:1 ~n:4 ~at_quiescence:false in
  Alcotest.(check bool) "in-flight is fine mid-run" true v'.Harness.Oracle.ok

let test_oracle_invalid_bound () =
  let o = Harness.Oracle.create () in
  let inv () = Ssmfp.Message.fresh_invalid ~at:0 ~last:0 ~color:0 "x" in
  for _ = 1 to 5 do
    Harness.Oracle.observe o ~round:1 ~pid:3 (Ssmfp.Protocol.Delivered (inv ()))
  done;
  Alcotest.(check int) "counted" 5 (Harness.Oracle.invalid_delivered_total o);
  (* with n = 2 the bound 2n = 4 is violated *)
  let v = Harness.Oracle.check_sp o ~expected_valid:0 ~n:2 ~at_quiescence:true in
  Alcotest.(check bool) "bound violation flagged" false v.Harness.Oracle.ok;
  let v' = Harness.Oracle.check_sp o ~expected_valid:0 ~n:3 ~at_quiescence:true in
  Alcotest.(check bool) "within 2n ok" true v'.Harness.Oracle.ok

let test_responder_round_trip () =
  (* request/response over SSMFP: replies count towards SP *)
  let g = Topology.Builders.ring 5 in
  let wl = Harness.Workload.empty ~n:5 in
  wl.(2) <- [ (0, "ping") ];
  wl.(3) <- [ (0, "ping") ];
  let responder pid info =
    if pid = 0 && info = "ping" then [ (2, "pong") ] else []
  in
  let cfg =
    Harness.Runner.config ~daemon:Harness.Runner.Round_robin ~seed:4 ~responder
      g wl
  in
  let r = Harness.Runner.run cfg in
  Alcotest.(check int) "2 pings + 2 pongs" 4 r.Harness.Runner.submitted;
  Alcotest.(check int) "all delivered" 4
    (Harness.Oracle.valid_delivered r.Harness.Runner.oracle);
  Alcotest.(check bool) "SP over replies too" true
    r.Harness.Runner.verdict.Harness.Oracle.ok

let test_responder_chain_terminates () =
  (* a bounded responder chain: ttl counts down in the payload *)
  let g = Topology.Builders.path 3 in
  let wl = Harness.Workload.empty ~n:3 in
  wl.(0) <- [ (2, "hop:3") ];
  let responder _pid info =
    match String.split_on_char ':' info with
    | [ "hop"; ttl ] ->
        let ttl = int_of_string ttl in
        if ttl > 0 then
          let next = if ttl mod 2 = 0 then 2 else 0 in
          [ (next, Printf.sprintf "hop:%d" (ttl - 1)) ]
        else []
    | _ -> []
  in
  let cfg =
    Harness.Runner.config ~daemon:Harness.Runner.Synchronous ~seed:5 ~responder
      g wl
  in
  let r = Harness.Runner.run cfg in
  Alcotest.(check bool) "quiescent" true (r.Harness.Runner.outcome = `Quiescent);
  Alcotest.(check int) "chain of 4" 4 r.Harness.Runner.submitted;
  Alcotest.(check bool) "SP" true r.Harness.Runner.verdict.Harness.Oracle.ok

let test_oracle_deliveries_by_round () =
  let o = Harness.Oracle.create () in
  let inv () = Ssmfp.Message.fresh_invalid ~at:0 ~last:0 ~color:0 "x" in
  Harness.Oracle.observe o ~round:2 ~pid:1 (Ssmfp.Protocol.Delivered (inv ()));
  Harness.Oracle.observe o ~round:5 ~pid:1 (Ssmfp.Protocol.Delivered (inv ()));
  Alcotest.(check (list (pair int int))) "cumulative" [ (2, 1); (5, 2) ]
    (Harness.Oracle.deliveries_by_round o)

let test_oracle_duplicate_vs_invalid () =
  (* Redundant deliveries of a valid message and deliveries of invalid
     ones are different failures with different budgets: the former must
     never inflate Proposition 4's 2n count, and vice versa. *)
  let o = Harness.Oracle.create () in
  let m = Ssmfp.Message.fresh_valid ~src:0 "m" in
  Harness.Oracle.observe o ~round:1 ~pid:0 (Ssmfp.Protocol.Generated (m, 1));
  Harness.Oracle.observe o ~round:2 ~pid:1 (Ssmfp.Protocol.Delivered m);
  Harness.Oracle.observe o ~round:3 ~pid:1 (Ssmfp.Protocol.Delivered m);
  Harness.Oracle.observe o ~round:4 ~pid:1 (Ssmfp.Protocol.Delivered m);
  Alcotest.(check int) "two redundant copies" 2
    (Harness.Oracle.duplicate_delivered_total o);
  Alcotest.(check int) "no invalid yet" 0
    (Harness.Oracle.invalid_delivered_total o);
  let inv () = Ssmfp.Message.fresh_invalid ~at:2 ~last:2 ~color:0 "x" in
  Harness.Oracle.observe o ~round:5 ~pid:2 (Ssmfp.Protocol.Delivered (inv ()));
  Harness.Oracle.observe o ~round:7 ~pid:2 (Ssmfp.Protocol.Delivered (inv ()));
  Alcotest.(check int) "invalid counted apart" 2
    (Harness.Oracle.invalid_delivered_total o);
  Alcotest.(check int) "duplicates unchanged" 2
    (Harness.Oracle.duplicate_delivered_total o);
  Alcotest.(check (list (pair int int))) "chronological invalid log"
    [ (5, 2); (7, 2) ]
    (Harness.Oracle.invalid_delivery_log o)

let prop_random_spec_in_domain =
  QCheck.Test.make
    ~name:"random_spec corruption stays inside variable domains" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Topology.Builders.ring 6 in
      let n = Topology.Graph.n g in
      let delta = Topology.Graph.max_degree g in
      let rng = Prng.Splitmix.of_int seed in
      let spec = Harness.Fault.random_spec rng in
      let wl = Harness.Workload.empty ~n in
      List.for_all
        (fun p ->
          let st = Harness.Fault.initial_states ~rng spec g ~workload:wl p in
          let allowed = p :: Topology.Graph.neighbors g p in
          List.for_all
            (fun (_, _, m) ->
              m.Ssmfp.Message.color >= 0
              && m.Ssmfp.Message.color <= delta
              && List.mem m.Ssmfp.Message.last allowed)
            (Ssmfp.State.occupied_buffers st)
          && Array.for_all
               (fun (e : Routing.Selfstab.entry) ->
                 e.Routing.Selfstab.dist >= 0
                 && e.Routing.Selfstab.dist <= n
                 && List.mem e.Routing.Selfstab.via allowed)
               st.Ssmfp.State.routing)
        (List.init n Fun.id))

let test_daemon_kind_strings () =
  List.iter
    (fun k ->
      match
        Harness.Runner.daemon_kind_of_string (Harness.Runner.daemon_kind_to_string k)
      with
      | Ok k' -> Alcotest.(check bool) "roundtrip" true (k = k')
      | Error e -> Alcotest.fail e)
    Harness.Runner.all_daemon_kinds;
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Harness.Runner.daemon_kind_of_string "bogus"))

let () =
  Alcotest.run "harness"
    [
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentiles unsorted" `Quick
            test_percentiles_unsorted;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary percentiles agree" `Quick
            test_summary_percentiles_agree;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
        ] );
      ( "workload",
        [
          Alcotest.test_case "single" `Quick test_workload_single;
          Alcotest.test_case "uniform" `Quick test_workload_uniform;
          Alcotest.test_case "all-to-one" `Quick test_workload_all_to_one;
          Alcotest.test_case "one-to-all" `Quick test_workload_one_to_all;
          Alcotest.test_case "permutation" `Quick test_workload_permutation;
          Alcotest.test_case "neighbors" `Quick test_workload_neighbors;
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "totals" `Quick test_workload_totals;
          Alcotest.test_case "payload collisions" `Quick
            test_workload_payload_collisions;
        ] );
      ( "fault",
        [
          Alcotest.test_case "pristine" `Quick test_fault_pristine;
          Alcotest.test_case "adversarial domains" `Quick
            test_fault_adversarial_domains;
          Alcotest.test_case "needs rng" `Quick test_fault_needs_rng;
          Alcotest.test_case "fill component" `Quick test_fill_component;
          QCheck_alcotest.to_alcotest prop_random_spec_in_domain;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exactly once" `Quick test_oracle_exactly_once;
          Alcotest.test_case "detects duplicate" `Quick test_oracle_detects_duplicate;
          Alcotest.test_case "detects loss" `Quick test_oracle_detects_loss;
          Alcotest.test_case "invalid bound" `Quick test_oracle_invalid_bound;
          Alcotest.test_case "duplicate vs invalid" `Quick
            test_oracle_duplicate_vs_invalid;
          Alcotest.test_case "daemon strings" `Quick test_daemon_kind_strings;
          Alcotest.test_case "responder round trip" `Quick test_responder_round_trip;
          Alcotest.test_case "responder chain" `Quick test_responder_chain_terminates;
          Alcotest.test_case "deliveries by round" `Quick
            test_oracle_deliveries_by_round;
        ] );
    ]
