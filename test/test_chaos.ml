(* Tests for the chaos layer: the schedule grammar, byte-identity of the
   zero-fault chaos runner with the plain runner (in both engine modes),
   burst runs and their recovery oracle, the amortized Proposition-4
   budget, and the chaos axis of the campaign. *)

let sched_exn s =
  match Chaos.Schedule.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.fail (s ^ ": " ^ e)

(* ---------------- schedule grammar ---------------- *)

let test_schedule_none () =
  Alcotest.(check string) "to_string" "none"
    (Chaos.Schedule.to_string Chaos.Schedule.none);
  Alcotest.(check bool) "of_string none" true
    (Chaos.Schedule.is_none (sched_exn "none"));
  Alcotest.(check bool) "a burst is not none" false
    (Chaos.Schedule.is_none (sched_exn "4:b:1"))

let test_schedule_normalizes () =
  (* domains in any order with duplicates → canonical rbqfc order *)
  Alcotest.(check string) "domain order" "40:rbqf:all"
    (Chaos.Schedule.to_string (sched_exn "40:fbrqb:all"));
  (* bursts come back sorted by round *)
  Alcotest.(check string) "burst order" "40:rb:2+90:b:1@lossy"
    (Chaos.Schedule.to_string (sched_exn "90:b:1+40:rb:2@lossy"))

let test_schedule_roundtrip () =
  List.iter
    (fun s ->
      let once = Chaos.Schedule.to_string (sched_exn s) in
      let twice = Chaos.Schedule.to_string (sched_exn once) in
      Alcotest.(check string) ("fixpoint " ^ s) once twice)
    [ "none"; "8:rb:2"; "8:rbqf:all+20:c:1@lossy"; "12:bq:3@flaky"; "5:c:all" ]

let test_schedule_rejects () =
  List.iter
    (fun s ->
      match Chaos.Schedule.of_string s with
      | Ok _ -> Alcotest.fail ("accepted " ^ s)
      | Error _ -> ())
    [ ""; "40"; "40:rb"; "40:x:all"; "foo:rb:1"; "40:rb:zero"; "40:rb:2@wet" ]

let test_channel_knobs () =
  let open Chaos.Schedule in
  Alcotest.(check bool) "reliable is all-zero" true
    ((channel_knobs Reliable).loss = 0.
    && (channel_knobs Reliable).duplication = 0.
    && (channel_knobs Reliable).reorder = 0.);
  Alcotest.(check bool) "flaky is worse than lossy" true
    ((channel_knobs Flaky).loss > (channel_knobs Lossy).loss)

(* ---------------- zero-fault byte identity ---------------- *)

let net_to_string (net : Ssmfp.State.t Sim.Engine.net) =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun p s ->
      Buffer.add_string b
        (Printf.sprintf "p%d: %s\n" p (Format.asprintf "%a" Ssmfp.State.pp s)))
    net.Sim.Engine.states;
  Buffer.contents b

let journal_of obs =
  match Obs.Sink.journal obs with
  | Some j -> Obs.Journal.to_jsonl j
  | None -> Alcotest.fail "sink has no journal"

(* A zero-burst schedule must leave the plain code path untouched: same
   stats, same verdict, same oracle series, same final configuration and
   the same event journal, byte for byte. *)
let check_zero_fault_identity mode =
  let g = Topology.Builders.ring 6 in
  let cfg () =
    Ssmfp.Message.reset_ghost_counter ();
    let wl =
      Harness.Workload.uniform_random
        (Prng.Splitmix.of_int 42)
        ~n:6 ~per_processor:2
    in
    Harness.Runner.config ~spec:Harness.Fault.adversarial
      ~daemon:Harness.Runner.Distributed_random ~seed:5 ~mode g wl
  in
  let obs_plain = Obs.Sink.create ~with_journal:true () in
  let plain = Harness.Runner.run ~obs:obs_plain (cfg ()) in
  let obs_chaos = Obs.Sink.create ~with_journal:true () in
  let chaos =
    Chaos.Runner.run ~obs:obs_chaos ~schedule:Chaos.Schedule.none (cfg ())
  in
  let r = chaos.Chaos.Runner.run in
  Alcotest.(check bool) "stats" true
    (plain.Harness.Runner.stats = r.Harness.Runner.stats);
  Alcotest.(check bool) "verdict" true
    (plain.Harness.Runner.verdict = r.Harness.Runner.verdict);
  Alcotest.(check bool) "sp verdict unchanged" true
    (chaos.Chaos.Runner.sp_verdict = r.Harness.Runner.verdict);
  let o1 = plain.Harness.Runner.oracle and o2 = r.Harness.Runner.oracle in
  Alcotest.(check (list (float 0.))) "latencies"
    (Harness.Oracle.latencies o1) (Harness.Oracle.latencies o2);
  Alcotest.(check (list (float 0.))) "delays" (Harness.Oracle.delays o1)
    (Harness.Oracle.delays o2);
  Alcotest.(check bool) "ghost views" true
    (Harness.Oracle.ghost_views o1 = Harness.Oracle.ghost_views o2);
  Alcotest.(check string) "final configuration"
    (net_to_string plain.Harness.Runner.final_net)
    (net_to_string r.Harness.Runner.final_net);
  Alcotest.(check string) "event journal" (journal_of obs_plain)
    (journal_of obs_chaos);
  Alcotest.(check bool) "no bursts fired" true (chaos.Chaos.Runner.fired = [])

let test_zero_fault_full_sweep () = check_zero_fault_identity Sim.Engine.Full_sweep
let test_zero_fault_incremental () = check_zero_fault_identity Sim.Engine.Incremental

(* ---------------- burst runs ---------------- *)

let burst_cfg ?(daemon = Harness.Runner.Synchronous) ~seed g per_processor =
  Ssmfp.Message.reset_ghost_counter ();
  let n = Topology.Graph.n g in
  let wl =
    Harness.Workload.uniform_random
      (Prng.Splitmix.of_int (seed + 100))
      ~n ~per_processor
  in
  Harness.Runner.config ~spec:Harness.Fault.pristine ~daemon ~seed g wl

let test_burst_recovers () =
  let g = Topology.Builders.ring 6 in
  let o =
    Chaos.Runner.run ~aftermath:4 ~schedule:(sched_exn "5:rbqf:all")
      (burst_cfg ~seed:11 g 2)
  in
  let rep = o.Chaos.Runner.report in
  Alcotest.(check int) "one burst fired" 1 (List.length o.Chaos.Runner.fired);
  Alcotest.(check int) "aftermath submitted" 4 o.Chaos.Runner.aftermath_submitted;
  Alcotest.(check bool) "quiescent again" true rep.Chaos.Recovery.quiescent;
  Alcotest.(check bool) "recovery oracle ok" true rep.Chaos.Recovery.ok;
  Alcotest.(check (list string)) "no violations" [] rep.Chaos.Recovery.violations;
  Alcotest.(check bool) "recovery time measured" true
    (rep.Chaos.Recovery.recovery_rounds >= 0);
  Alcotest.(check bool) "post-burst SP non-vacuous" true
    (rep.Chaos.Recovery.post_generated > 0);
  Alcotest.(check int) "post-burst once and only once"
    rep.Chaos.Recovery.post_generated rep.Chaos.Recovery.post_delivered_once

let test_burst_past_quiescence () =
  (* A burst scheduled far past quiescence still fires (at the quiescent
     round) — injection re-enables the system and it must recover again. *)
  let g = Topology.Builders.path 4 in
  let o =
    Chaos.Runner.run ~aftermath:2 ~schedule:(sched_exn "999999:b:2")
      (burst_cfg ~seed:3 g 1)
  in
  Alcotest.(check int) "burst fired" 1 (List.length o.Chaos.Runner.fired);
  Alcotest.(check bool) "recovered" true o.Chaos.Runner.report.Chaos.Recovery.ok

let test_deterministic_replay () =
  (* Same config + schedule → identical outcome, including firing rounds
     and the recovery report. *)
  let g = Topology.Builders.ring 5 in
  let once () =
    let o =
      Chaos.Runner.run ~aftermath:3 ~schedule:(sched_exn "6:rb:2+14:c:1")
        (burst_cfg ~daemon:Harness.Runner.Distributed_random ~seed:8 g 2)
    in
    (o.Chaos.Runner.fired, o.Chaos.Runner.report)
  in
  let f1, r1 = once () in
  let f2, r2 = once () in
  Alcotest.(check bool) "fired identical" true (f1 = f2);
  Alcotest.(check bool) "report identical" true (r1 = r2)

(* ---------------- corruption stays in-domain ---------------- *)

let domain_ok g p (s : Ssmfp.State.t) =
  let n = Topology.Graph.n g in
  let delta = Topology.Graph.max_degree g in
  let allowed = p :: Topology.Graph.neighbors g p in
  let msg_ok (m : Ssmfp.Message.t) =
    m.Ssmfp.Message.color >= 0 && m.color <= delta && List.mem m.last allowed
  in
  let slot_ok d =
    let sl = Ssmfp.State.slot s d in
    (match sl.Ssmfp.State.buf_r with Some m -> msg_ok m | None -> true)
    && (match sl.Ssmfp.State.buf_e with Some m -> msg_ok m | None -> true)
  in
  let entry_ok (e : Routing.Selfstab.entry) =
    e.Routing.Selfstab.dist >= 0 && e.dist <= n && List.mem e.via allowed
  in
  Array.for_all entry_ok s.Ssmfp.State.routing
  && List.for_all slot_ok (List.init n Fun.id)

let prop_burst_in_domain =
  QCheck.Test.make ~name:"mid-run corruption stays inside variable domains"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Topology.Builders.ring 6 in
      let rng = Prng.Splitmix.of_int seed in
      let p = seed mod 6 in
      let s =
        Chaos.Inject.corrupt_state rng g ~p
          ~domains:Chaos.Schedule.all_domains
          (Ssmfp.State.clean g p)
      in
      domain_ok g p s)

let test_pick_victims () =
  let g = Topology.Builders.ring 6 in
  let rng = Prng.Splitmix.of_int 17 in
  let all = Chaos.Inject.pick_victims rng g Chaos.Schedule.All in
  Alcotest.(check (list int)) "all victims" [ 0; 1; 2; 3; 4; 5 ] all;
  let two = Chaos.Inject.pick_victims rng g (Chaos.Schedule.Count 2) in
  Alcotest.(check int) "two victims" 2 (List.length two);
  Alcotest.(check bool) "distinct, ascending" true
    (List.sort_uniq compare two = two);
  let clamped = Chaos.Inject.pick_victims rng g (Chaos.Schedule.Count 99) in
  Alcotest.(check int) "clamped to n" 6 (List.length clamped)

(* ---------------- the recovery oracle ---------------- *)

let deliver_invalid oracle ~round ~dest =
  let m = Ssmfp.Message.fresh_invalid ~at:dest ~last:dest ~color:0 "junk" in
  Harness.Oracle.observe oracle ~round ~pid:dest (Ssmfp.Protocol.Delivered m)

let analyze oracle =
  Chaos.Recovery.analyze ~oracle ~burst_rounds:[ 10 ] ~n:2 ~delta:2 ~diameter:1
    ~final_round:20 ~quiescent:true ~routing_settled_round:0 ()

let test_recovery_budget_amortized () =
  (* n = 2, so each fault event may seed 2n = 4 invalid deliveries per
     destination. The purge of the initial configuration's forgeries
     crosses the burst boundary here: window 1 alone holds 6 (> 4), but
     the cumulative count through window 1 is 8 ≤ 2·4 — amortized
     Proposition 4 accepts. *)
  Ssmfp.Message.reset_ghost_counter ();
  let oracle = Harness.Oracle.create () in
  for r = 1 to 2 do
    deliver_invalid oracle ~round:r ~dest:0
  done;
  for r = 11 to 16 do
    deliver_invalid oracle ~round:r ~dest:0
  done;
  let rep = analyze oracle in
  Alcotest.(check int) "worst window sees the crossing" 6
    rep.Chaos.Recovery.invalid_worst_window;
  Alcotest.(check bool) "cumulative budget holds" true
    rep.Chaos.Recovery.invalid_budget_ok;
  Alcotest.(check bool) "report ok" true rep.Chaos.Recovery.ok;
  Alcotest.(check int) "re-legitimacy at last invalid" 16
    rep.Chaos.Recovery.relegitimacy_round

let test_recovery_budget_violated () =
  (* 3 + 7 = 10 > 2·4: no amortization saves this. *)
  Ssmfp.Message.reset_ghost_counter ();
  let oracle = Harness.Oracle.create () in
  for r = 1 to 3 do
    deliver_invalid oracle ~round:r ~dest:1
  done;
  for r = 11 to 17 do
    deliver_invalid oracle ~round:r ~dest:1
  done;
  let rep = analyze oracle in
  Alcotest.(check bool) "budget violated" false
    rep.Chaos.Recovery.invalid_budget_ok;
  Alcotest.(check bool) "report not ok" false rep.Chaos.Recovery.ok;
  Alcotest.(check bool) "violation named" true
    (rep.Chaos.Recovery.violations <> [])

let test_recovery_post_sp () =
  (* A ghost generated strictly after the last burst must be delivered
     exactly once; one generated before is outside the post-burst check. *)
  Ssmfp.Message.reset_ghost_counter ();
  let oracle = Harness.Oracle.create () in
  let early = Ssmfp.Message.fresh_valid ~src:0 "pre" in
  Harness.Oracle.observe oracle ~round:4 ~pid:0
    (Ssmfp.Protocol.Generated (early, 1));
  let late = Ssmfp.Message.fresh_valid ~src:1 "post" in
  Harness.Oracle.observe oracle ~round:12 ~pid:1
    (Ssmfp.Protocol.Generated (late, 0));
  Harness.Oracle.observe oracle ~round:15 ~pid:0
    (Ssmfp.Protocol.Delivered late);
  let rep = analyze oracle in
  Alcotest.(check int) "only the late ghost counts" 1
    rep.Chaos.Recovery.post_generated;
  Alcotest.(check int) "delivered once" 1 rep.Chaos.Recovery.post_delivered_once;
  Alcotest.(check int) "none duplicated" 0 rep.Chaos.Recovery.post_duplicated;
  (* the early ghost is lost, but it predates the last burst: the
     whole-run verdict would flag it, the recovery oracle must not *)
  Alcotest.(check bool) "ok despite pre-burst loss" true
    rep.Chaos.Recovery.ok

(* ---------------- the verdict rule ---------------- *)

let report ok =
  {
    Chaos.Recovery.burst_rounds = [];
    relegitimacy_round = 0;
    post_generated = 0;
    post_delivered_once = 0;
    post_duplicated = 0;
    post_lost = 0;
    invalid_total = 0;
    invalid_worst_window = 0;
    invalid_budget = 4;
    invalid_budget_ok = true;
    recovery_rounds = 0;
    envelope_rounds = 1;
    within_envelope = true;
    quiescent = true;
    ok;
    violations = (if ok then [] else [ "synthetic" ]);
  }

let verdict ok =
  { Harness.Oracle.ok; violations = (if ok then [] else [ "sp" ]) }

let test_chaos_verdict_rule () =
  let lossy_only =
    { Chaos.Schedule.none with Chaos.Schedule.channel = Chaos.Schedule.Lossy }
  in
  let bursty = sched_exn "5:rb:1" in
  (* none: whole-run SP alone, no report in the artifact *)
  let ok, _, rep =
    Chaos.Recovery.verdict ~schedule:Chaos.Schedule.none
      ~verdict:(verdict false) ~report:(report true)
  in
  Alcotest.(check bool) "none follows SP" false ok;
  Alcotest.(check bool) "none drops report" true (rep = None);
  (* channel-only: both checks must hold *)
  let ok, _, _ =
    Chaos.Recovery.verdict ~schedule:lossy_only ~verdict:(verdict true)
      ~report:(report false)
  in
  Alcotest.(check bool) "channel-only needs recovery ok" false ok;
  let ok, _, rep =
    Chaos.Recovery.verdict ~schedule:lossy_only ~verdict:(verdict true)
      ~report:(report true)
  in
  Alcotest.(check bool) "channel-only both ok" true ok;
  Alcotest.(check bool) "channel-only keeps report" true (rep <> None);
  (* bursts: the recovery oracle owns the verdict *)
  let ok, _, _ =
    Chaos.Recovery.verdict ~schedule:bursty ~verdict:(verdict false)
      ~report:(report true)
  in
  Alcotest.(check bool) "bursts forgive whole-run SP" true ok;
  let ok, _, _ =
    Chaos.Recovery.verdict ~schedule:bursty ~verdict:(verdict true)
      ~report:(report false)
  in
  Alcotest.(check bool) "bursts demand recovery" false ok

(* ---------------- mp chaos runs ---------------- *)

let test_mp_chaos_run () =
  let g = Topology.Builders.ring 5 in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 4) ~n:5
      ~per_processor:1
  in
  Ssmfp.Message.reset_ghost_counter ();
  let o =
    Chaos.Mp_run.run ~spec:Harness.Fault.pristine ~seed:2 ~aftermath:2
      ~schedule:(sched_exn "4:rb:2@lossy") g wl
  in
  Alcotest.(check bool) "drained" true (o.Chaos.Mp_run.mp_outcome = `All_done);
  Alcotest.(check int) "burst fired" 1 (List.length o.Chaos.Mp_run.fired);
  Alcotest.(check int) "aftermath" 2 o.Chaos.Mp_run.aftermath_submitted;
  Alcotest.(check bool) "recovery ok" true
    o.Chaos.Mp_run.report.Chaos.Recovery.ok;
  Alcotest.(check bool) "lossy channel dropped something" true
    (o.Chaos.Mp_run.channel.Mp.Ssmfp_mp.lost >= 0)

(* The mp verdict is the chaos rule plus the cut clause: with the
   snapshot layer on, a disagreeing cut verdict or an online cut-oracle
   flag clears the verdict and is named among its violations. *)
let test_mp_verdict_cut_clause () =
  let g = Topology.Builders.ring 5 in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 4) ~n:5
      ~per_processor:1
  in
  Ssmfp.Message.reset_ghost_counter ();
  let o =
    Chaos.Mp_run.run ~spec:Harness.Fault.pristine ~seed:2 ~aftermath:2
      ~snapshot_every:60 ~schedule:(sched_exn "4:rb:2@lossy") g wl
  in
  let s = Option.get o.Chaos.Mp_run.snapshot in
  let rule =
    Chaos.Recovery.verdict ~schedule:o.Chaos.Mp_run.schedule
      ~verdict:o.Chaos.Mp_run.verdict ~report:o.Chaos.Mp_run.report
  in
  let _, rule_violations, _ = rule in
  let with_snapshot snapshot =
    Chaos.Mp_run.verdict { o with Chaos.Mp_run.snapshot }
  in
  Alcotest.(check bool) "cuts agree online" true
    (s.Chaos.Mp_run.cut_agrees && s.Chaos.Mp_run.online_violations = []);
  Alcotest.(check bool) "agreeing cuts keep the rule" true
    (with_snapshot (Some s) = rule);
  Alcotest.(check bool) "no layer: the rule alone" true
    (with_snapshot None = rule);
  let ok, violations, _ =
    with_snapshot (Some { s with Chaos.Mp_run.cut_agrees = false })
  in
  Alcotest.(check bool) "disagreeing cut fails" false ok;
  Alcotest.(check (list string)) "disagreement named"
    (rule_violations @ [ "cut-oracle verdict disagrees with the omniscient one" ])
    violations;
  let ok, violations, _ =
    with_snapshot (Some { s with Chaos.Mp_run.online_violations = [ "flag" ] })
  in
  Alcotest.(check bool) "online flag fails" false ok;
  Alcotest.(check (list string)) "flag appended" (rule_violations @ [ "flag" ])
    violations

(* ---------------- the campaign chaos axis ---------------- *)

let mini_grid () =
  {
    Campaign.Spec.topologies = [ Campaign.Spec.topology_exn "ring:5" ];
    corruptions = [ Campaign.Spec.Adversarial ];
    daemons = [ Harness.Runner.Synchronous ];
    workloads = [ Campaign.Spec.Uniform 1 ];
    models = [ Campaign.Spec.State_model; Campaign.Spec.Mp_model ];
    chaos = [ Chaos.Schedule.none; Campaign.Spec.chaos_exn "6:rb:2" ];
    snapshots = [ 0; 60 ];
    seeds = [ 1 ];
    max_steps = 500_000;
  }

let test_campaign_chaos_axis () =
  let scenarios =
    Campaign.Spec.expand ~filter:Campaign.Spec.chaos_filter (mini_grid ())
  in
  (* state keeps only snap-off (2); mp carries both intervals (4) *)
  Alcotest.(check int) "models x schedules x snapshots" 6 (List.length scenarios);
  Alcotest.(check int) "snapshot-on scenarios are mp-only" 2
    (List.length
       (List.filter
          (fun sc ->
            sc.Campaign.Spec.snapshot > 0
            && sc.Campaign.Spec.model = Campaign.Spec.Mp_model)
          scenarios));
  Alcotest.(check bool) "snap ids carry the segment" true
    (List.for_all
       (fun sc ->
         let has_seg =
           let id = sc.Campaign.Spec.id in
           let rec find i =
             i + 5 <= String.length id
             && (String.sub id i 5 = "/snap" || find (i + 1))
           in
           find 0
         in
         has_seg = (sc.Campaign.Spec.snapshot > 0))
       scenarios);
  List.iter
    (fun sc ->
      Alcotest.(check bool)
        ("id has model+chaos: " ^ sc.Campaign.Spec.id)
        true
        (String.length sc.Campaign.Spec.id > 0
        && (String.index_opt sc.Campaign.Spec.id '/' <> None)))
    scenarios;
  let o1 = Campaign.Pool.run ~workers:1 scenarios in
  let o2 = Campaign.Pool.run ~workers:2 scenarios in
  List.iter
    (fun (o : Campaign.Pool.outcome) ->
      match o.Campaign.Pool.status with
      | Campaign.Pool.Done s ->
          Alcotest.(check bool)
            (o.Campaign.Pool.scenario.Campaign.Spec.id ^ " ok")
            true s.Campaign.Pool.verdict_ok;
          let bursty = o.scenario.Campaign.Spec.chaos.Chaos.Schedule.bursts <> [] in
          Alcotest.(check bool)
            (o.scenario.Campaign.Spec.id ^ " recovery presence")
            bursty
            (s.Campaign.Pool.recovery <> None)
      | Campaign.Pool.Crashed c -> Alcotest.fail c.Campaign.Pool.crash_msg)
    o1;
  (* worker-count independence, artifact included *)
  List.iter2
    (fun (a : Campaign.Pool.outcome) (b : Campaign.Pool.outcome) ->
      Alcotest.(check bool)
        (a.Campaign.Pool.scenario.Campaign.Spec.id ^ " deterministic")
        true
        (a.Campaign.Pool.status = b.Campaign.Pool.status))
    o1 o2;
  let j1 = Obs.Json.to_string (Campaign.Aggregate.to_json o1) in
  let j2 = Obs.Json.to_string (Campaign.Aggregate.to_json o2) in
  Alcotest.(check string) "aggregate byte-identical across workers" j1 j2;
  (match Obs.Json.of_string j1 with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let member k = Obs.Json.member k j in
      (match member "schema" with
      | Some s ->
          Alcotest.(check (option string))
            "schema v2"
            (Some Campaign.Aggregate.schema)
            (Obs.Json.string_value s)
      | None -> Alcotest.fail "no schema field");
      match Campaign.Aggregate.failed_scenarios j with
      | Ok [] -> ()
      | Ok l -> Alcotest.fail ("failed scenarios: " ^ String.concat ", " l)
      | Error e -> Alcotest.fail e)

let test_campaign_crash_backtrace () =
  (* A crashing scenario must land in the artifact as a crash with its
     message, never take the pool down. *)
  let sc =
    match
      Campaign.Spec.expand ~filter:Campaign.Spec.chaos_filter (mini_grid ())
    with
    | sc :: _ -> { sc with Campaign.Spec.max_steps = 0 }
    | [] -> Alcotest.fail "empty grid"
  in
  match (Campaign.Pool.run_one sc).Campaign.Pool.status with
  | Campaign.Pool.Done s ->
      (* a zero budget may legally end as Max_steps instead of raising *)
      Alcotest.(check bool) "budget run not ok" false s.Campaign.Pool.verdict_ok
  | Campaign.Pool.Crashed c ->
      Alcotest.(check bool) "message kept" true (c.Campaign.Pool.crash_msg <> "")

let () =
  Alcotest.run "chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "none" `Quick test_schedule_none;
          Alcotest.test_case "normalizes" `Quick test_schedule_normalizes;
          Alcotest.test_case "round-trip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "rejects" `Quick test_schedule_rejects;
          Alcotest.test_case "channel knobs" `Quick test_channel_knobs;
        ] );
      ( "zero-fault identity",
        [
          Alcotest.test_case "full sweep" `Quick test_zero_fault_full_sweep;
          Alcotest.test_case "incremental" `Quick test_zero_fault_incremental;
        ] );
      ( "bursts",
        [
          Alcotest.test_case "recovers" `Quick test_burst_recovers;
          Alcotest.test_case "past quiescence" `Quick test_burst_past_quiescence;
          Alcotest.test_case "deterministic" `Quick test_deterministic_replay;
          Alcotest.test_case "pick victims" `Quick test_pick_victims;
          QCheck_alcotest.to_alcotest prop_burst_in_domain;
        ] );
      ( "recovery oracle",
        [
          Alcotest.test_case "amortized budget" `Quick
            test_recovery_budget_amortized;
          Alcotest.test_case "budget violation" `Quick
            test_recovery_budget_violated;
          Alcotest.test_case "post-burst SP" `Quick test_recovery_post_sp;
          Alcotest.test_case "verdict rule" `Quick test_chaos_verdict_rule;
        ] );
      ( "mp",
        [
          Alcotest.test_case "burst + lossy channel" `Quick test_mp_chaos_run;
          Alcotest.test_case "verdict cut clause" `Quick
            test_mp_verdict_cut_clause;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "chaos axis" `Quick test_campaign_chaos_axis;
          Alcotest.test_case "crash capture" `Quick test_campaign_crash_backtrace;
        ] );
    ]
