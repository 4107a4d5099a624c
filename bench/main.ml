(* Benchmark harness: regenerates every table (E1-E12) and figure (F1-F4)
   of EXPERIMENTS.md, then runs Bechamel micro-benchmarks of the hot
   paths. `dune exec bench/main.exe` runs everything; pass experiment ids
   (e.g. `e1 e7 figures micro`) to run a subset. The exit status is 1
   when any entry written to BENCH_<n>.json failed its gate. *)

(* One timed experiment outcome, accumulated into BENCH_<n>.json so the
   perf trajectory of the suite finally survives across runs. *)
type timing = {
  id : string;
  title : string;
  seconds : float;
  ok : bool;
  notes : string list;
}

let bench_schema = "ssmfp.bench/2"

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ | (exception _) -> "unknown")

(* Each run gets the next free BENCH_<n>.json, so past results are never
   clobbered and the sequence accumulates across PRs. *)
let next_bench_path () =
  let prefix = "BENCH_" and suffix = ".json" in
  let plen = String.length prefix and slen = String.length suffix in
  let files = try Sys.readdir "." with Sys_error _ -> [||] in
  let best =
    Array.fold_left
      (fun acc f ->
        if
          String.length f > plen + slen
          && String.sub f 0 plen = prefix
          && Filename.check_suffix f suffix
        then
          match int_of_string_opt (String.sub f plen (String.length f - plen - slen)) with
          | Some n -> max acc n
          | None -> acc
        else acc)
      0 files
  in
  Printf.sprintf "BENCH_%d.json" (best + 1)

let run_tables filter =
  List.filter_map
    (fun (name, experiment) ->
      let id =
        String.lowercase_ascii (List.hd (String.split_on_char ' ' name))
      in
      if filter = [] || List.mem id filter then begin
        let t0 = Unix.gettimeofday () in
        let outcome = experiment () in
        let seconds = Unix.gettimeofday () -. t0 in
        Harness.Report.section name;
        Harness.Report.print outcome.Experiments.Tables.table;
        if outcome.Experiments.Tables.ok then
          Harness.Report.note "expected shape: OK"
        else begin
          Harness.Report.note "EXPECTED SHAPE VIOLATED:";
          List.iter
            (fun s -> Harness.Report.note ("  " ^ s))
            outcome.Experiments.Tables.notes
        end;
        Harness.Report.note (Printf.sprintf "wall clock: %.3f s" seconds);
        Some
          {
            id;
            title = name;
            seconds;
            ok = outcome.Experiments.Tables.ok;
            notes = outcome.Experiments.Tables.notes;
          }
      end
      else None)
    (Experiments.Tables.suite ())

let write_bench_json path timings total_seconds =
  let open Obs.Json in
  let doc =
    Obj
      [
        ("schema", String bench_schema);
        ("suite", String "ssmfp experiment tables");
        ("git_rev", String (git_rev ()));
        ("created_unix", Int (int_of_float (Unix.time ())));
        ("total_seconds", Float total_seconds);
        ( "experiments",
          List
            (List.map
               (fun t ->
                 Obj
                   [
                     ("id", String t.id);
                     ("title", String t.title);
                     ("seconds", Float t.seconds);
                     ("ok", Bool t.ok);
                     ("notes", List (List.map (fun s -> String s) t.notes));
                   ])
               timings) );
      ]
  in
  let oc = open_out path in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d experiments, %.1f s total)\n" path
    (List.length timings) total_seconds

(* Write every table as CSV and every figure as text/DOT under a
   directory (default "artifacts"). *)
let export_artifacts dir =
  let () = try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> () in
  let write name contents =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "  wrote %s\n" path
  in
  List.iter
    (fun (name, outcome) ->
      let id = String.lowercase_ascii (List.hd (String.split_on_char ' ' name)) in
      write (id ^ ".csv") (Harness.Report.to_csv outcome.Experiments.Tables.table))
    (Experiments.Tables.all ());
  List.iteri
    (fun i (_, body) -> write (Printf.sprintf "figure%d.txt" (i + 1)) body)
    (Experiments.Figures.all ());
  (* DOT sources of the two buffer-graph figures *)
  let dot_of g dest scheme =
    let tables = Routing.Table.correct_all g in
    let next_hop ~p ~d = Routing.Selfstab.next_hop tables.(p) ~d in
    let bg =
      match scheme with
      | `Dest -> Ssmfp.Buffer_graph.destination_based g ~next_hop
      | `Ssmfp -> Ssmfp.Buffer_graph.ssmfp g ~next_hop
    in
    Ssmfp.Buffer_graph.to_dot ~letters:true
      (Ssmfp.Buffer_graph.component bg ~dest)
  in
  write "figure1.dot" (dot_of Topology.Builders.paper_figure1 1 `Dest);
  write "figure2.dot" (dot_of Topology.Builders.paper_figure2 1 `Ssmfp);
  write "network_fig2.dot"
    (Topology.Dot.of_graph ~labels:Topology.Dot.default_letter
       Topology.Builders.paper_figure2)

(* The chart sweeps pair each topology with its own seed, so each point
   is a one-point grid. *)
let chart_scenario ~index ~spelling ~corruption ~workload ~seed =
  {
    (Campaign.Spec.point ~model:Campaign.Spec.State_model
       ~chaos:Chaos.Schedule.none ~seed ~max_steps:500_000
       (Campaign.Spec.topology_exn spelling)
       corruption workload)
    with
    Campaign.Spec.index;
  }

let chart_value (o : Campaign.Pool.outcome) f =
  match o.Campaign.Pool.status with
  | Campaign.Pool.Done s -> f s
  | Campaign.Pool.Crashed _ -> 0.

(* ASCII chart: amortized rounds/delivery against the diameter (E4's
   series in figure form), executed through the campaign pool. *)
let run_charts () =
  Harness.Report.section "Chart: amortized rounds/delivery vs diameter (E4)";
  let points =
    [
      ("path:3", 41); ("path:5", 42); ("path:9", 43); ("path:13", 44);
      ("path:17", 45); ("ring:8", 46); ("ring:16", 47); ("ring:24", 48);
    ]
  in
  let scenarios =
    List.mapi
      (fun index (spelling, seed) ->
        chart_scenario ~index ~spelling ~corruption:Campaign.Spec.Pristine
          ~workload:(Campaign.Spec.Uniform 3) ~seed)
      points
  in
  let outcomes =
    Campaign.Pool.run ~workers:(Campaign.Pool.default_workers ()) scenarios
  in
  let series =
    List.map
      (fun (o : Campaign.Pool.outcome) ->
        ( Printf.sprintf "%-7s D=%-2d" o.Campaign.Pool.scenario.Campaign.Spec.topology.Campaign.Spec.t_name
            o.Campaign.Pool.diameter,
          chart_value o (fun s ->
              float_of_int s.Campaign.Pool.rounds
              /. float_of_int (max 1 s.Campaign.Pool.valid_delivered)) ))
      outcomes
  in
  print_string
    (Harness.Report.bar_chart ~width:50
       ~title:"rounds per delivered message (saturated, correct tables)"
       series);
  print_newline ()

let run_scaling_chart () =
  Harness.Report.section
    "Chart: adversarial recovery cost vs network size (wall clock)";
  let scenarios =
    List.mapi
      (fun index n ->
        chart_scenario ~index ~spelling:(Printf.sprintf "ring:%d" n)
          ~corruption:Campaign.Spec.Adversarial
          ~workload:(Campaign.Spec.Uniform 2) ~seed:2)
      [ 8; 12; 16; 24; 32; 40 ]
  in
  (* One worker on purpose: the y-axis is per-scenario wall clock, which
     concurrent domains would contend over and distort. *)
  let outcomes = Campaign.Pool.run ~workers:1 scenarios in
  let series =
    List.map
      (fun (o : Campaign.Pool.outcome) ->
        ( Printf.sprintf "%-8s (%.0f rounds)"
            o.Campaign.Pool.scenario.Campaign.Spec.topology.Campaign.Spec.t_name
            (chart_value o (fun s -> float_of_int s.Campaign.Pool.rounds)),
          o.Campaign.Pool.seconds *. 1000. ))
      outcomes
  in
  print_string
    (Harness.Report.bar_chart ~width:50
       ~title:
         "milliseconds to drain a fully adversarial configuration (2 msgs/proc)"
       series);
  print_newline ()

(* Time the whole default campaign grid as one bench entry, so the
   cross-PR BENCH sequence tracks the sweep's cost and health. *)
let run_campaign_bench () =
  Harness.Report.section "Campaign: default grid";
  let scenarios = Campaign.Spec.expand (Campaign.Spec.default_grid ()) in
  let workers = Campaign.Pool.default_workers () in
  let t0 = Unix.gettimeofday () in
  let outcomes = Campaign.Pool.run ~workers scenarios in
  let seconds = Unix.gettimeofday () -. t0 in
  let doc = Campaign.Aggregate.to_json outcomes in
  (match Campaign.Aggregate.render_summary doc with
  | Ok s -> print_string s
  | Error e -> Printf.printf "  (summary unavailable: %s)\n" e);
  Printf.printf "  wall clock: %.3f s on %d workers\n" seconds workers;
  let failed =
    match Campaign.Aggregate.failed_scenarios doc with Ok l -> l | Error _ -> []
  in
  {
    id = "campaign";
    title =
      Printf.sprintf "Campaign: default grid (%d scenarios)"
        (List.length scenarios);
    seconds;
    ok = failed = [];
    notes = failed;
  }

(* B1: step throughput of the composed SSMFP + routing protocol, the
   full-sweep reference engine against the incremental (dirty-set) one,
   measured in the same run over identical schedules. The round-robin
   daemon moves one processor per step, so the incremental engine
   re-evaluates ~(1 + degree) guards where the full sweep re-evaluates
   all n — the speedup is the point of the locality-aware core. *)
let run_b1 () =
  Harness.Report.section
    "B1: step throughput, full-sweep vs incremental guard evaluation";
  let scenarios =
    [
      ("ring:32", Topology.Builders.ring 32, 1_800);
      ("ring:128", Topology.Builders.ring 128, 500);
      ("ring:256", Topology.Builders.ring 256, 200);
      ("torus:8x8", Topology.Builders.torus ~rows:8 ~cols:8, 1_000);
      ("torus:16x16", Topology.Builders.torus ~rows:16 ~cols:16, 200);
    ]
  in
  List.map
    (fun (name, g, steps) ->
      let n = Topology.Graph.n g in
      let proto = Ssmfp.Protocol.make ~run_routing:true g in
      let wl_rng = Prng.Splitmix.of_int 11 in
      let wl = Harness.Workload.uniform_random wl_rng ~n ~per_processor:2 in
      let timed mode =
        let fault_rng = Prng.Splitmix.of_int 12 in
        let t =
          Sim.Engine.make ~mode ~graph:g ~protocol:proto (fun p ->
              Harness.Fault.initial_states ~rng:fault_rng
                Harness.Fault.adversarial g ~workload:wl p)
        in
        let daemon = Sim.Daemon.round_robin () in
        let raise_requests () =
          Topology.Graph.iter_vertices
            (fun p ->
              let st = Sim.Engine.state t p in
              if (not st.Ssmfp.State.request) && st.Ssmfp.State.outbox <> []
              then Sim.Engine.set_state t p { st with Ssmfp.State.request = true })
            g
        in
        let done_ = ref 0 in
        let t0 = Unix.gettimeofday () in
        (try
           for _ = 1 to steps do
             raise_requests ();
             match Sim.Engine.step t daemon with
             | None -> raise Exit
             | Some _ -> incr done_
           done
         with Exit -> ());
        (Unix.gettimeofday () -. t0, !done_)
      in
      let t0 = Unix.gettimeofday () in
      let full_s, full_steps = timed Sim.Engine.Full_sweep in
      let incr_s, incr_steps = timed Sim.Engine.Incremental in
      let seconds = Unix.gettimeofday () -. t0 in
      let per_step s k = if k = 0 then infinity else s /. float_of_int k in
      let speedup = per_step full_s full_steps /. per_step incr_s incr_steps in
      let throughput s k = float_of_int k /. max 1e-9 s in
      let ok =
        full_steps = incr_steps
        && speedup >= (if n >= 128 then 3.0 else 0.8)
      in
      let notes =
        [
          Printf.sprintf "full-sweep: %d steps, %.0f steps/s" full_steps
            (throughput full_s full_steps);
          Printf.sprintf "incremental: %d steps, %.0f steps/s" incr_steps
            (throughput incr_s incr_steps);
          Printf.sprintf "speedup: %.1fx (threshold %s)" speedup
            (if n >= 128 then "3.0x" else "0.8x");
        ]
      in
      List.iter (fun s -> Harness.Report.note (Printf.sprintf "%s %s" name s)) notes;
      {
        id = "b1-" ^ name;
        title =
          Printf.sprintf
            "B1: step throughput full vs incremental (%s, n=%d)" name n;
        seconds;
        ok;
        notes;
      })
    scenarios

(* B2: recovery time vs burst size. The same pristine ring is struck at
   round 10 by a single burst of growing victim count; the recovery
   oracle's rounds-to-quiescence is the measurement. One timing entry per
   burst size keeps the cross-PR BENCH sequence able to chart the curve. *)
let run_b2 () =
  Harness.Report.section "B2: recovery time vs burst size (ring:12, state model)";
  let g = Topology.Builders.ring 12 in
  let n = Topology.Graph.n g in
  let sizes = [ 1; 2; 4; 8; 12 ] in
  let series = ref [] in
  let timings =
    List.map
      (fun k ->
        let schedule =
          Campaign.Spec.chaos_exn
            (if k >= n then "10:rbqf:all" else Printf.sprintf "10:rbqf:%d" k)
        in
        let wl =
          Harness.Workload.uniform_random (Prng.Splitmix.of_int 21) ~n
            ~per_processor:2
        in
        let cfg =
          Harness.Runner.config ~spec:Harness.Fault.pristine
            ~daemon:Harness.Runner.Synchronous ~seed:33 ~max_steps:500_000 g wl
        in
        let t0 = Unix.gettimeofday () in
        let o = Chaos.Runner.run ~aftermath:4 ~schedule cfg in
        let seconds = Unix.gettimeofday () -. t0 in
        let r = o.Chaos.Runner.report in
        let notes =
          [
            Printf.sprintf "recovery: %d rounds" r.Chaos.Recovery.recovery_rounds;
            Printf.sprintf "invalid delivered: %d" r.Chaos.Recovery.invalid_total;
            Printf.sprintf "post-burst: %d/%d delivered once"
              r.Chaos.Recovery.post_delivered_once r.Chaos.Recovery.post_generated;
          ]
        in
        List.iter
          (fun s -> Harness.Report.note (Printf.sprintf "%2d victims %s" k s))
          notes;
        series :=
          ( Printf.sprintf "%2d victims" k,
            float_of_int (max 0 r.Chaos.Recovery.recovery_rounds) )
          :: !series;
        {
          id = Printf.sprintf "b2-v%d" k;
          title =
            Printf.sprintf "B2: recovery after a %d-victim burst (ring:12)" k;
          seconds;
          ok = r.Chaos.Recovery.ok;
          notes;
        })
      sizes
  in
  print_string
    (Harness.Report.bar_chart ~width:50
       ~title:"rounds from last burst back to quiescence" (List.rev !series));
  print_newline ();
  timings

(* B3: model-checker throughput, memory and scaling on the sampled
   three-chain search. Configs/s is explored states over wall clock;
   resident bytes is the sharded visited store's key payloads plus its
   slot arrays (stripe count is worker-independent, so resident bytes
   must be byte-identical across worker counts). Legs:

   - b3-codec-w1 reports the single-worker search;
   - b3-codec-w2/-w4 gate report identity against w1 — the reduce-step
     determinism contract of the work-stealing frontier;
   - b3-scaling always reports w2/w1 and w4/w1 throughput (median of 3
     runs each) with the core count, and gates w4/w1 >= 1.8x (target
     2.5x) only when the host has >= 4 cores — below that the extra
     domains share cores and the ratio measures contention, not scaling;
   - b3-por gates the ample-set partial-order reduction: verdicts
     identical to the unreduced search and >= 30% fewer configurations;
   - b3-codec-w4-prof gates report identity with profiling on and dumps
     the per-worker run/steal/idle breakdown the scaling investigations
     read. *)
let run_b3 () =
  Harness.Report.section "B3: mc throughput, workers, POR (3chain)";
  let sc = Mc.Explore.three_chain in
  let inits =
    Mc.Explore.sample_initials (Prng.Splitmix.of_int 5) ~count:600 sc
  in
  let timed ?(por = false) workers =
    let t0 = Unix.gettimeofday () in
    let r = Mc.Explore.check_safety ~workers ~por sc inits in
    (r, Unix.gettimeofday () -. t0)
  in
  let throughput (r : Mc.Explore.safety_report) s =
    float_of_int r.Mc.Explore.explored /. max 1e-9 s
  in
  let resident (r : Mc.Explore.safety_report) =
    r.Mc.Explore.visited.Mc.Store.key_bytes
    + r.Mc.Explore.visited.Mc.Store.table_bytes
  in
  let reports_agree (a : Mc.Explore.safety_report)
      (b : Mc.Explore.safety_report) =
    a.Mc.Explore.explored = b.Mc.Explore.explored
    && a.Mc.Explore.transitions = b.Mc.Explore.transitions
    && a.Mc.Explore.duplicate_delivery = b.Mc.Explore.duplicate_delivery
    && a.Mc.Explore.lost_valid = b.Mc.Explore.lost_valid
    && a.Mc.Explore.deadlock = b.Mc.Explore.deadlock
  in
  let verdicts_agree (a : Mc.Explore.safety_report)
      (b : Mc.Explore.safety_report) =
    a.Mc.Explore.duplicate_delivery = b.Mc.Explore.duplicate_delivery
    && (a.Mc.Explore.lost_valid <> None) = (b.Mc.Explore.lost_valid <> None)
    && (a.Mc.Explore.deadlock <> None) = (b.Mc.Explore.deadlock <> None)
  in
  let rc1, sc1 = timed 1 in
  let rc2, sc2 = timed 2 in
  let rc4, sc4 = timed 4 in
  let rpor, spor = timed ~por:true 1 in
  (* The same 4-worker search with profiling on: the report must not
     move, and the per-worker run/steal/idle breakdown lands in the
     BENCH json — the observability scaling investigations run on. *)
  let prof = Obs.Prof.create ~tracks:4 () in
  let t0 = Unix.gettimeofday () in
  let rp = Mc.Explore.check_safety ~workers:4 ~prof sc inits in
  let sp4 = Unix.gettimeofday () -. t0 in
  let phase_notes =
    let ms ns = float_of_int ns /. 1e6 in
    let sp_run = Obs.Prof.span prof "mc.run" in
    let c_configs = Obs.Prof.counter prof "mc.configs" in
    let c_steals = Obs.Prof.counter prof "mc.steals" in
    let c_stolen = Obs.Prof.counter prof "mc.stolen" in
    let c_fail = Obs.Prof.counter prof "mc.steal_fail" in
    let c_idle = Obs.Prof.counter prof "mc.idle_ns" in
    List.init 4 (fun w ->
        Printf.sprintf
          "worker %d: run %.1f ms, %d configs, %d steals (%d entries, %d \
           failed), idle %.1f ms"
          w
          (ms (Obs.Prof.span_total prof ~track:w sp_run))
          (Obs.Prof.counter_value prof ~track:w c_configs)
          (Obs.Prof.counter_value prof ~track:w c_steals)
          (Obs.Prof.counter_value prof ~track:w c_stolen)
          (Obs.Prof.counter_value prof ~track:w c_fail)
          (ms (Obs.Prof.counter_value prof ~track:w c_idle)))
    @ [
        Printf.sprintf "roots %.1f ms, reduce %.1f ms (track 0)"
          (ms (Obs.Prof.span_total prof ~track:0 (Obs.Prof.span prof "mc.roots")))
          (ms (Obs.Prof.span_total prof ~track:0 (Obs.Prof.span prof "mc.reduce")));
        Printf.sprintf "attribution: %.1f%% of wall-clock in named spans"
          (Obs.Traceview.attribution_pct prof);
      ]
  in
  let entry id title seconds ok notes =
    List.iter (fun s -> Harness.Report.note (Printf.sprintf "%s %s" id s)) notes;
    { id; title; seconds; ok; notes }
  in
  let line r s =
    Printf.sprintf "%d configs, %.0f configs/s, %d resident bytes"
      r.Mc.Explore.explored (throughput r s) (resident r)
  in
  (* Median-of-3 throughput per worker count: the timed runs above plus
     two repeats, each of which must also reproduce the w1 report. *)
  let median_throughput workers (r0, s0) =
    let runs = (r0, s0) :: List.init 2 (fun _ -> timed workers) in
    let sorted =
      List.sort compare (List.map (fun (r, s) -> throughput r s) runs)
    in
    (List.nth sorted 1, List.for_all (fun (r, _) -> reports_agree rc1 r) runs)
  in
  let t1, agree1 = median_throughput 1 (rc1, sc1) in
  let t2, agree2 = median_throughput 2 (rc2, sc2) in
  let t4, agree4 = median_throughput 4 (rc4, sc4) in
  let cores = Domain.recommended_domain_count () in
  let w2_ratio = t2 /. t1 and w4_ratio = t4 /. t1 in
  let gated = cores >= 4 in
  let por_reduction =
    100.
    *. (1.
        -. float_of_int rpor.Mc.Explore.explored
           /. float_of_int (max 1 rc1.Mc.Explore.explored))
  in
  [
    entry "b3-codec-w1" "B3: mc search, codec keys, 1 worker (3chain)" sc1 true
      [
        line rc1 sc1;
        "codec vs the retired string-key search: 2.7x configs/s \
         (BENCH_3.json), 3.0x (BENCH_5.json)";
      ];
    entry "b3-codec-w2" "B3: mc search, codec keys, 2 workers (3chain)" sc2
      (reports_agree rc1 rc2 && resident rc2 = resident rc1)
      [ line rc2 sc2; "gate: report identical to 1 worker" ];
    entry "b3-codec-w4" "B3: mc search, codec keys, 4 workers (3chain)" sc4
      (reports_agree rc1 rc4 && resident rc4 = resident rc1)
      [ line rc4 sc4; "gate: report identical to 1 worker" ];
    entry "b3-scaling" "B3: mc work-stealing scaling, w2 and w4 vs w1 (3chain)"
      (sc1 +. sc2 +. sc4)
      (agree1 && agree2 && agree4 && ((not gated) || w4_ratio >= 1.8))
      [
        Printf.sprintf
          "median of 3: w1 %.0f, w2 %.0f, w4 %.0f configs/s on %d core(s)" t1
          t2 t4 cores;
        Printf.sprintf "w2/w1 throughput: %.2fx" w2_ratio;
        Printf.sprintf "w4/w1 throughput: %.2fx (%s)" w4_ratio
          (if gated then "gate 1.8x, target 2.5x"
           else "gate needs >= 4 cores; reported, not gated");
      ];
    entry "b3-por" "B3: mc partial-order reduction, on vs off (3chain)" spor
      (verdicts_agree rc1 rpor && por_reduction >= 30.0)
      [
        line rpor spor;
        Printf.sprintf
          "POR: %d configs vs %d unreduced — %.1f%% reduction (gate 30%%), \
           verdicts %s"
          rpor.Mc.Explore.explored rc1.Mc.Explore.explored por_reduction
          (if verdicts_agree rc1 rpor then "identical" else "DIVERGED");
      ];
    entry "b3-codec-w4-prof"
      "B3: mc search, codec keys, 4 workers, profiling on (3chain)" sp4
      (reports_agree rc1 rp)
      (line rp sp4 :: "gate: report identical with profiling enabled"
       :: phase_notes);
  ]

(* The b4 denominator: a frozen token relay that does the per-delivery
   work of the network loop the ring-buffer runtime replaced, on
   reliable channels. Channels are [Queue.t]s found through a [Hashtbl]
   keyed by [(from, into)]; the scheduler draws one bounded
   [Splitmix.int] per step and selects the nonempty channel of that rank,
   in sorted (from, into) order, through a Fenwick tree; every step ends
   with an O(n) scan of the per-process down counters. What a relay
   does not need (the down counters, the edge check, the stamp, the
   generic state array) stays because the old loop paid for it on every
   delivery. It replays the runtime's scheduler stream (same draws, same
   channel order), so both loops deliver the same tokens in the same
   order. Frozen on purpose: it is the yardstick of the b4-speedup gate,
   not code to optimise. *)
module Frozen_relay = struct
  type item = App of unit * int (* payload, stamp id (-1: untracked) *)

  type 's t = {
    graph : Topology.Graph.t;
    chans : (int * int, item Queue.t) Hashtbl.t;
    keys : (int * int) array; (* every directed channel, sorted *)
    queues : item Queue.t array; (* parallel to [keys] *)
    ix : (int * int, int) Hashtbl.t; (* key -> index in [keys] *)
    flag : bool array; (* channel nonempty *)
    fen : int array; (* 1-based Fenwick tree over [flag] *)
    mutable nonempty : int;
    states : 's array;
    down : int array; (* remaining down steps per process; all 0 here *)
    mutable delivered : int;
  }

  (* Built in the old loop's order, so the tables lie alike in memory. *)
  let create ~init graph =
    let chans = Hashtbl.create 64 in
    List.iter
      (fun (u, v) ->
        Hashtbl.replace chans (u, v) (Queue.create ());
        Hashtbl.replace chans (v, u) (Queue.create ()))
      (Topology.Graph.edges graph);
    let keys =
      Hashtbl.fold (fun k _ acc -> k :: acc) chans []
      |> List.sort compare |> Array.of_list
    in
    let c = Array.length keys in
    let ix = Hashtbl.create (2 * c) in
    Array.iteri (fun i k -> Hashtbl.replace ix k i) keys;
    let n = Topology.Graph.n graph in
    {
      graph;
      chans;
      keys;
      queues = Array.map (Hashtbl.find chans) keys;
      ix;
      flag = Array.make c false;
      fen = Array.make (c + 1) 0;
      nonempty = 0;
      states = Array.init n init;
      down = Array.make n 0;
      delivered = 0;
    }

  let fen_add t i delta =
    let i = ref (i + 1) in
    while !i <= Array.length t.keys do
      t.fen.(!i) <- t.fen.(!i) + delta;
      i := !i + (!i land - !i)
    done

  (* Index of the (k+1)-th nonempty channel, by descending powers of two. *)
  let fen_select t k =
    let n = Array.length t.keys in
    let pw = ref 1 in
    while !pw * 2 <= n do pw := !pw * 2 done;
    let pos = ref 0 and rem = ref k in
    while !pw > 0 do
      let np = !pos + !pw in
      if np <= n && t.fen.(np) <= !rem then begin
        pos := np;
        rem := !rem - t.fen.(np)
      end;
      pw := !pw lsr 1
    done;
    !pos

  let push t ~from ~into m =
    if not (Topology.Graph.is_edge t.graph from into) then
      invalid_arg "Frozen_relay: not an edge";
    Queue.add m (Hashtbl.find t.chans (from, into));
    let i = Hashtbl.find t.ix (from, into) in
    if not t.flag.(i) then begin
      t.flag.(i) <- true;
      t.nonempty <- t.nonempty + 1;
      fen_add t i 1
    end

  (* Deliver one token to [handler], which returns the receiver's next
     state and its sends, as a network handler does. *)
  let step t rng handler =
    t.nonempty > 0
    && begin
      let i = fen_select t (Prng.Splitmix.int rng t.nonempty) in
      let from, into = t.keys.(i) in
      let q = t.queues.(i) in
      let (App ((), _)) = Queue.pop q in
      if Queue.is_empty q then begin
        t.flag.(i) <- false;
        t.nonempty <- t.nonempty - 1;
        fen_add t i (-1)
      end;
      if t.down.(into) = 0 then begin
        t.delivered <- t.delivered + 1;
        let s', sends = handler ~self:into ~from t.states.(into) () in
        t.states.(into) <- s';
        List.iter (fun (q, m) -> push t ~from:into ~into:q (App (m, -1))) sends
      end;
      Array.iteri (fun p r -> if r > 0 then t.down.(p) <- r - 1) t.down;
      true
    end
end

(* B4: mp runtime throughput and latency — the production-scale event
   loop (flat ring channels, bitset select, timer wheel) measured as a
   raw network against [Frozen_relay], a frozen copy of the per-delivery
   work of the loop it replaced (hashed Queue.t channels, a Fenwick
   select, a per-step crash-span scan), under an identical deterministic
   token-relay protocol so every difference is the loop, not the
   workload.

   Legs: n=1000 ring under reliable channels (messages/s, and the >= 3x
   speedup gate against the frozen loop); a 1M-delivery sustained lossy
   run (the deliveries gate); a GC gate (minor words per step on the
   reliable hot path, <= 64); a profiled lossy leg for send->deliver
   latency percentiles; and a 10k-node torus leg (reliable + flaky)
   reporting stamp/hop ring overwrites under saturation. The relay
   consumes no PRNG draws in handlers, so both loops replay the same
   scheduler stream. On lossy and flaky channels every process resends
   a token to each neighbor from a periodic wheel timer, which keeps the
   token population from dying out; the frozen loop has no wheel, so it
   is compared on reliable channels only. *)
let run_b4 () =
  Harness.Report.section
    "B4: mp runtime throughput/latency, ring-buffer loop vs frozen loop (token relay)";
  let nbrs_of g =
    Array.init (Topology.Graph.n g) (fun p ->
        Array.of_list (Topology.Graph.neighbors g p))
  in
  (* Forward the token deterministically: to the neighbor after the one
     it came from, so tokens orbit the graph without any handler draws. *)
  let fwd nbrs self from =
    let ns = nbrs.(self) in
    let deg = Array.length ns in
    let rec find i =
      if i >= deg then 0 else if ns.(i) = from then i else find (i + 1)
    in
    ns.((find 0 + 1) mod deg)
  in
  (* The same driver over either runtime, as closures. *)
  let drive ~step ~deliveries ~target ~max_steps rng =
    let d0 = deliveries () in
    let steps = ref 0 in
    let t0 = Unix.gettimeofday () in
    while deliveries () - d0 < target && !steps < max_steps && step rng do
      incr steps
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (deliveries () - d0, !steps, dt)
  in
  let reliable = Chaos.Schedule.channel_knobs Chaos.Schedule.Reliable in
  let lossy = Chaos.Schedule.channel_knobs Chaos.Schedule.Lossy in
  let flaky = Chaos.Schedule.channel_knobs Chaos.Schedule.Flaky in
  (* [resend]: each process fires a wheel timer every [8 n] steps,
     staggered by pid, and sends one token to every neighbor — on average
     one fire per 8 steps across the network. *)
  let mk_new ?(knobs = reliable) ?(resend = false)
      ?(prof = Obs.Prof.disabled) g tokens =
    let nbrs = nbrs_of g in
    let handler ~self ~from () () = ((), [ (fwd nbrs self from, ()) ]) in
    let net =
      Mp.Network.create ~loss:knobs.Chaos.Schedule.loss
        ~duplication:knobs.Chaos.Schedule.duplication
        ~reorder:knobs.Chaos.Schedule.reorder ~prof
        ~init:(fun _ -> ())
        ~handler g
    in
    if resend then begin
      let period = 8 * Topology.Graph.n g in
      Mp.Network.set_timer_handler net ~keys:1 (fun ~self ~key () ->
          Mp.Network.arm_timer net ~self ~key ~after:period;
          ((), Array.to_list (Array.map (fun q -> (q, ())) nbrs.(self))));
      Topology.Graph.iter_vertices
        (fun p -> Mp.Network.arm_timer net ~self:p ~key:0 ~after:(1 + (8 * p)))
        g
    end;
    for p = 0 to tokens - 1 do
      Mp.Network.inject net ~from:p ~into:nbrs.(p).(0) ()
    done;
    ( (fun rng -> Mp.Network.step net rng),
      (fun () -> Mp.Network.deliveries net),
      fun () -> Mp.Network.prof_overwrites net )
  in
  let mk_frozen g tokens =
    let nbrs = nbrs_of g in
    let handler ~self ~from () () = ((), [ (fwd nbrs self from, ()) ]) in
    let t = Frozen_relay.create ~init:(fun _ -> ()) g in
    for p = 0 to tokens - 1 do
      Frozen_relay.push t ~from:p ~into:nbrs.(p).(0) (Frozen_relay.App ((), -1))
    done;
    ( (fun rng -> Frozen_relay.step t rng handler),
      fun () -> t.Frozen_relay.delivered )
  in
  let ring1k = Topology.Builders.ring 1000 in
  let timings = ref [] in
  let push t = timings := !timings @ [ t ] in
  (* ---- Leg 1: n=1000 reliable, ring loop vs frozen loop; 3x gate. ---- *)
  let target = 400_000 in
  let rate_of (d, _steps, dt) = float_of_int d /. max 1e-9 dt in
  let best f = List.fold_left max 0. (List.init 3 (fun _ -> rate_of (f ()))) in
  let new_rate =
    best (fun () ->
        let step, deliveries, _ = mk_new ring1k 1000 in
        drive ~step ~deliveries ~target ~max_steps:(8 * target)
          (Prng.Splitmix.of_int 77))
  in
  let frozen_rate =
    best (fun () ->
        let step, deliveries = mk_frozen ring1k 1000 in
        drive ~step ~deliveries ~target ~max_steps:(8 * target)
          (Prng.Splitmix.of_int 77))
  in
  let rel_speedup = new_rate /. max 1e-9 frozen_rate in
  let rel_note =
    Printf.sprintf
      "reliable n=1000: %10.0f msg/s (ring loop) vs %10.0f msg/s (frozen \
       loop) = %.2fx"
      new_rate frozen_rate rel_speedup
  in
  Harness.Report.note rel_note;
  push
    {
      id = "b4-speedup";
      title = "B4: ring-buffer loop vs frozen loop, messages/s (ring:1000)";
      seconds = 0.;
      ok = rel_speedup >= 3.0;
      notes =
        [
          rel_note;
          Printf.sprintf "gate: reliable speedup %.2fx >= 3.0x" rel_speedup;
        ];
    };
  (* ---- Leg 2: sustained 1M deliveries, lossy ring:1000. ---- *)
  let step, deliveries, _ = mk_new ~knobs:lossy ~resend:true ring1k 1000 in
  let d, steps, dt =
    drive ~step ~deliveries ~target:1_000_000 ~max_steps:4_000_000
      (Prng.Splitmix.of_int 78)
  in
  let sustained_notes =
    [
      Printf.sprintf
        "lossy ring:1000: %d deliveries in %d steps (%.2f s, %.0f msg/s, \
         %.0f steps/s)"
        d steps dt
        (float_of_int d /. max 1e-9 dt)
        (float_of_int steps /. max 1e-9 dt);
    ]
  in
  List.iter Harness.Report.note sustained_notes;
  push
    {
      id = "b4-sustained";
      title = "B4: sustained lossy delivery volume (ring:1000, 1M gate)";
      seconds = dt;
      ok = d >= 1_000_000;
      notes = sustained_notes;
    };
  (* ---- Leg 3: GC gate — minor words per step, reliable hot path. ---- *)
  let step, deliveries, _ = mk_new ring1k 1000 in
  let rng = Prng.Splitmix.of_int 79 in
  ignore (drive ~step ~deliveries ~target:50_000 ~max_steps:100_000 rng);
  let w0 = Gc.minor_words () in
  let _, steps, _ =
    drive ~step ~deliveries ~target:500_000 ~max_steps:1_000_000 rng
  in
  let w1 = Gc.minor_words () in
  let per_step = (w1 -. w0) /. float_of_int (max 1 steps) in
  let gc_note =
    Printf.sprintf "reliable hot path: %.1f minor words/step (gate <= 64)"
      per_step
  in
  Harness.Report.note gc_note;
  push
    {
      id = "b4-alloc";
      title = "B4: minor allocation per scheduler step (reliable, ring:1000)";
      seconds = 0.;
      ok = per_step <= 64.;
      notes = [ gc_note ];
    };
  (* ---- Leg 4: latency percentiles, profiled lossy ring:1000. ---- *)
  let prof = Obs.Prof.create ~tracks:1 () in
  let step, deliveries, overwrites =
    mk_new ~knobs:lossy ~resend:true ~prof ring1k 1000
  in
  let d, _, dt =
    drive ~step ~deliveries ~target:300_000 ~max_steps:2_000_000
      (Prng.Splitmix.of_int 80)
  in
  let lat_notes =
    match
      Obs.Prof.histo_summary prof
        (Obs.Prof.histo prof "mp.send_deliver_ns")
    with
    | Some h ->
        let ov = overwrites () in
        [
          Printf.sprintf
            "lossy ring:1000 (%d deliveries, %.2f s): send->deliver \
             p50~%dns p95~%dns p99~%dns"
            d dt h.Obs.Prof.hs_p50 h.Obs.Prof.hs_p95 h.Obs.Prof.hs_p99;
          Printf.sprintf
            "profiling rings: %d stamps evicted, %d samples lost, %d hops \
             evicted"
            ov.Mp.Network.stamps_evicted ov.Mp.Network.samples_lost
            ov.Mp.Network.hops_evicted;
        ]
    | None -> [ "no latency histogram recorded" ]
  in
  List.iter Harness.Report.note lat_notes;
  push
    {
      id = "b4-latency";
      title = "B4: send->deliver latency percentiles (lossy, ring:1000)";
      seconds = dt;
      ok = lat_notes <> [ "no latency histogram recorded" ];
      notes = lat_notes;
    };
  (* ---- Leg 5: 10k-node torus, reliable and flaky, saturation. ---- *)
  let torus10k = Topology.Builders.torus ~rows:100 ~cols:100 in
  let ten_k_leg ~name ~knobs ~resend ~target =
    let prof = Obs.Prof.create ~tracks:1 () in
    let step, deliveries, overwrites =
      mk_new ~knobs ~resend ~prof torus10k 10_000
    in
    let d, steps, dt =
      drive ~step ~deliveries ~target ~max_steps:(8 * target)
        (Prng.Splitmix.of_int 81)
    in
    let ov = overwrites () in
    let lat =
      match
        Obs.Prof.histo_summary prof
          (Obs.Prof.histo prof "mp.send_deliver_ns")
      with
      | Some h ->
          Printf.sprintf "p50~%dns p95~%dns p99~%dns" h.Obs.Prof.hs_p50
            h.Obs.Prof.hs_p95 h.Obs.Prof.hs_p99
      | None -> "no histogram"
    in
    Printf.sprintf
      "%-8s torus:100x100: %.0f msg/s (%d deliveries, %d steps, %.2f s), \
       %s; rings: %d stamps evicted, %d samples lost, %d hops evicted"
      name
      (float_of_int d /. max 1e-9 dt)
      d steps dt lat ov.Mp.Network.stamps_evicted ov.Mp.Network.samples_lost
      ov.Mp.Network.hops_evicted
  in
  let ten_notes =
    [
      ten_k_leg ~name:"reliable" ~knobs:reliable ~resend:false
        ~target:400_000;
      ten_k_leg ~name:"flaky" ~knobs:flaky ~resend:true ~target:400_000;
    ]
  in
  List.iter Harness.Report.note ten_notes;
  push
    {
      id = "b4-10k";
      title = "B4: 10k-node saturation (torus:100x100, profiled)";
      seconds = 0.;
      ok = true;
      notes = ten_notes;
    };
  !timings

(* B5: the in-band snapshot layer at 1k nodes. Two legs on the same
   lossy torus:32x32 synchronizer (1024 processes, Δ=4):

   - b5-overhead: identical delivery budgets driven snapshot-off and
     snapshot-on (epochs initiated every 2000 deliveries, engine ticked
     every 128 — the chaos driver's cadence), interleaved best-of-7
     (marker traffic shifts the scheduler's channel draws, so the two
     arms run genuinely different trajectories; the minimum over many
     interleaved reps is the only estimator that survives the host's
     slow drift at this run length). The gate is deliveries/s with
     snapshots on within 5% of off — the "safe to leave attached"
     contract for the snapshot layer. The snapshot-off run never
     constructs the layer, so it also witnesses that attach-free runs
     carry zero cost.

   - b5-cut-latency: one epoch initiated at delivery 50k (past the
     deepest adversarial recovery backlog) with the rest of a 220k
     budget as runway, measuring deliveries from initiation to the
     assembled cut. The gate is one completed, consistent cut: on a
     15%-loss 1k-node network the marker protocol must actually
     converge, not just not crash. The latency is dominated by the
     random scheduler's service of the last open channels — a coupon
     collector over ~4k directed channels, each of whose markers may
     sit behind queued synchronizer traffic — so it lands in the tens
     of thousands of deliveries: reported, not gated. *)
let run_b5 () =
  Harness.Report.section
    "B5: snapshot overhead and cut latency (torus:32x32, lossy, mp model)";
  let g = Topology.Builders.torus ~rows:32 ~cols:32 in
  let n = Topology.Graph.n g in
  let knobs = Chaos.Schedule.channel_knobs Chaos.Schedule.Lossy in
  let tick_chunk = 128 in
  let make () =
    Ssmfp.Message.reset_ghost_counter ();
    let wl =
      Harness.Workload.uniform_random (Prng.Splitmix.of_int 31) ~n
        ~per_processor:2
    in
    Mp.Ssmfp_mp.create ~spec:Harness.Fault.adversarial
      ~loss:knobs.Chaos.Schedule.loss
      ~duplication:knobs.Chaos.Schedule.duplication
      ~reorder:knobs.Chaos.Schedule.reorder ~seed:51 g wl
  in
  (* Chunked drive mirroring Chaos.Mp_run: stop every [tick_chunk]
     deliveries to tick the engine and harvest cuts. [at_chunk] sees the
     cuts completed in that chunk and decides whether to keep driving;
     the full harvest is also returned. *)
  let drive_chunked t link ~budget ~at_chunk =
    let d0 = Mp.Ssmfp_mp.channel_deliveries t in
    let harvested = ref [] in
    let rec loop () =
      let spent = Mp.Ssmfp_mp.channel_deliveries t - d0 in
      if spent < budget then begin
        let bound = Mp.Ssmfp_mp.channel_deliveries t + tick_chunk in
        ignore
          (Mp.Ssmfp_mp.drive ~max_deliveries:(budget - spent)
             ~stop:(fun t -> Mp.Ssmfp_mp.channel_deliveries t >= bound)
             t);
        let fresh =
          match link with
          | None -> []
          | Some l ->
              Snapshot.Ssmfp_link.tick l;
              Snapshot.Ssmfp_link.take_completed l
        in
        harvested := !harvested @ fresh;
        if at_chunk fresh then loop ()
      end
    in
    loop ();
    !harvested
  in
  (* Overhead leg. *)
  let budget = 8_000 and every = 2_000 in
  let run_once ~snapshot_on =
    let t = make () in
    let link =
      if snapshot_on then Some (Snapshot.Ssmfp_link.attach ~seed:51 t)
      else None
    in
    let next_init = ref every in
    let t0 = Unix.gettimeofday () in
    let cuts =
      drive_chunked t link ~budget ~at_chunk:(fun _ ->
          (match link with
          | Some l when Mp.Ssmfp_mp.channel_deliveries t >= !next_init ->
              Snapshot.Ssmfp_link.initiate l;
              next_init := Mp.Ssmfp_mp.channel_deliveries t + every
          | _ -> ());
          true)
    in
    (Unix.gettimeofday () -. t0, List.length cuts)
  in
  ignore (run_once ~snapshot_on:false);
  ignore (run_once ~snapshot_on:true);
  let reps = 7 in
  let off = ref [] and on_ = ref [] in
  for _ = 1 to reps do
    off := fst (run_once ~snapshot_on:false) :: !off;
    on_ := fst (run_once ~snapshot_on:true) :: !on_
  done;
  let best l = List.fold_left min infinity l in
  let t_off = best !off and t_on = best !on_ in
  let overhead = (t_on /. t_off) -. 1.0 in
  let rate s = float_of_int budget /. max 1e-9 s in
  let overhead_notes =
    [
      Printf.sprintf "snapshot-off: %.0f deliveries/s (best of %d)"
        (rate t_off) reps;
      Printf.sprintf
        "snapshot-on:  %.0f deliveries/s (epoch every %d deliveries)"
        (rate t_on) every;
      Printf.sprintf "overhead: %+.1f%% (gate <= +5.0%%)" (overhead *. 100.);
    ]
  in
  let overhead_entry =
    {
      id = "b5-overhead";
      title =
        Printf.sprintf
          "B5: snapshot-on vs -off delivery throughput (torus:32x32, n=%d)" n;
      seconds = t_off +. t_on;
      ok = overhead <= 0.05;
      notes = overhead_notes;
    }
  in
  (* Cut-latency leg. *)
  let latency_budget = 220_000 and latency_warmup = 50_000 in
  let t = make () in
  let link = Snapshot.Ssmfp_link.attach ~seed:51 t in
  let t0 = Unix.gettimeofday () in
  let _ =
    drive_chunked t (Some link) ~budget:latency_warmup ~at_chunk:(fun _ ->
        true)
  in
  Snapshot.Ssmfp_link.initiate link;
  let cuts =
    drive_chunked t (Some link)
      ~budget:(latency_budget - latency_warmup)
      ~at_chunk:(fun fresh -> fresh = [])
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let ms = Mp.Ssmfp_mp.marker_stats t in
  let est = Snapshot.Ssmfp_link.stats link in
  let latency_ok, latency_notes =
    match cuts with
    | [] ->
        ( false,
          [
            Printf.sprintf
              "no cut within %d deliveries (%d epochs, %d markers lost)"
              latency_budget est.Snapshot.Engine.epochs_started
              ms.Mp.Ssmfp_mp.m_dropped;
          ] )
    | cut :: _ ->
        let consistent = Snapshot.Ssmfp_link.consistent cut in
        ( consistent && Snapshot.Cut.shadow_ok cut,
          [
            Printf.sprintf
              "cut latency: %d deliveries (epoch %d of %d started, %d \
               abandoned)"
              (Snapshot.Cut.latency cut) cut.Snapshot.Cut.epoch
              est.Snapshot.Engine.epochs_started
              est.Snapshot.Engine.abandoned;
            Printf.sprintf "in-flight payloads captured: %d"
              (List.fold_left
                 (fun acc (_, msgs) -> acc + List.length msgs)
                 0 cut.Snapshot.Cut.channels);
            Printf.sprintf "markers resent: %d, consistent: %b, shadow-ok: %b"
              cut.Snapshot.Cut.markers_resent consistent
              (Snapshot.Cut.shadow_ok cut);
          ] )
  in
  let latency_entry =
    {
      id = "b5-cut-latency";
      title = "B5: one-epoch cut latency (torus:32x32, lossy)";
      seconds;
      ok = latency_ok;
      notes = latency_notes;
    }
  in
  List.iter
    (fun e -> List.iter (fun s -> Harness.Report.note (e.id ^ " " ^ s)) e.notes)
    [ overhead_entry; latency_entry ];
  [ overhead_entry; latency_entry ]

(* BOBS: the disabled-instrumentation overhead gate. The same
   incremental step-throughput loop as B1 (ring:128, round-robin daemon,
   adversarial start), run plain and run with a per-step
   now/record/add against Obs.Prof.disabled — the densest plausible
   instrumentation at a call site that is pure hot path. Best of 7
   interleaved repetitions each (noise only ever adds time, so the
   minimum is the robust estimator at ~100 ms granularity); the gate is
   instrumented <= 1.03x plain, the "safe to leave compiled in"
   contract from DESIGN.md §10. *)
let run_bobs () =
  Harness.Report.section
    "BOBS: disabled-profiling overhead gate (b1 step loop, ring:128)";
  let g = Topology.Builders.ring 128 in
  let n = Topology.Graph.n g in
  let proto = Ssmfp.Protocol.make ~run_routing:true g in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 11) ~n
      ~per_processor:2
  in
  let steps = 500 in
  let prof = Obs.Prof.disabled in
  let tr = Obs.Prof.track prof 0 in
  let sp_step = Obs.Prof.span prof "bobs.step" in
  let c_steps = Obs.Prof.counter prof "bobs.steps" in
  let run_once ~instrumented =
    let fault_rng = Prng.Splitmix.of_int 12 in
    let t =
      Sim.Engine.make ~mode:Sim.Engine.Incremental ~graph:g ~protocol:proto
        (fun p ->
          Harness.Fault.initial_states ~rng:fault_rng
            Harness.Fault.adversarial g ~workload:wl p)
    in
    let daemon = Sim.Daemon.round_robin () in
    let raise_requests () =
      Topology.Graph.iter_vertices
        (fun p ->
          let st = Sim.Engine.state t p in
          if (not st.Ssmfp.State.request) && st.Ssmfp.State.outbox <> [] then
            Sim.Engine.set_state t p { st with Ssmfp.State.request = true })
        g
    in
    let t0 = Unix.gettimeofday () in
    (try
       for _ = 1 to steps do
         raise_requests ();
         if instrumented then begin
           let s0 = Obs.Prof.now prof in
           (match Sim.Engine.step t daemon with
           | None -> raise Exit
           | Some _ -> ());
           Obs.Prof.record tr sp_step ~start:s0;
           Obs.Prof.add tr c_steps 1
         end
         else
           match Sim.Engine.step t daemon with
           | None -> raise Exit
           | Some _ -> ()
       done
     with Exit -> ());
    Unix.gettimeofday () -. t0
  in
  (* Warm both paths once, then interleave the measured repetitions so
     slow drift (thermal, page cache) hits both sides equally. *)
  ignore (run_once ~instrumented:false);
  ignore (run_once ~instrumented:true);
  let reps = 7 in
  let plain = ref [] and instr = ref [] in
  for _ = 1 to reps do
    plain := run_once ~instrumented:false :: !plain;
    instr := run_once ~instrumented:true :: !instr
  done;
  let best l = List.fold_left min infinity l in
  let p = best !plain and i = best !instr in
  let ratio = i /. p in
  let ok = ratio <= 1.03 in
  let notes =
    [
      Printf.sprintf "plain: %.1f ms best of %d" (p *. 1000.) reps;
      Printf.sprintf "instrumented-disabled: %.1f ms best of %d" (i *. 1000.)
        reps;
      Printf.sprintf "ratio: %.3fx (gate <= 1.030x)" ratio;
    ]
  in
  List.iter (fun s -> Harness.Report.note ("bobs " ^ s)) notes;
  [
    {
      id = "bobs";
      title = "BOBS: disabled-profiling overhead on the b1 step loop";
      seconds = p +. i;
      ok;
      notes;
    };
  ]

(* Drain curve: how the buffered-message population falls while the
   network digests a fully adversarial configuration. *)
let run_drain_chart () =
  Harness.Report.section "Chart: drain curve of an adversarial recovery (ring12)";
  let g = Topology.Builders.ring 12 in
  let n = 12 in
  let rng = Prng.Splitmix.of_int 4 in
  let wl = Harness.Workload.uniform_random rng ~n ~per_processor:2 in
  let proto = Ssmfp.Protocol.make g in
  let fault_rng = Prng.Splitmix.of_int 5 in
  let t =
    Sim.Engine.make ~graph:g ~protocol:proto (fun p ->
        Harness.Fault.initial_states ~rng:fault_rng Harness.Fault.adversarial g
          ~workload:wl p)
  in
  let daemon = Sim.Daemon.synchronous () in
  let samples = ref [] in
  let sample () =
    let round = (Sim.Engine.stats t).Sim.Engine.rounds in
    samples := (round, Ssmfp.Protocol.message_count (Sim.Engine.net t)) :: !samples
  in
  let raise_requests () =
    Topology.Graph.iter_vertices
      (fun p ->
        let st = Sim.Engine.state t p in
        if (not st.Ssmfp.State.request) && st.Ssmfp.State.outbox <> [] then
          Sim.Engine.set_state t p { st with Ssmfp.State.request = true })
      g
  in
  sample ();
  (try
     for _ = 1 to 100_000 do
       raise_requests ();
       match Sim.Engine.step t daemon with
       | None -> raise Exit
       | Some _ -> sample ()
     done
   with Exit -> ());
  let samples = List.rev !samples in
  let total_rounds =
    List.fold_left (fun acc (r, _) -> max acc r) 1 samples
  in
  let buckets = 12 in
  let series =
    List.init buckets (fun i ->
        let lo = i * total_rounds / buckets
        and hi = (i + 1) * total_rounds / buckets in
        let in_bucket =
          List.filter_map
            (fun (r, c) -> if r >= lo && r < max (lo + 1) hi then Some c else None)
            samples
        in
        let avg =
          match in_bucket with
          | [] -> 0.
          | l ->
              float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
        in
        (Printf.sprintf "rounds %3d-%-3d" lo hi, avg))
  in
  print_string
    (Harness.Report.bar_chart ~width:50
       ~title:"buffered messages (valid + invalid), synchronous daemon" series);
  print_newline ()

let run_figures () =
  List.iter
    (fun (name, body) ->
      Harness.Report.section name;
      print_string body)
    (Experiments.Figures.all ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let micro_tests () =
  let open Bechamel in
  let ring8 = Topology.Builders.ring 8 in
  let engine_steps graph spec seed steps () =
    let rng = Prng.Splitmix.of_int (seed + 500) in
    let wl =
      Harness.Workload.uniform_random rng ~n:(Topology.Graph.n graph)
        ~per_processor:1
    in
    let cfg =
      Harness.Runner.config ~spec ~daemon:Harness.Runner.Synchronous ~seed
        ~max_steps:steps graph wl
    in
    ignore (Harness.Runner.run cfg)
  in
  let routing_stabilize () =
    let tables = Routing.Table.worst_all ring8 in
    ignore (Routing.Selfstab.stabilize ring8 (Routing.Table.read tables))
  in
  let guard_evaluation =
    let g = ring8 in
    let proto = Ssmfp.Protocol.make g in
    let states = Array.init 8 (fun p -> Ssmfp.State.clean g p) in
    let net = Sim.Engine.synthetic ~graph:g ~states in
    fun () ->
      for p = 0 to 7 do
        ignore (proto.Sim.Engine.enabled net p)
      done
  in
  let baseline_run () =
    let rng = Prng.Splitmix.of_int 17 in
    let wl = Harness.Workload.uniform_random rng ~n:8 ~per_processor:2 in
    ignore (Harness.Runner.run_baseline ring8 wl)
  in
  let figure3 () = ignore (Ssmfp.Figure3.run ()) in
  [
    Test.make ~name:"engine: pristine delivery (ring8)"
      (Staged.stage (engine_steps ring8 Harness.Fault.pristine 1 5_000));
    Test.make ~name:"engine: adversarial recovery (ring8)"
      (Staged.stage (engine_steps ring8 Harness.Fault.adversarial 2 50_000));
    Test.make ~name:"routing: stabilize from worst (ring8)"
      (Staged.stage routing_stabilize);
    Test.make ~name:"protocol: guard sweep (ring8, quiet)"
      (Staged.stage guard_evaluation);
    Test.make ~name:"baseline: full workload (ring8)"
      (Staged.stage baseline_run);
    Test.make ~name:"figure3: scripted execution" (Staged.stage figure3);
  ]

let run_micro () =
  let open Bechamel in
  Harness.Report.section "Micro-benchmarks (Bechamel)";
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let results = benchmark (Test.make_grouped ~name:"ssmfp" (micro_tests ())) in
  let analysis = analyze results in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
          Printf.printf "  %-45s %12.0f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-45s (no estimate)\n" name)
    analysis

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.map String.lowercase_ascii args in
  (* --only <prefix> runs exactly the sections whose name starts with
     the prefix ("--only b3" for the mc legs, "--only b" for every
     bench suite) — CI uses it to run one suite without spelling out
     the full section list. *)
  let only_prefix, args =
    let rec split acc = function
      | "--only" :: p :: rest -> (Some p, List.rev_append acc rest)
      | a :: rest -> split (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    split [] args
  in
  let want what =
    match only_prefix with
    | Some p -> String.starts_with ~prefix:p what
    | None -> args = [] || List.mem what args
  in
  let table_filter =
    let is_id a =
      String.length a >= 2 && String.length a <= 3 && a.[0] = 'e'
    in
    List.filter is_id args
  in
  let t0 = Unix.gettimeofday () in
  let timings = ref [] in
  if
    (match only_prefix with
    | Some _ -> want "tables"
    | None -> table_filter <> [] || args = [] || List.mem "tables" args)
  then timings := !timings @ run_tables table_filter;
  (* A suite that wrote no entry would pass its gate unseen. *)
  let suite name run =
    if want name then
      match run () with
      | [] -> failwith (Printf.sprintf "bench %s wrote no entries" name)
      | entries -> timings := !timings @ entries
  in
  suite "campaign" (fun () -> [ run_campaign_bench () ]);
  suite "b1" run_b1;
  suite "b2" run_b2;
  suite "b3" run_b3;
  suite "b4" run_b4;
  suite "b5" run_b5;
  suite "bobs" run_bobs;
  if want "figures" then run_figures ();
  if want "charts" then begin
    run_charts ();
    run_scaling_chart ();
    run_drain_chart ()
  end;
  if want "micro" then run_micro ();
  if !timings <> [] then
    write_bench_json (next_bench_path ()) !timings (Unix.gettimeofday () -. t0);
  (match args with
  | "artifacts" :: rest ->
      export_artifacts (match rest with d :: _ -> d | [] -> "artifacts")
  | _ -> ());
  print_newline ();
  (* The exit status is the gate: any entry written with ok = false
     fails the run. *)
  match List.filter (fun t -> not t.ok) !timings with
  | [] -> ()
  | failed ->
      Printf.eprintf "bench: gate failed: %s\n"
        (String.concat ", " (List.map (fun t -> t.id) failed));
      exit 1
