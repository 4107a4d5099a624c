type outcome = {
  table : Harness.Report.table;
  ok : bool;
  notes : string list;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let rng_of seed = Prng.Splitmix.of_int seed

let graph_info g =
  ( Topology.Graph.n g,
    Topology.Graph.max_degree g,
    Topology.Metrics.diameter g )

let f1 = Printf.sprintf "%.1f"
let f2 = Printf.sprintf "%.2f"

type expector = {
  expect : 'a. bool -> ('a, unit, string, unit) format4 -> 'a;
}

let checker () =
  let notes = ref [] in
  let ck =
    {
      expect =
        (fun cond fmt ->
          Printf.ksprintf
            (fun s -> if not cond then notes := s :: !notes)
            fmt);
    }
  in
  let result table = { table; ok = !notes = []; notes = List.rev !notes } in
  (ck, result)

let pow_float b e = float_of_int b ** float_of_int e

(* ------------------------------------------------------------------ *)
(* E1 — Proposition 4: at most 2n invalid deliveries per destination   *)

let e1_invalid_deliveries () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [ "topology"; "n"; "planted"; "delivered to d"; "bound 2n"; "within" ]
  in
  let case name g seed =
    let n = Topology.Graph.n g in
    let dest = 0 in
    let planted = ref 0 in
    let spec = { Harness.Fault.pristine with routing = Harness.Fault.Random } in
    let cfg =
      Harness.Runner.config ~spec ~daemon:Harness.Runner.Distributed_random
        ~seed
        ~prepare:(fun states ->
          planted := Harness.Fault.fill_component g ~dest states)
        g
        (Harness.Workload.empty ~n)
    in
    let r = Harness.Runner.run cfg in
    let delivered =
      Option.value ~default:0
        (List.assoc_opt dest (Harness.Oracle.invalid_deliveries r.oracle))
    in
    ck.expect (r.outcome = `Quiescent) "E1 %s: did not reach quiescence" name;
    ck.expect (delivered <= 2 * n)
      "E1 %s: %d invalid deliveries to d exceeds 2n = %d" name delivered (2 * n);
    ck.expect (!planted = 2 * n) "E1 %s: expected to plant 2n messages" name;
    Harness.Report.add_row table
      [
        name;
        string_of_int n;
        string_of_int !planted;
        string_of_int delivered;
        string_of_int (2 * n);
        (if delivered <= 2 * n then "yes" else "NO");
      ]
  in
  case "ring" (Topology.Builders.ring 4) 11;
  case "ring" (Topology.Builders.ring 8) 12;
  case "ring" (Topology.Builders.ring 16) 13;
  case "path" (Topology.Builders.path 9) 14;
  case "random" (Topology.Builders.random_connected (rng_of 5) ~n:12 ~extra_edges:8) 15;
  case "star" (Topology.Builders.star 10) 16;
  result table

(* ------------------------------------------------------------------ *)
(* E2 — Proposition 5: worst-case delivery latency                     *)

let e2_worst_case_latency () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [
          "topology"; "n"; "Δ"; "D"; "tables"; "R_A"; "lat mean"; "lat max";
          "Δ^D"; "envelope";
        ]
  in
  let case name g routing seed =
    let n, delta, diam = graph_info g in
    let wl =
      Harness.Workload.saturating (rng_of (seed + 1000)) ~graph:g
        ~per_processor:3
    in
    let spec = { Harness.Fault.pristine with routing } in
    let cfg =
      Harness.Runner.config ~spec ~daemon:Harness.Runner.Synchronous ~seed g wl
    in
    let r = Harness.Runner.run cfg in
    let lat = Harness.Stats.summarize (Harness.Oracle.latencies r.oracle) in
    let bound = pow_float delta diam in
    let envelope =
      3. *. Float.max (float_of_int r.routing_settled_round) bound
    in
    ck.expect (r.outcome = `Quiescent && r.verdict.Harness.Oracle.ok)
      "E2 %s/%s: SP violated" name
      (match routing with Harness.Fault.Correct -> "correct" | _ -> "worst");
    ck.expect
      (lat.Harness.Stats.max <= envelope)
      "E2 %s: max latency %.0f exceeds 3*max(R_A, Δ^D) = %.0f" name
      lat.Harness.Stats.max envelope;
    Harness.Report.add_row table
      [
        name;
        string_of_int n;
        string_of_int delta;
        string_of_int diam;
        (match routing with
        | Harness.Fault.Correct -> "correct"
        | Harness.Fault.Random -> "random"
        | Harness.Fault.Worst -> "worst");
        string_of_int r.routing_settled_round;
        f1 lat.Harness.Stats.mean;
        f1 lat.Harness.Stats.max;
        f1 bound;
        f1 envelope;
      ]
  in
  List.iter
    (fun (name, g, seed) ->
      case name g Harness.Fault.Correct seed;
      case name g Harness.Fault.Worst (seed + 1))
    [
      ("path5", Topology.Builders.path 5, 21);
      ("path7", Topology.Builders.path 7, 23);
      ("ring8", Topology.Builders.ring 8, 25);
      ("star8", Topology.Builders.star 8, 27);
      ("btree7", Topology.Builders.binary_tree 7, 29);
    ];
  result table

(* ------------------------------------------------------------------ *)
(* E3 — Proposition 6: delay and waiting time                          *)

let waiting_times oracle =
  List.concat_map
    (fun (_, rounds) ->
      match rounds with
      | [] | [ _ ] -> []
      | first :: rest ->
          let _, acc =
            List.fold_left
              (fun (prev, acc) r -> (r, float_of_int (r - prev) :: acc))
              (first, []) rest
          in
          acc)
    (Harness.Oracle.generation_rounds oracle)

let e3_delay_and_waiting () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [
          "topology"; "n"; "Δ"; "D"; "tables"; "delay mean"; "delay max";
          "wait mean"; "wait max"; "envelope";
        ]
  in
  let case name g routing seed =
    let n, delta, diam = graph_info g in
    let wl =
      Harness.Workload.uniform_random (rng_of (seed + 2000)) ~n ~per_processor:5
    in
    let spec = { Harness.Fault.pristine with routing } in
    let cfg =
      Harness.Runner.config ~spec ~daemon:Harness.Runner.Synchronous ~seed g wl
    in
    let r = Harness.Runner.run cfg in
    let delays = Harness.Stats.summarize (Harness.Oracle.delays r.oracle) in
    let waits = Harness.Stats.summarize (waiting_times r.oracle) in
    let envelope =
      3.
      *. Float.max
           (float_of_int r.routing_settled_round)
           (pow_float delta diam)
    in
    ck.expect (r.outcome = `Quiescent && r.verdict.Harness.Oracle.ok)
      "E3 %s: SP violated" name;
    ck.expect
      (delays.Harness.Stats.max <= envelope)
      "E3 %s: max delay %.0f exceeds envelope %.0f" name
      delays.Harness.Stats.max envelope;
    ck.expect
      (Float.is_nan waits.Harness.Stats.max
      || waits.Harness.Stats.max <= envelope)
      "E3 %s: max waiting %.0f exceeds envelope %.0f" name
      waits.Harness.Stats.max envelope;
    Harness.Report.add_row table
      [
        name;
        string_of_int n;
        string_of_int delta;
        string_of_int diam;
        (match routing with
        | Harness.Fault.Correct -> "correct"
        | Harness.Fault.Random -> "random"
        | Harness.Fault.Worst -> "worst");
        f1 delays.Harness.Stats.mean;
        f1 delays.Harness.Stats.max;
        f1 waits.Harness.Stats.mean;
        f1 waits.Harness.Stats.max;
        f1 envelope;
      ]
  in
  List.iter
    (fun (name, g, seed) ->
      case name g Harness.Fault.Correct seed;
      case name g Harness.Fault.Worst (seed + 1))
    [
      ("ring8", Topology.Builders.ring 8, 31);
      ("path6", Topology.Builders.path 6, 33);
      ("star8", Topology.Builders.star 8, 35);
    ];
  result table

(* ------------------------------------------------------------------ *)
(* E4 — Proposition 7: amortized rounds per delivery                   *)

let e4_amortized () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [
          "topology"; "n"; "D"; "deliveries"; "rounds"; "rounds/delivery";
          "3D"; "Δ^D";
        ]
  in
  let case name g seed =
    let n, delta, diam = graph_info g in
    let wl =
      Harness.Workload.uniform_random (rng_of (seed + 3000)) ~n ~per_processor:3
    in
    let cfg =
      Harness.Runner.config ~daemon:Harness.Runner.Synchronous ~seed g wl
    in
    let r = Harness.Runner.run cfg in
    let delivered = Harness.Oracle.valid_delivered r.oracle in
    let per =
      float_of_int r.stats.Sim.Engine.rounds /. float_of_int (max 1 delivered)
    in
    ck.expect (r.outcome = `Quiescent && r.verdict.Harness.Oracle.ok)
      "E4 %s: SP violated" name;
    ck.expect
      (per <= float_of_int ((3 * diam) + 6))
      "E4 %s: %.2f rounds/delivery exceeds 3D + 6 = %d" name per ((3 * diam) + 6);
    Harness.Report.add_row table
      [
        name;
        string_of_int n;
        string_of_int diam;
        string_of_int delivered;
        string_of_int r.stats.Sim.Engine.rounds;
        f2 per;
        string_of_int (3 * diam);
        f1 (pow_float delta diam);
      ]
  in
  case "path3" (Topology.Builders.path 3) 41;
  case "path5" (Topology.Builders.path 5) 42;
  case "path9" (Topology.Builders.path 9) 43;
  case "path13" (Topology.Builders.path 13) 44;
  case "ring4" (Topology.Builders.ring 4) 45;
  case "ring8" (Topology.Builders.ring 8) 46;
  case "ring16" (Topology.Builders.ring 16) 47;
  result table

(* ------------------------------------------------------------------ *)
(* E5 — measured R_A (stabilization of the routing substrate)          *)

let e5_routing_stabilization () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [ "topology"; "n"; "D"; "tables"; "R_A sync"; "R_A distributed" ]
  in
  let case name g routing seed =
    let n, _, diam = graph_info g in
    let measure daemon seed =
      let spec = { Harness.Fault.pristine with routing } in
      let cfg =
        Harness.Runner.config ~spec ~daemon ~seed g
          (Harness.Workload.empty ~n)
      in
      let r = Harness.Runner.run cfg in
      ck.expect (r.outcome = `Quiescent) "E5 %s: routing did not stabilize" name;
      r.stats.Sim.Engine.rounds
    in
    let sync = measure Harness.Runner.Synchronous seed in
    let dist = measure Harness.Runner.Distributed_random (seed + 1) in
    (* One action per processor per step means the n per-destination
       waves interleave: R_A grows like n + D per destination stream,
       bounded well below n*D. The check is a runaway detector. *)
    let bound = (2 * n * max 1 diam) + 20 in
    ck.expect (sync <= bound)
      "E5 %s: synchronous R_A = %d exceeds 2nD + 20 = %d" name sync bound;
    Harness.Report.add_row table
      [
        name;
        string_of_int n;
        string_of_int diam;
        (match routing with
        | Harness.Fault.Correct -> "correct"
        | Harness.Fault.Random -> "random"
        | Harness.Fault.Worst -> "worst");
        string_of_int sync;
        string_of_int dist;
      ]
  in
  List.iter
    (fun (name, g, seed) ->
      case name g Harness.Fault.Random seed;
      case name g Harness.Fault.Worst (seed + 2))
    [
      ("path8", Topology.Builders.path 8, 51);
      ("ring8", Topology.Builders.ring 8, 55);
      ("ring16", Topology.Builders.ring 16, 57);
      ("grid4x4", Topology.Builders.grid ~rows:4 ~cols:4, 59);
      ("star8", Topology.Builders.star 8, 61);
      ( "random16",
        Topology.Builders.random_connected (rng_of 6) ~n:16 ~extra_edges:10,
        63 );
    ];
  result table

(* ------------------------------------------------------------------ *)
(* E6 — over-cost vs the fault-free baseline                           *)

let e6_overhead_vs_baseline () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [
          "topology"; "msgs"; "ssmfp rnd/dlv"; "base rnd/dlv"; "rounds ×";
          "ssmfp mv/dlv"; "base mv/dlv"; "moves ×";
        ]
  in
  let case name g seed =
    let n, _, _ = graph_info g in
    let wl =
      Harness.Workload.uniform_random (rng_of (seed + 4000)) ~n ~per_processor:2
    in
    let total = Harness.Workload.total wl in
    let cfg =
      Harness.Runner.config ~daemon:Harness.Runner.Synchronous ~seed g wl
    in
    let r = Harness.Runner.run cfg in
    let b = Harness.Runner.run_baseline g wl in
    let delivered = Harness.Oracle.valid_delivered r.oracle in
    let b_delivered = List.length b.Baseline.Forwarding.delivered in
    ck.expect (r.outcome = `Quiescent && r.verdict.Harness.Oracle.ok)
      "E6 %s: SSMFP SP violated" name;
    ck.expect (b_delivered = total) "E6 %s: baseline lost messages" name;
    let per x d = float_of_int x /. float_of_int (max 1 d) in
    let s_r = per r.stats.Sim.Engine.rounds delivered
    and b_r = per b.Baseline.Forwarding.rounds b_delivered
    and s_m = per r.stats.Sim.Engine.moves delivered
    and b_m = per b.Baseline.Forwarding.moves b_delivered in
    let ratio_r = s_r /. b_r and ratio_m = s_m /. b_m in
    (* "No significant over-cost" is asymptotic (both are Θ(D) amortized);
       the constant factor of the two-buffer handshake is ~2-7x. *)
    ck.expect (ratio_r <= 8.0)
      "E6 %s: rounds over-cost %.2f exceeds 8x" name ratio_r;
    ck.expect (ratio_m <= 8.0)
      "E6 %s: moves over-cost %.2f exceeds 8x" name ratio_m;
    Harness.Report.add_row table
      [
        name; string_of_int total; f2 s_r; f2 b_r; f2 ratio_r; f2 s_m; f2 b_m;
        f2 ratio_m;
      ]
  in
  case "ring8" (Topology.Builders.ring 8) 71;
  case "path8" (Topology.Builders.path 8) 72;
  case "star8" (Topology.Builders.star 8) 73;
  case "grid3x4" (Topology.Builders.grid ~rows:3 ~cols:4) 74;
  case "random12"
    (Topology.Builders.random_connected (rng_of 7) ~n:12 ~extra_edges:6)
    75;
  result table

(* ------------------------------------------------------------------ *)
(* E7 — snap-stabilization matrix + exhaustive model check             *)

let e7_snap_stabilization () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:[ "topology"; "corruption"; "daemons run"; "SP ok"; "note" ]
  in
  let fair_daemons =
    [
      Harness.Runner.Synchronous;
      Harness.Runner.Distributed_random;
      Harness.Runner.Round_robin;
      Harness.Runner.Central_random;
      Harness.Runner.Random_action;
    ]
  in
  let case name g spec_name spec seed =
    let n, _, _ = graph_info g in
    let ok_count = ref 0 in
    List.iteri
      (fun i daemon ->
        let wl =
          Harness.Workload.uniform_random
            (rng_of (seed + (100 * i)))
            ~n ~per_processor:2 ~distinct_payloads:false
        in
        let cfg = Harness.Runner.config ~spec ~daemon ~seed:(seed + i) g wl in
        let r = Harness.Runner.run cfg in
        if r.outcome = `Quiescent && r.verdict.Harness.Oracle.ok then
          incr ok_count
        else
          ck.expect false "E7 %s/%s/%s: %s" name spec_name
            (Harness.Runner.daemon_kind_to_string daemon)
            (String.concat "; " r.verdict.Harness.Oracle.violations))
      fair_daemons;
    Harness.Report.add_row table
      [
        name;
        spec_name;
        string_of_int (List.length fair_daemons);
        Printf.sprintf "%d/%d" !ok_count (List.length fair_daemons);
        (if !ok_count = List.length fair_daemons then "all exactly-once"
         else "VIOLATION");
      ]
  in
  let specs seed =
    [
      ("pristine", Harness.Fault.pristine, seed);
      ("random", Harness.Fault.random_spec (rng_of (seed + 7)), seed + 10);
      ("adversarial", Harness.Fault.adversarial, seed + 20);
    ]
  in
  List.iter
    (fun (name, g, seed) ->
      List.iter
        (fun (spec_name, spec, seed) -> case name g spec_name spec seed)
        (specs seed))
    [
      ("ring6", Topology.Builders.ring 6, 81);
      ("path5", Topology.Builders.path 5, 84);
      ("star6", Topology.Builders.star 6, 87);
      ("fig2net", Topology.Builders.paper_figure2, 90);
      ( "random10",
        Topology.Builders.random_connected (rng_of 8) ~n:10 ~extra_edges:5,
        93 );
    ];
  (* Exhaustive verification on the 2-processor chain. *)
  let sc = Mc.Explore.two_chain in
  let inits = Mc.Explore.enumerate_initials sc in
  let sr = Mc.Explore.check_safety sc inits in
  ck.expect (not sr.Mc.Explore.duplicate_delivery) "E7 mc: duplicate delivery";
  ck.expect (sr.Mc.Explore.lost_valid = None) "E7 mc: valid message lost";
  ck.expect (sr.Mc.Explore.deadlock = None) "E7 mc: deadlock";
  Harness.Report.add_row table
    [
      "2-chain (exhaustive)";
      Printf.sprintf "%d initials" sr.Mc.Explore.initial_count;
      Printf.sprintf "%d configs" sr.Mc.Explore.explored;
      (if
         (not sr.Mc.Explore.duplicate_delivery)
         && sr.Mc.Explore.lost_valid = None
         && sr.Mc.Explore.deadlock = None
       then "all"
       else "VIOLATION");
      "model-checked: no dup/loss/deadlock";
    ];
  result table

(* ------------------------------------------------------------------ *)
(* E8 — ablations: why colors, R5 and queue rotation exist             *)

(* Deterministic R5 wedge: on the Figure 2 network, an invalid message in
   bufE_c(b) with its true copy at bufR_b(b) and a stray at bufR_a(b). R5
   erases the stray and unblocks R4; without R5 the component wedges and
   c's workload can never be generated. *)
let r5_wedge_states g workload =
  let b, c = (1, 2) in
  fun (states : Ssmfp.State.t array) ->
    let plant p which =
      let msg = Ssmfp.Message.fresh_invalid ~at:p ~last:c ~color:0 "inv" in
      let sl = Ssmfp.State.slot states.(p) 1 in
      states.(p) <-
        (match which with
        | `R -> Ssmfp.State.with_slot states.(p) 1 { sl with buf_r = Some msg }
        | `E -> Ssmfp.State.with_slot states.(p) 1 { sl with buf_e = Some msg })
    in
    ignore (g, workload);
    plant 0 `R;
    (* stray copy (inv, c, 0) in bufR_a(b) *)
    plant b `R;
    (* true copy (inv, c, 0) in bufR_b(b) *)
    plant c `E
(* source occurrence (inv, c, 0) in bufE_c(b) *)

let e8_ablations () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [ "variant"; "scenario"; "outcome"; "lost"; "dup"; "generated"; "wait max" ]
  in
  let row variant_name scenario r expected_bad =
    let lost = List.length (Harness.Oracle.lost_ghosts r.Harness.Runner.oracle) in
    let dup =
      List.length (Harness.Oracle.duplicated_ghosts r.Harness.Runner.oracle)
    in
    let gen = Harness.Oracle.valid_generated r.Harness.Runner.oracle in
    let waits = waiting_times r.Harness.Runner.oracle in
    let wait_max = Harness.Stats.maximum waits in
    let bad =
      lost > 0 || dup > 0
      || r.Harness.Runner.outcome = `Max_steps
      || not r.Harness.Runner.verdict.Harness.Oracle.ok
    in
    if expected_bad then
      ck.expect bad "E8 %s/%s: ablated variant unexpectedly satisfied SP"
        variant_name scenario
    else
      ck.expect (not bad) "E8 %s/%s: faithful variant violated SP (%s)"
        variant_name scenario
        (String.concat "; " r.Harness.Runner.verdict.Harness.Oracle.violations);
    Harness.Report.add_row table
      [
        variant_name;
        scenario;
        (match r.Harness.Runner.outcome with
        | `Quiescent -> "quiescent"
        | `Max_steps -> "wedged");
        string_of_int lost;
        string_of_int dup;
        string_of_int gen;
        (if Float.is_nan wait_max then "-" else f1 wait_max);
      ]
  in
  (* Colors: repeated identical payloads on a path; without colors, a new
     occurrence merges with the stale downstream copy of its predecessor. *)
  let color_case variant_name variant expected_bad =
    let g = Topology.Builders.path 3 in
    let wl = Harness.Workload.single ~n:3 ~src:0 ~dest:2 ~count:6 in
    wl.(0) <- List.map (fun (d, _) -> (d, "same")) wl.(0);
    let any_bad = ref false and last = ref None in
    List.iter
      (fun seed ->
        let cfg =
          Harness.Runner.config ~variant ~daemon:Harness.Runner.Random_action
            ~seed ~max_steps:60_000 g wl
        in
        let r = Harness.Runner.run cfg in
        last := Some r;
        if
          (not r.Harness.Runner.verdict.Harness.Oracle.ok)
          || r.Harness.Runner.outcome = `Max_steps
        then any_bad := true)
      [ 101; 102; 103; 104; 105; 106; 107; 108 ];
    (match !last with
    | Some r -> row variant_name "6x identical payload, path3" r expected_bad
    | None -> ());
    if expected_bad then
      ck.expect !any_bad
        "E8 %s: no violation in any seed (expected at least one)" variant_name
    else
      ck.expect (not !any_bad) "E8 %s: violation under faithful variant"
        variant_name
  in
  color_case "faithful" Ssmfp.Protocol.faithful false;
  color_case "no-colors"
    { Ssmfp.Protocol.faithful with use_colors = false }
    true;
  (* R5: the deterministic wedge above. *)
  let r5_case variant_name variant expected_bad =
    let g = Topology.Builders.paper_figure2 in
    let wl = Harness.Workload.single ~n:4 ~src:2 ~dest:1 ~count:3 in
    let cfg =
      Harness.Runner.config ~variant ~daemon:Harness.Runner.Round_robin
        ~seed:111 ~max_steps:40_000 ~prepare:(r5_wedge_states g wl) g wl
    in
    let r = Harness.Runner.run cfg in
    row variant_name "stray duplicate wedge, fig2 net" r expected_bad
  in
  r5_case "faithful" Ssmfp.Protocol.faithful false;
  r5_case "no-R5" { Ssmfp.Protocol.faithful with use_r5 = false } true;
  (* The paper-literal R5 (no q <> p restriction): generating a message
     visibly identical to an invalid occupant of bufE erases it. *)
  let literal_case variant_name variant expected_bad =
    let g = Topology.Builders.path 2 in
    let wl = Harness.Workload.single ~n:2 ~src:0 ~dest:1 ~count:1 in
    wl.(0) <- [ (1, "v") ];
    let prepare states =
      let plant p d which msg =
        let sl = Ssmfp.State.slot states.(p) d in
        states.(p) <-
          (match which with
          | `R ->
              Ssmfp.State.with_slot states.(p) d
                { sl with Ssmfp.State.buf_r = Some msg }
          | `E ->
              Ssmfp.State.with_slot states.(p) d
                { sl with Ssmfp.State.buf_e = Some msg })
      in
      plant 0 1 `E (Ssmfp.Message.fresh_invalid ~at:0 ~last:0 ~color:0 "v");
      plant 1 1 `R (Ssmfp.Message.fresh_invalid ~at:1 ~last:0 ~color:1 "v")
    in
    let cfg =
      Harness.Runner.config ~variant ~daemon:Harness.Runner.Round_robin
        ~seed:161 ~prepare g wl
    in
    let r = Harness.Runner.run cfg in
    row variant_name "identical invalid in bufE, path2" r expected_bad
  in
  literal_case "faithful" Ssmfp.Protocol.faithful false;
  literal_case "literal-R5"
    { Ssmfp.Protocol.faithful with literal_r5 = true }
    true;
  (* Queue rotation: convergecast contention on a star. *)
  let rotation_case variant_name variant =
    let g = Topology.Builders.star 6 in
    let wl = Harness.Workload.all_to_one ~n:6 ~dest:0 ~per_processor:10 in
    let cfg =
      Harness.Runner.config ~variant ~daemon:Harness.Runner.Synchronous
        ~seed:121 g wl
    in
    let r = Harness.Runner.run cfg in
    row variant_name "all-to-one star6" r false;
    Harness.Stats.maximum (waiting_times r.Harness.Runner.oracle)
  in
  let fair_wait = rotation_case "faithful" Ssmfp.Protocol.faithful in
  let unfair_wait =
    rotation_case "no-rotation"
      { Ssmfp.Protocol.faithful with rotate_queue = false }
  in
  ck.expect
    (Float.is_nan fair_wait || Float.is_nan unfair_wait
    || fair_wait <= unfair_wait)
    "E8 rotation: fair queue waited longer (%.0f) than unfair (%.0f)"
    fair_wait unfair_wait;
  result table

(* ------------------------------------------------------------------ *)
(* E9 — the message-passing port                                       *)

let e9_message_passing () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [
          "topology"; "corruption"; "garbage"; "outcome"; "deliveries";
          "pulses"; "SP ok";
        ]
  in
  let case ?(loss = 0.) name g spec_name spec garbage seed =
    let n, _, _ = graph_info g in
    let wl =
      Harness.Workload.uniform_random (rng_of (seed + 5000)) ~n ~per_processor:2
    in
    let t =
      Mp.Ssmfp_mp.create ~spec ~channel_garbage:garbage ~loss ~seed g wl
    in
    let r = Mp.Ssmfp_mp.run t in
    ck.expect
      (r.Mp.Ssmfp_mp.outcome = `All_done
      && r.Mp.Ssmfp_mp.verdict.Harness.Oracle.ok)
      "E9 %s/%s/g%d: %s" name spec_name garbage
      (String.concat "; " r.Mp.Ssmfp_mp.verdict.Harness.Oracle.violations);
    Harness.Report.add_row table
      [
        name;
        (if loss > 0. then Printf.sprintf "%s, %.0f%% loss" spec_name (100. *. loss)
         else spec_name);
        string_of_int garbage;
        (match r.Mp.Ssmfp_mp.outcome with
        | `All_done -> "drained"
        | `Max_deliveries -> "BUDGET");
        string_of_int r.Mp.Ssmfp_mp.channel_deliveries;
        string_of_int r.Mp.Ssmfp_mp.max_pulse;
        (if r.Mp.Ssmfp_mp.verdict.Harness.Oracle.ok then "yes" else "NO");
      ]
  in
  List.iter
    (fun (name, g, seed) ->
      case name g "pristine" Harness.Fault.pristine 0 seed;
      case name g "adversarial" Harness.Fault.adversarial 0 (seed + 1);
      case name g "adversarial" Harness.Fault.adversarial 30 (seed + 2);
      case ~loss:0.2 name g "adversarial" Harness.Fault.adversarial 10 (seed + 3))
    [
      ("ring6", Topology.Builders.ring 6, 131);
      ("fig2net", Topology.Builders.paper_figure2, 134);
      ( "random8",
        Topology.Builders.random_connected (rng_of 9) ~n:8 ~extra_edges:4,
        137 );
    ];
  result table

(* ------------------------------------------------------------------ *)
(* E10 — buffer economics across deadlock-free schemes                 *)

let e10_buffer_economics () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [
          "topology"; "n"; "D"; "dest-based buf/proc"; "ssmfp buf/proc";
          "hop buf/proc"; "hop delivered"; "hop dropped";
        ]
  in
  let case name g seed =
    let n, _, diam = graph_info g in
    let wl =
      Harness.Workload.uniform_random (rng_of (seed + 6000)) ~n ~per_processor:2
    in
    let t = Baseline.Hop_scheme.create g in
    Array.iteri
      (fun src msgs ->
        List.iter
          (fun (dest, info) -> Baseline.Hop_scheme.send t ~src ~dest info)
          msgs)
      wl;
    (match Baseline.Hop_scheme.run_to_quiescence t with
    | `Quiescent -> ()
    | `Max_rounds -> ck.expect false "E10 %s: hop scheme did not quiesce" name);
    let st = Baseline.Hop_scheme.stats t in
    let delivered = List.length st.Baseline.Hop_scheme.delivered in
    ck.expect (delivered = Harness.Workload.total wl)
      "E10 %s: hop scheme delivered %d of %d" name delivered
      (Harness.Workload.total wl);
    ck.expect (st.Baseline.Hop_scheme.dropped = 0)
      "E10 %s: hop scheme dropped %d under correct tables" name
      st.Baseline.Hop_scheme.dropped;
    ck.expect
      (Baseline.Hop_scheme.buffers_per_processor t = diam + 1)
      "E10 %s: expected D+1 buffer classes" name;
    Harness.Report.add_row table
      [
        name;
        string_of_int n;
        string_of_int diam;
        string_of_int n;
        string_of_int (2 * n);
        string_of_int (diam + 1);
        string_of_int delivered;
        string_of_int st.Baseline.Hop_scheme.dropped;
      ]
  in
  case "ring8" (Topology.Builders.ring 8) 141;
  case "ring16" (Topology.Builders.ring 16) 142;
  case "path10" (Topology.Builders.path 10) 143;
  case "star10" (Topology.Builders.star 10) 144;
  case "grid4x4" (Topology.Builders.grid ~rows:4 ~cols:4) 145;
  case "hypercube4" (Topology.Builders.hypercube 4) 146;
  (* Corrupted tables break the hop scheme's acyclicity argument: the
     drop counter exposes the loss a snap-stabilizing protocol forbids. *)
  let g = Topology.Builders.ring 8 in
  let t = Baseline.Hop_scheme.create ~tables:(Routing.Table.worst_all g) g in
  for src = 0 to 7 do
    Baseline.Hop_scheme.send t ~src ~dest:((src + 3) mod 8) "x"
  done;
  ignore (Baseline.Hop_scheme.run_to_quiescence t);
  let st = Baseline.Hop_scheme.stats t in
  ck.expect (st.Baseline.Hop_scheme.dropped > 0)
    "E10: corrupted tables should make the hop scheme drop messages";
  Harness.Report.add_row table
    [
      "ring8 (worst tables)"; "8"; "4"; "-"; "-"; "5";
      string_of_int (List.length st.Baseline.Hop_scheme.delivered);
      string_of_int st.Baseline.Hop_scheme.dropped;
    ];
  result table

(* ------------------------------------------------------------------ *)
(* E11 — daemon sensitivity                                            *)

let e11_daemon_sensitivity () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [ "daemon"; "steps"; "rounds"; "moves"; "lat mean"; "lat max"; "SP" ]
  in
  let g = Topology.Builders.ring 8 in
  let run daemon seed =
    let wl =
      Harness.Workload.uniform_random (rng_of 7000) ~n:8 ~per_processor:2
    in
    let cfg =
      Harness.Runner.config ~spec:Harness.Fault.adversarial ~daemon ~seed g wl
    in
    let r = Harness.Runner.run cfg in
    let lat = Harness.Stats.summarize (Harness.Oracle.latencies r.oracle) in
    ck.expect (r.outcome = `Quiescent && r.verdict.Harness.Oracle.ok)
      "E11 %s: SP violated"
      (Harness.Runner.daemon_kind_to_string daemon);
    Harness.Report.add_row table
      [
        Harness.Runner.daemon_kind_to_string daemon;
        string_of_int r.stats.Sim.Engine.steps;
        string_of_int r.stats.Sim.Engine.rounds;
        string_of_int r.stats.Sim.Engine.moves;
        f1 lat.Harness.Stats.mean;
        f1 lat.Harness.Stats.max;
        (if r.verdict.Harness.Oracle.ok then "ok" else "NO");
      ]
  in
  List.iteri
    (fun i daemon -> run daemon (151 + i))
    [
      Harness.Runner.Synchronous;
      Harness.Runner.Distributed_random;
      Harness.Runner.Central_random;
      Harness.Runner.Round_robin;
      Harness.Runner.Random_action;
    ];
  result table

(* ------------------------------------------------------------------ *)
(* E12 — the fairness lemma behind Propositions 5 and 6: a waiting      *)
(* feeder is passed at most Δ times before choice_p(d) serves it        *)

let e12_choice_fairness () =
  let ck, result = checker () in
  let table =
    Harness.Report.table
      ~headers:
        [
          "topology"; "Δ"; "served events"; "passes mean"; "passes max";
          "bound Δ"; "within";
        ]
  in
  let case name g seed =
    let n = Topology.Graph.n g in
    let delta = Topology.Graph.max_degree g in
    let rng = rng_of (seed + 8000) in
    let wl =
      Harness.Workload.all_to_one ~n ~dest:0 ~per_processor:6
    in
    ignore rng;
    let proto = Ssmfp.Protocol.make g in
    let fault_rng = rng_of (seed + 8001) in
    let t =
      Sim.Engine.make ~graph:g ~protocol:proto (fun p ->
          Harness.Fault.initial_states ~rng:fault_rng Harness.Fault.pristine g
            ~workload:wl p)
    in
    let daemon = Sim.Daemon.synchronous () in
    (* passes.(gid) = times this ghost's emission buffer was an unserved
       candidate while its target reception buffer got filled by another
       feeder; recorded and reset when the ghost is finally served. *)
    let passes : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let recorded = ref [] in
    let bump gid = 
      Hashtbl.replace passes gid
        (1 + Option.value ~default:0 (Hashtbl.find_opt passes gid))
    in
    let serve gid =
      recorded := float_of_int (Option.value ~default:0 (Hashtbl.find_opt passes gid)) :: !recorded;
      Hashtbl.remove passes gid
    in
    let feeders_of p d ~except =
      let net = Sim.Engine.net t in
      List.filter_map
        (fun q ->
          if q = except then None
          else
            match (Ssmfp.State.slot net.Sim.Engine.states.(q) d).Ssmfp.State.buf_e with
            | Some m
              when Routing.Selfstab.next_hop
                     net.Sim.Engine.states.(q).Ssmfp.State.routing ~d
                   = p ->
                Some m.Ssmfp.Message.ghost.Ssmfp.Message.gid
            | _ -> None)
        (Topology.Graph.neighbors g p)
    in
    let on_events ~step:_ events =
      List.iter
        (fun (pid, ev) ->
          match ev with
          | Ssmfp.Protocol.Copied (m, s, d) ->
              (* the served feeder's ghost is the copied message's ghost *)
              serve m.Ssmfp.Message.ghost.Ssmfp.Message.gid;
              List.iter bump (feeders_of pid d ~except:s)
          | Ssmfp.Protocol.Generated (m, d) ->
              serve m.Ssmfp.Message.ghost.Ssmfp.Message.gid;
              List.iter bump (feeders_of pid d ~except:pid)
          | _ -> ())
        events
    in
    let status =
      Sim.Engine.run ~max_steps:500_000
        ~before_step:Ssmfp.Protocol.raise_requests ~on_events t daemon
    in
    ck.expect (status = `Terminal) "E12 %s: did not drain" name;
    let s = Harness.Stats.summarize !recorded in
    ck.expect
      (s.Harness.Stats.max <= float_of_int delta)
      "E12 %s: a feeder was passed %.0f times (> Δ = %d)" name
      s.Harness.Stats.max delta;
    Harness.Report.add_row table
      [
        name;
        string_of_int delta;
        string_of_int s.Harness.Stats.count;
        f2 s.Harness.Stats.mean;
        f1 s.Harness.Stats.max;
        string_of_int delta;
        (if s.Harness.Stats.max <= float_of_int delta then "yes" else "NO");
      ]
  in
  case "star6" (Topology.Builders.star 6) 171;
  case "star10" (Topology.Builders.star 10) 172;
  case "complete6" (Topology.Builders.complete 6) 173;
  case "grid3x3" (Topology.Builders.grid ~rows:3 ~cols:3) 174;
  case "ring8" (Topology.Builders.ring 8) 175;
  result table

let suite () =
  [
    ("E1 (Prop 4: invalid deliveries <= 2n)", e1_invalid_deliveries);
    ("E2 (Prop 5: worst-case latency)", e2_worst_case_latency);
    ("E3 (Prop 6: delay & waiting time)", e3_delay_and_waiting);
    ("E4 (Prop 7: amortized rounds/delivery)", e4_amortized);
    ("E5 (substrate: measured R_A)", e5_routing_stabilization);
    ("E6 (over-cost vs fault-free baseline)", e6_overhead_vs_baseline);
    ("E7 (snap-stabilization matrix + model check)", e7_snap_stabilization);
    ("E8 (ablations)", e8_ablations);
    ("E9 (message-passing port)", e9_message_passing);
    ("E10 (buffer economics of deadlock-free schemes)", e10_buffer_economics);
    ("E11 (daemon sensitivity)", e11_daemon_sensitivity);
    ("E12 (choice fairness: passes per hop <= \xce\x94)", e12_choice_fairness);
  ]

let all () = List.map (fun (name, f) -> (name, f ())) (suite ())
