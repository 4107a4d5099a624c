let schema = "ssmfp.campaign/3"

open Obs.Json

let summary_json (s : Harness.Stats.summary) =
  Obj
    [
      ("count", Int s.Harness.Stats.count);
      ("mean", Float s.Harness.Stats.mean);
      ("stddev", Float s.Harness.Stats.stddev);
      ("min", Float s.Harness.Stats.min);
      ("max", Float s.Harness.Stats.max);
      ("p50", Float s.Harness.Stats.p50);
      ("p90", Float s.Harness.Stats.p90);
      ("p99", Float s.Harness.Stats.p99);
    ]

let status_string (o : Pool.outcome) =
  match o.Pool.status with
  | Pool.Done s -> if s.Pool.verdict_ok then "ok" else "violated"
  | Pool.Crashed _ -> "crashed"

(* Δ^D as a float (the Prop. 5/6 latency envelope); degenerate graphs
   (single vertex) give Δ = 0, where the envelope is meaningless. *)
let delta_pow_d (o : Pool.outcome) =
  if o.Pool.delta <= 0 then nan
  else float_of_int o.Pool.delta ** float_of_int o.Pool.diameter

let ratio num den = if den > 0. && Float.is_finite num then num /. den else nan

let done_summaries outcomes =
  List.filter_map
    (fun (o : Pool.outcome) ->
      match o.Pool.status with Pool.Done s -> Some (o, s) | Pool.Crashed _ -> None)
    outcomes

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* nan when no element yields a finite value (Float.max propagates nan,
   so it cannot be the fold seed). *)
let max_float_over f l =
  let m =
    List.fold_left
      (fun acc x ->
        let v = f x in
        if Float.is_finite v then Float.max acc v else acc)
      neg_infinity l
  in
  if m = neg_infinity then nan else m

let delivery_rate dones =
  let submitted = sum (fun (_, s) -> s.Pool.submitted) dones in
  let delivered = sum (fun (_, s) -> s.Pool.valid_delivered) dones in
  ratio (float_of_int delivered) (float_of_int submitted)

let pooled_latency dones =
  Harness.Stats.summarize (List.concat_map (fun (_, s) -> s.Pool.latencies) dones)

let pooled_delay dones =
  Harness.Stats.summarize (List.concat_map (fun (_, s) -> s.Pool.delays) dones)

(* max over scenarios of the worst per-destination invalid count / 2n —
   Prop. 4 bounds each destination, not the run total, so ≤ 1.0 certifies
   the bound held everywhere in the group. *)
let worst_invalid_ratio dones =
  max_float_over
    (fun ((o : Pool.outcome), s) ->
      ratio (float_of_int s.Pool.invalid_worst_dest) (float_of_int (2 * o.Pool.n)))
    dones

(* max over scenarios of latency p99 / Δ^D — the measured Prop. 5 constant. *)
let worst_latency_vs_envelope dones =
  max_float_over
    (fun (o, s) ->
      ratio (Harness.Stats.percentile 99. s.Pool.latencies) (delta_pow_d o))
    dones

let count_status outcomes want =
  List.length (List.filter (fun o -> status_string o = want) outcomes)

(* Recovery aggregates over the chaos scenarios of a group (the ones whose
   summary carries a recovery report). [recovered] counts the runs that
   made it back to quiescence; [recovery_rounds] pools their
   last-burst-to-quiescence distances. *)
let recovery_reports dones =
  List.filter_map (fun (_, s) -> s.Pool.recovery) dones

(* Channel and snapshot roll-ups only appear in groups that actually
   carry them (mp scenarios / snapshot-on scenarios), so state-only
   groups keep their pre-/3 shape apart from the schema tag. *)
let channel_fields dones =
  match List.filter_map (fun (_, s) -> s.Pool.channel) dones with
  | [] -> []
  | chans ->
      let sumc f = sum f chans in
      [
        ( "channel",
          Chaos.Mp_run.channel_to_json
            {
              Mp.Ssmfp_mp.delivered = sumc (fun c -> c.Mp.Ssmfp_mp.delivered);
              lost = sumc (fun c -> c.Mp.Ssmfp_mp.lost);
              duplicated = sumc (fun c -> c.Mp.Ssmfp_mp.duplicated);
              reordered = sumc (fun c -> c.Mp.Ssmfp_mp.reordered);
              dropped_while_down =
                sumc (fun c -> c.Mp.Ssmfp_mp.dropped_while_down);
            } );
      ]

let snapshot_fields dones =
  match List.filter_map (fun (_, s) -> s.Pool.snapshot) dones with
  | [] -> []
  | snaps ->
      let sums f = sum f snaps in
      let agreeing =
        List.length (List.filter (fun s -> s.Chaos.Mp_run.cut_agrees) snaps)
      in
      [
        ( "snapshot",
          Obj
            [
              ("scenarios", Int (List.length snaps));
              ("epochs", Int (sums (fun s -> s.Chaos.Mp_run.epochs)));
              ("cuts", Int (sums (fun s -> s.Chaos.Mp_run.cuts)));
              ("consistent", Int (sums (fun s -> s.Chaos.Mp_run.consistent)));
              ("shadow_ok", Int (sums (fun s -> s.Chaos.Mp_run.shadow_ok)));
              ("abandoned", Int (sums (fun s -> s.Chaos.Mp_run.abandoned)));
              ( "markers_resent",
                Int (sums (fun s -> s.Chaos.Mp_run.markers_resent)) );
              ("cut_agrees", Int agreeing);
            ] );
      ]

let recovery_fields dones =
  match recovery_reports dones with
  | [] -> []
  | reports ->
      let recovered =
        List.filter (fun r -> r.Chaos.Recovery.recovery_rounds >= 0) reports
      in
      [
        ("chaos_scenarios", Int (List.length reports));
        ("recovered", Int (List.length recovered));
        ( "recovery_rounds",
          summary_json
            (Harness.Stats.summarize
               (List.sort compare
                  (List.map
                     (fun r -> float_of_int r.Chaos.Recovery.recovery_rounds)
                     recovered))) );
      ]

let group_json key outcomes =
  let dones = done_summaries outcomes in
  Obj
    ([
       ("key", String key);
       ("scenarios", Int (List.length outcomes));
       ("ok", Int (count_status outcomes "ok"));
       ("violated", Int (count_status outcomes "violated"));
       ("crashed", Int (count_status outcomes "crashed"));
       ("submitted", Int (sum (fun (_, s) -> s.Pool.submitted) dones));
       ("valid_delivered", Int (sum (fun (_, s) -> s.Pool.valid_delivered) dones));
       ("delivery_rate", Float (delivery_rate dones));
       ("duplicate_delivered", Int (sum (fun (_, s) -> s.Pool.duplicate_delivered) dones));
       ("invalid_delivered", Int (sum (fun (_, s) -> s.Pool.invalid_delivered) dones));
       ("worst_invalid_over_2n", Float (worst_invalid_ratio dones));
       ("latency_rounds", summary_json (pooled_latency dones));
       ("worst_latency_p99_over_delta_pow_d", Float (worst_latency_vs_envelope dones));
     ]
    @ channel_fields dones @ snapshot_fields dones @ recovery_fields dones)

let scenario_json (o : Pool.outcome) =
  let sc = o.Pool.scenario in
  let base =
    [
      ("id", String sc.Spec.id);
      ("topology", String sc.Spec.topology.Spec.t_name);
      ("n", Int o.Pool.n);
      ("delta", Int o.Pool.delta);
      ("diameter", Int o.Pool.diameter);
      ("delta_pow_d", Float (delta_pow_d o));
      ("corruption", String (Spec.corruption_to_string sc.Spec.corruption));
      ("daemon", String (Harness.Runner.daemon_kind_to_string sc.Spec.daemon));
      ("workload", String (Spec.workload_to_string sc.Spec.workload));
      ("model", String (Spec.model_to_string sc.Spec.model));
      ("chaos", String (Chaos.Schedule.to_string sc.Spec.chaos));
      ("snapshot_every", Int sc.Spec.snapshot);
      ("seed", Int sc.Spec.seed);
      ("status", String (status_string o));
    ]
  in
  match o.Pool.status with
  | Pool.Crashed c ->
      Obj
        (base
        @ [
            ("crash", String c.Pool.crash_msg);
            ("crash_backtrace", String c.Pool.crash_backtrace);
          ])
  | Pool.Done s ->
      Obj
        (base
        @ [
            ( "outcome",
              String
                (match s.Pool.outcome with
                | `Quiescent -> "quiescent"
                | `Max_steps -> "max_steps") );
            ("steps", Int s.Pool.steps);
            ("rounds", Int s.Pool.rounds);
            ("moves", Int s.Pool.moves);
            ("submitted", Int s.Pool.submitted);
            ("valid_generated", Int s.Pool.valid_generated);
            ("valid_delivered", Int s.Pool.valid_delivered);
            ("duplicate_delivered", Int s.Pool.duplicate_delivered);
            ("invalid_planted", Int s.Pool.invalid_planted);
            ("invalid_delivered", Int s.Pool.invalid_delivered);
            ("invalid_worst_dest", Int s.Pool.invalid_worst_dest);
            ("invalid_bound_per_dest", Int (2 * o.Pool.n));
            ("routing_settled_round", Int s.Pool.routing_settled_round);
            ("violations", List (List.map (fun v -> String v) s.Pool.violations));
            ("latency_rounds", summary_json (Harness.Stats.summarize s.Pool.latencies));
            ("delay_rounds", summary_json (Harness.Stats.summarize s.Pool.delays));
          ]
        @ (match s.Pool.channel with
          | None -> []
          | Some c -> [ ("channel", Chaos.Mp_run.channel_to_json c) ])
        @ (match s.Pool.snapshot with
          | None -> []
          | Some snap -> [ ("snapshot", Chaos.Mp_run.snapshot_to_json snap) ])
        @
        match s.Pool.recovery with
        | None -> []
        | Some r -> [ ("recovery", Chaos.Recovery.to_json r) ])

let totals_json outcomes =
  let dones = done_summaries outcomes in
  Obj
    ([
       ("scenarios", Int (List.length outcomes));
       ("ok", Int (count_status outcomes "ok"));
       ("violated", Int (count_status outcomes "violated"));
       ("crashed", Int (count_status outcomes "crashed"));
       ( "quiescent",
         Int
           (List.length
              (List.filter (fun (_, s) -> s.Pool.outcome = `Quiescent) dones)) );
       ("submitted", Int (sum (fun (_, s) -> s.Pool.submitted) dones));
       ("valid_generated", Int (sum (fun (_, s) -> s.Pool.valid_generated) dones));
       ("valid_delivered", Int (sum (fun (_, s) -> s.Pool.valid_delivered) dones));
       ("delivery_rate", Float (delivery_rate dones));
       ("duplicate_delivered", Int (sum (fun (_, s) -> s.Pool.duplicate_delivered) dones));
       ("invalid_planted", Int (sum (fun (_, s) -> s.Pool.invalid_planted) dones));
       ("invalid_delivered", Int (sum (fun (_, s) -> s.Pool.invalid_delivered) dones));
       ("worst_invalid_over_2n", Float (worst_invalid_ratio dones));
       ("latency_rounds", summary_json (pooled_latency dones));
       ("delay_rounds", summary_json (pooled_delay dones));
       ("worst_latency_p99_over_delta_pow_d", Float (worst_latency_vs_envelope dones));
     ]
    @ channel_fields dones @ snapshot_fields dones @ recovery_fields dones)

(* Axis breakdowns keep first-appearance order, which is itself stable
   because outcomes are sorted by scenario index first. *)
let group_by keyf outcomes =
  let keys =
    List.fold_left
      (fun acc o ->
        let k = keyf o in
        if List.mem k acc then acc else k :: acc)
      [] outcomes
    |> List.rev
  in
  List.map (fun k -> group_json k (List.filter (fun o -> keyf o = k) outcomes)) keys

let to_json outcomes =
  let outcomes =
    List.sort
      (fun (a : Pool.outcome) b ->
        compare a.Pool.scenario.Spec.index b.Pool.scenario.Spec.index)
      outcomes
  in
  let axis name keyf = (name, List (group_by keyf outcomes)) in
  Obj
    [
      ("schema", String schema);
      ("totals", totals_json outcomes);
      ("scenarios", List (List.map scenario_json outcomes));
      axis "by_topology" (fun o -> o.Pool.scenario.Spec.topology.Spec.t_name);
      axis "by_corruption" (fun o ->
          Spec.corruption_to_string o.Pool.scenario.Spec.corruption);
      axis "by_daemon" (fun o ->
          Harness.Runner.daemon_kind_to_string o.Pool.scenario.Spec.daemon);
      axis "by_workload" (fun o ->
          Spec.workload_to_string o.Pool.scenario.Spec.workload);
      axis "by_model" (fun o -> Spec.model_to_string o.Pool.scenario.Spec.model);
      axis "by_chaos" (fun o ->
          Chaos.Schedule.to_string o.Pool.scenario.Spec.chaos);
      axis "by_snapshot" (fun o ->
          if o.Pool.scenario.Spec.snapshot = 0 then "off"
          else Printf.sprintf "snap%d" o.Pool.scenario.Spec.snapshot);
    ]

let write path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string doc);
      output_char oc '\n')

(* What --from and --baseline read: a totals object, and per scenario a
   string id and a known status. A file missing any of them would load
   as a campaign with nothing failed. *)
let validate doc =
  let rec check i = function
    | [] -> Ok doc
    | sc :: rest -> (
        match Option.bind (member "id" sc) string_value with
        | None -> Error (Printf.sprintf "scenarios[%d] has no string \"id\"" i)
        | Some id -> (
            match Option.bind (member "status" sc) string_value with
            | Some ("ok" | "violated" | "crashed") -> check (i + 1) rest
            | _ ->
                Error
                  (Printf.sprintf
                     "scenario %S has no \"status\" of ok, violated or crashed"
                     id)))
  in
  match (member "totals" doc, Option.bind (member "scenarios" doc) to_list) with
  | Some (Obj _), Some scenarios -> check 0 scenarios
  | Some (Obj _), None -> Error "no \"scenarios\" list"
  | _ -> Error "no \"totals\" object"

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
      Result.map_error (Printf.sprintf "%s: %s" path)
        (match of_string contents with
        | Error e -> Error e
        | Ok doc -> (
            match Option.bind (member "schema" doc) string_value with
            | Some s when s = schema -> validate doc
            | Some s -> Error (Printf.sprintf "schema %S, expected %S" s schema)
            | None -> Error "not a campaign artifact (no schema field)"))

let scenarios_of doc =
  match Option.bind (member "scenarios" doc) to_list with
  | Some l -> Ok l
  | None -> Error "artifact has no scenarios list"

let scenario_ids doc =
  Result.map
    (List.filter_map (fun sc -> Option.bind (member "id" sc) string_value))
    (scenarios_of doc)

let failed_scenarios doc =
  Result.map
    (List.filter_map (fun sc ->
         match
           ( Option.bind (member "id" sc) string_value,
             Option.bind (member "status" sc) string_value )
         with
         | Some id, Some st when st <> "ok" -> Some id
         | _ -> None))
    (scenarios_of doc)

let render_summary doc =
  let ( let* ) = Result.bind in
  let* totals =
    Option.to_result ~none:"artifact has no totals" (member "totals" doc)
  in
  let int_field name =
    Option.value ~default:0 (Option.bind (member name totals) to_int)
  in
  let float_field j name =
    match Option.bind (member name j) to_float with
    | Some f when Float.is_finite f -> Printf.sprintf "%.2f" f
    | _ -> "-"
  in
  let* failed = failed_scenarios doc in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "scenarios   : %d (%d ok, %d violated, %d crashed; %d quiescent)\n"
       (int_field "scenarios") (int_field "ok") (int_field "violated")
       (int_field "crashed") (int_field "quiescent"));
  Buffer.add_string buf
    (Printf.sprintf "delivery    : %d/%d valid messages (rate %s)\n"
       (int_field "valid_delivered") (int_field "submitted")
       (float_field totals "delivery_rate"));
  Buffer.add_string buf
    (Printf.sprintf
       "invalid     : %d delivered of %d planted (worst ratio to 2n bound %s)\n"
       (int_field "invalid_delivered") (int_field "invalid_planted")
       (float_field totals "worst_invalid_over_2n"));
  (match member "latency_rounds" totals with
  | Some lat ->
      Buffer.add_string buf
        (Printf.sprintf
           "latency     : p50=%s p90=%s p99=%s rounds (worst p99/Δ^D %s)\n"
           (float_field lat "p50") (float_field lat "p90")
           (float_field lat "p99")
           (float_field totals "worst_latency_p99_over_delta_pow_d"))
  | None -> ());
  (match member "channel" totals with
  | Some ch ->
      let f name =
        Option.value ~default:0 (Option.bind (member name ch) to_int)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "channel     : %d delivered, %d lost, %d duplicated, %d reordered, %d crashed away\n"
           (f "delivered") (f "lost") (f "duplicated") (f "reordered")
           (f "dropped_while_down"))
  | None -> ());
  (match member "snapshot" totals with
  | Some sn ->
      let f name =
        Option.value ~default:0 (Option.bind (member name sn) to_int)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "snapshots   : %d cuts over %d epochs (%d consistent, %d shadow-ok, \
            %d abandoned); cut verdict agrees %d/%d\n"
           (f "cuts") (f "epochs") (f "consistent") (f "shadow_ok")
           (f "abandoned") (f "cut_agrees") (f "scenarios"))
  | None -> ());
  (match member "recovery_rounds" totals with
  | Some rr ->
      Buffer.add_string buf
        (Printf.sprintf
           "recovery    : %d/%d chaos scenarios quiesced (rounds p50=%s max=%s)\n"
           (int_field "recovered")
           (int_field "chaos_scenarios")
           (float_field rr "p50") (float_field rr "max"))
  | None -> ());
  List.iter
    (fun (axis, label) ->
      match Option.bind (member axis doc) to_list with
      | None | Some [] -> ()
      | Some groups ->
          Buffer.add_string buf (Printf.sprintf "%-12s:" ("by " ^ label));
          List.iter
            (fun g ->
              let key =
                Option.value ~default:"?"
                  (Option.bind (member "key" g) string_value)
              in
              let ok =
                Option.value ~default:0 (Option.bind (member "ok" g) to_int)
              in
              let total =
                Option.value ~default:0
                  (Option.bind (member "scenarios" g) to_int)
              in
              Buffer.add_string buf
                (Printf.sprintf " %s=%d/%d(p99 %s)" key ok total
                   (match member "latency_rounds" g with
                   | Some lat -> float_field lat "p99"
                   | None -> "-")))
            groups;
          Buffer.add_char buf '\n')
    [
      ("by_topology", "topology");
      ("by_corruption", "corruption");
      ("by_daemon", "daemon");
      ("by_workload", "workload");
      ("by_model", "model");
      ("by_chaos", "chaos");
      ("by_snapshot", "snapshot");
    ];
  (match failed with
  | [] -> ()
  | l ->
      Buffer.add_string buf
        (Printf.sprintf "FAILED      : %s\n" (String.concat ", " l)));
  Ok (Buffer.contents buf)
