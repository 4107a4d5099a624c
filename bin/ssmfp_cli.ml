(* Command-line front end: run simulations, regenerate the experiment
   tables and figures, export buffer graphs, and model-check.

   Examples:
     ssmfp_cli run --topology ring:8 --corruption adversarial --daemon distributed
     ssmfp_cli run --topology random:16:10 --messages 3 --seed 9
     ssmfp_cli tables e1 e4
     ssmfp_cli figures
     ssmfp_cli dot --topology path:5 --dest 0 --scheme ssmfp
     ssmfp_cli mc --scenario 2chain *)

open Cmdliner

module Spec = Campaign.Spec
module Pool = Campaign.Pool

(* ---------------- converters ---------------- *)

(* Counts, sizes and tolerances: a malformed value is a usage error
   (exit 124) that names the option, never an exception from deep inside
   a run. *)
let at_least of_string pp ~min ~what =
  Arg.conv
    ( (fun s ->
        match of_string s with
        | Some n when n >= min -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "invalid value %S, expected %s" s what))),
      pp )

let positive =
  at_least int_of_string_opt Format.pp_print_int ~min:1 ~what:"a positive integer"

let non_negative =
  at_least int_of_string_opt Format.pp_print_int ~min:0
    ~what:"a non-negative integer"

let non_negative_float =
  at_least float_of_string_opt Format.pp_print_float ~min:0.
    ~what:"a non-negative number"

(* One grammar for every command: the campaign grid DSL owns it. *)
let conv_of parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
      fun fmt v -> Format.pp_print_string fmt (print v) )

let topology_conv = conv_of Spec.topology_of_string (fun t -> t.Spec.t_name)
let corruption_conv = conv_of Spec.corruption_of_string Spec.corruption_to_string

let daemon_conv =
  conv_of Harness.Runner.daemon_kind_of_string
    Harness.Runner.daemon_kind_to_string

let schedule_conv = conv_of Chaos.Schedule.of_string Chaos.Schedule.to_string

(* ---------------- shared flags ---------------- *)

(* Each flag that several commands take is declared once here; a command
   passes only what differs (default, doc). *)

let topology_arg =
  Arg.(
    value
    & opt topology_conv (Spec.topology_exn "ring:8")
    & info [ "t"; "topology" ] ~docv:"TOPOLOGY"
        ~doc:"Network: ring:8, path:5, star:6, grid:3x4, random:12:6, fig2, ...")

let corruption_arg default =
  Arg.(
    value
    & opt corruption_conv default
    & info [ "c"; "corruption" ] ~docv:"LEVEL"
        ~doc:
          "Initial configuration: pristine, random or adversarial. A \
           random configuration is drawn from the seed.")

let daemon_arg default ~doc =
  Arg.(value & opt daemon_conv default & info [ "d"; "daemon" ] ~docv:"DAEMON" ~doc)

let schedule_arg default ~doc =
  Arg.(value & opt schedule_conv default & info [ "schedule" ] ~docv:"SPEC" ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Master seed.")

let messages_arg =
  Arg.(
    value & opt non_negative 2
    & info [ "m"; "messages" ] ~docv:"K"
        ~doc:"Messages per processor (uniform random destinations).")

let max_steps_arg parse default ~doc =
  Arg.(value & opt parse default & info [ "max-steps" ] ~docv:"N" ~doc)

let dest_arg ~doc =
  Arg.(value & opt non_negative 0 & info [ "dest" ] ~docv:"D" ~doc)

let every_arg default ~docv ~doc =
  Arg.(value & opt positive default & info [ "every" ] ~docv ~doc)

let workers_arg parse default ~doc =
  Arg.(value & opt parse default & info [ "workers" ] ~docv:"N" ~doc)

let file_arg names ~doc =
  Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)

let json_arg = file_arg [ "json" ]
let journal_arg = file_arg [ "journal" ]
let cut_journal_arg = file_arg [ "cut-journal" ]

(* Shared by mc/chaos/campaign: --profile writes a Chrome trace-event
   JSON (one lane per domain, loadable in Perfetto), --prof-summary
   prints the text report. Either one turns the profiler on. *)
let profile_arg =
  file_arg [ "profile" ]
    ~doc:
      "Write a Chrome trace-event JSON trace to $(docv) — load it in \
       Perfetto (ui.perfetto.dev) or chrome://tracing. One lane per \
       domain, counters as value tracks."

let prof_summary_arg =
  Arg.(
    value & flag
    & info [ "prof-summary" ]
        ~doc:
          "Print a profiling report: per-span totals, per-domain busy \
           time, counters, histogram digests and the wall-clock \
           attribution figure.")

(* ---------------- shared plumbing ---------------- *)

(* Artifact paths come from the command line: one that cannot be created
   or written is an error exit (2) with a message, never an uncaught
   exception. *)
let artifact_errors f =
  try f ()
  with Sys_error msg ->
    Printf.eprintf "ssmfp_cli: cannot write artifact: %s\n" msg;
    2

let write_json path doc =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Json.to_string doc);
      output_char oc '\n');
  Printf.printf "summary     : %s\n" path

let make_prof ~profile ~prof_summary ~tracks =
  if profile <> None || prof_summary then Obs.Prof.create ~tracks ()
  else Obs.Prof.disabled

let emit_prof ~profile ~prof_summary prof =
  if Obs.Prof.enabled prof then begin
    (match profile with
    | Some path ->
        Obs.Traceview.write_file path prof;
        Printf.printf "trace       : %s\n" path
    | None -> ());
    if prof_summary then print_string (Obs.Traceview.summary prof)
  end

(* Execute a scenario with the artifacts its flags ask for. On the state
   model, --json or --journal attach an observability sink; the journal
   streams to disk as events are recorded. On the mp model,
   --cut-journal streams one snapshot_cut JSONL line per completed cut,
   after [on_cut]. Closing both in a [finally] means an aborted run
   keeps partial JSONL. *)
let execute ?prof ?(on_cut = ignore) ?json_file ?journal_file ?cut_journal
    (sc : Spec.scenario) =
  let obs =
    if
      sc.Spec.model = Spec.State_model
      && (json_file <> None || journal_file <> None)
    then
      Some
        (Obs.Sink.create
           ~with_journal:(journal_file <> None)
           ?journal_path:journal_file ())
    else None
  in
  let cut_j =
    Option.map (fun path -> (path, Obs.Journal.create ~path ())) cut_journal
  in
  let on_cut (c : Snapshot.Ssmfp_link.cut) =
    on_cut c;
    Option.iter
      (fun (_, j) ->
        Obs.Journal.record_cut j ~step:c.Snapshot.Cut.completed_at
          ~epoch:c.Snapshot.Cut.epoch ~initiator:c.Snapshot.Cut.initiator
          ~fingerprint:(Snapshot.Ssmfp_link.fingerprint_hex c))
      cut_j
  in
  let run =
    Fun.protect
      ~finally:(fun () ->
        Option.iter Obs.Sink.close obs;
        Option.iter (fun (_, j) -> Obs.Journal.close j) cut_j)
      (fun () -> Pool.execute ?obs ?prof ~on_cut sc)
  in
  let journal =
    match (journal_file, Option.bind obs Obs.Sink.journal) with
    | Some path, Some j -> Some (path, j)
    | _ -> None
  in
  (run, journal, cut_j)

let print_journal label what =
  Option.iter (fun (path, j) ->
      Printf.printf "%s: %d %s -> %s\n" label (Obs.Journal.length j) what path)

let print_topology (t : Spec.topology) =
  let n, delta, diameter = Chaos.Recovery.graph_meta t.Spec.graph in
  Printf.printf "topology    : %s (n=%d, Δ=%d, D=%d)\n" t.Spec.t_name n delta
    diameter

let state_outcome = function
  | `Quiescent -> "quiescent"
  | `Max_steps -> "step budget exhausted"

let print_mp_outcome ~suffix (o : Chaos.Mp_run.outcome) =
  Printf.printf "outcome     : %s after %d deliveries / %d pulses%s\n"
    (match o.Chaos.Mp_run.mp_outcome with
    | `All_done -> "all drained"
    | `Max_deliveries -> "delivery budget exhausted")
    o.Chaos.Mp_run.channel_deliveries o.Chaos.Mp_run.max_pulse suffix

let print_channel (ch : Mp.Ssmfp_mp.channel_stats) =
  Printf.printf
    "channel     : %d delivered, %d lost, %d duplicated, %d reordered, %d dropped at down processes\n"
    ch.Mp.Ssmfp_mp.delivered ch.Mp.Ssmfp_mp.lost ch.Mp.Ssmfp_mp.duplicated
    ch.Mp.Ssmfp_mp.reordered ch.Mp.Ssmfp_mp.dropped_while_down

(* chaos and snapshot open alike. *)
let print_chaos_header (sc : Spec.scenario) =
  print_topology sc.Spec.topology;
  Printf.printf "schedule    : %s\n" (Chaos.Schedule.to_string sc.Spec.chaos);
  Printf.printf "corruption  : %s\n" (Spec.corruption_to_string sc.Spec.corruption)

(* --dest must name a processor of the chosen topology. *)
let check_dest graph dest =
  if dest >= Topology.Graph.n graph then begin
    Printf.eprintf "dest %d out of range\n" dest;
    exit 2
  end

(* ---------------- run command ---------------- *)

(* The machine-readable twin of the `run` command's printed report. *)
let run_summary_json (sc : Spec.scenario) ~journal_file
    (r : Harness.Runner.result) =
  let open Obs.Json in
  let n, delta, diameter = Chaos.Recovery.graph_meta sc.Spec.topology.Spec.graph in
  let oracle = r.Harness.Runner.oracle in
  let stats = r.Harness.Runner.stats in
  Obj
    [
      ( "topology",
        Obj
          [
            ("name", String sc.Spec.topology.Spec.t_name);
            ("n", Int n);
            ("max_degree", Int delta);
            ("diameter", Int diameter);
          ] );
      ("corruption", String (Spec.corruption_to_string sc.Spec.corruption));
      ("daemon", String (Harness.Runner.daemon_kind_to_string sc.Spec.daemon));
      ("seed", Int sc.Spec.seed);
      ( "outcome",
        String
          (match r.Harness.Runner.outcome with
          | `Quiescent -> "quiescent"
          | `Max_steps -> "max_steps") );
      ( "stats",
        Obj
          [
            ("steps", Int stats.Sim.Engine.steps);
            ("rounds", Int stats.Sim.Engine.rounds);
            ("moves", Int stats.Sim.Engine.moves);
            ( "moves_by_rule",
              Obj
                (List.map
                   (fun (rule, k) -> (rule, Int k))
                   stats.Sim.Engine.moves_by_rule) );
          ] );
      ("routing_settled_round", Int r.Harness.Runner.routing_settled_round);
      ("invalid_planted", Int r.Harness.Runner.invalid_planted);
      ("submitted", Int r.Harness.Runner.submitted);
      ( "oracle",
        Obj
          [
            ("valid_generated", Int (Harness.Oracle.valid_generated oracle));
            ("valid_delivered", Int (Harness.Oracle.valid_delivered oracle));
            ( "invalid_delivered",
              Int (Harness.Oracle.invalid_delivered_total oracle) );
            ( "duplicated_ghosts",
              Int (List.length (Harness.Oracle.duplicated_ghosts oracle)) );
            ("lost_ghosts", Int (List.length (Harness.Oracle.lost_ghosts oracle)));
            ("invalid_bound", Int (2 * n));
          ] );
      ( "verdict",
        Obj
          [
            ("ok", Bool r.Harness.Runner.verdict.Harness.Oracle.ok);
            ( "violations",
              List
                (List.map
                   (fun s -> String s)
                   r.Harness.Runner.verdict.Harness.Oracle.violations) );
          ] );
      ("metrics", Obs.Metrics.snapshot_to_json r.Harness.Runner.metrics);
      ( "journal",
        match journal_file with None -> Null | Some f -> String f );
    ]

let run_cmd =
  let daemon =
    daemon_arg Harness.Runner.Distributed_random
      ~doc:
        "Scheduler: synchronous, central, distributed, round-robin, \
         adversarial or random-action."
  in
  let workload_kind =
    let kinds =
      [ "uniform"; "all-to-one"; "one-to-all"; "permutation"; "neighbors" ]
    in
    Arg.(
      value
      & opt (enum (List.map (fun k -> (k, k)) kinds)) "uniform"
      & info [ "w"; "workload" ] ~docv:"KIND"
          ~doc:
            "Traffic pattern: uniform, all-to-one, one-to-all, permutation \
             or neighbors.")
  in
  let run topology corruption daemon seed messages max_steps workload_kind
      json_file journal_file =
    artifact_errors @@ fun () ->
    (* --workload KIND with --messages K is the campaign's KIND:K. *)
    let workload =
      Result.get_ok
        (Spec.workload_of_string (Printf.sprintf "%s:%d" workload_kind messages))
    in
    let sc =
      Spec.point ~daemon ~model:Spec.State_model ~chaos:Chaos.Schedule.none
        ~seed ~max_steps topology corruption workload
    in
    let run, journal, _ = execute ?json_file ?journal_file sc in
    let r =
      match run with Pool.State o -> o.run | Pool.Mp _ -> assert false
    in
    let n = Topology.Graph.n topology.Spec.graph in
    print_topology topology;
    Printf.printf "corruption  : %s (%d invalid messages planted)\n"
      (Spec.corruption_to_string corruption)
      r.invalid_planted;
    Printf.printf "daemon      : %s\n" (Harness.Runner.daemon_kind_to_string daemon);
    Printf.printf "outcome     : %s after %d steps / %d rounds / %d moves\n"
      (state_outcome r.outcome) r.stats.Sim.Engine.steps
      r.stats.Sim.Engine.rounds r.stats.Sim.Engine.moves;
    Printf.printf "moves       : %s\n"
      (String.concat ", "
         (List.map
            (fun (rule, k) -> Printf.sprintf "%s=%d" rule k)
            r.stats.Sim.Engine.moves_by_rule));
    Printf.printf "routing R_A : settled at round %d\n" r.routing_settled_round;
    Printf.printf "valid       : %d generated, %d delivered\n"
      (Harness.Oracle.valid_generated r.oracle)
      (Harness.Oracle.valid_delivered r.oracle);
    Printf.printf "invalid     : %d delivered (bound 2n=%d per destination)\n"
      (Harness.Oracle.invalid_delivered_total r.oracle)
      (2 * n);
    let lat = Harness.Stats.summarize (Harness.Oracle.latencies r.oracle) in
    if lat.Harness.Stats.count > 0 then
      Printf.printf "latency     : %s\n"
        (Format.asprintf "%a" Harness.Stats.pp_summary lat);
    Printf.printf "SP verdict  : %s\n"
      (if r.verdict.Harness.Oracle.ok then "satisfied (exactly-once)"
       else "VIOLATED — " ^ String.concat "; " r.verdict.Harness.Oracle.violations);
    print_journal "journal     " "events" journal;
    Option.iter
      (fun path -> write_json path (run_summary_json sc ~journal_file r))
      json_file;
    if r.verdict.Harness.Oracle.ok then 0 else 1
  in
  let term =
    Term.(
      const run $ topology_arg
      $ corruption_arg Spec.Adversarial
      $ daemon $ seed_arg $ messages_arg
      $ max_steps_arg positive 2_000_000 ~doc:"Step budget."
      $ workload_kind
      $ json_arg
          ~doc:
            "Write a machine-readable run summary (outcome, engine stats, \
             oracle verdict, metrics snapshot) to $(docv)."
      $ journal_arg
          ~doc:
            "Write the structured event journal to $(docv) as JSONL (one \
             protocol event per line with step, round, pid and ghost id).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run SSMFP on a network from a (possibly corrupted) configuration.")
    term

(* ---------------- tables command ---------------- *)

let tables_cmd =
  let suite = Experiments.Tables.suite () in
  (* An experiment's id is its display name's first word, lowercased. *)
  let id_of (name, _) =
    String.lowercase_ascii (List.hd (String.split_on_char ' ' name))
  in
  let known = String.concat ", " (List.map id_of suite) in
  (* An unknown id is a usage error naming it, before anything runs. *)
  let parse s =
    let id = String.lowercase_ascii s in
    if List.exists (fun e -> id_of e = id) suite then Ok id
    else Error (`Msg (Printf.sprintf "unknown experiment id %S, expected one of %s" s known))
  in
  let ids =
    Arg.(
      value & pos_all (conv (parse, Format.pp_print_string)) []
      & info [] ~docv:"ID" ~doc:("Experiments to run, among " ^ known ^ " (default all)."))
  in
  (* Only the requested experiments are forced. *)
  let run wanted =
    let code = ref 0 in
    List.iter
      (fun ((name, experiment) as e) ->
        if wanted = [] || List.mem (id_of e) wanted then begin
          let o : Experiments.Tables.outcome = experiment () in
          Harness.Report.section name;
          Harness.Report.print o.table;
          if not o.ok then begin
            code := 1;
            List.iter (fun s -> Harness.Report.note ("VIOLATED: " ^ s)) o.notes
          end
        end)
      suite;
    !code
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the experiment tables (EXPERIMENTS.md).")
    Term.(const run $ ids)

let figures_cmd =
  let run () =
    List.iter
      (fun (name, body) ->
        Harness.Report.section name;
        print_string body)
      (Experiments.Figures.all ());
    0
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures (1-4).")
    Term.(const run $ const ())

(* ---------------- dot command ---------------- *)

let dot_cmd =
  let scheme =
    Arg.(
      value
      & opt (enum [ ("ssmfp", `Ssmfp); ("destination", `Dest) ]) `Ssmfp
      & info [ "scheme" ] ~doc:"Buffer graph scheme: ssmfp or destination.")
  in
  let run topology dest scheme =
    let graph = topology.Spec.graph in
    check_dest graph dest;
    let tables = Routing.Table.correct_all graph in
    let next_hop ~p ~d = Routing.Selfstab.next_hop tables.(p) ~d in
    let bg =
      match scheme with
      | `Ssmfp -> Ssmfp.Buffer_graph.ssmfp graph ~next_hop
      | `Dest -> Ssmfp.Buffer_graph.destination_based graph ~next_hop
    in
    print_string
      (Ssmfp.Buffer_graph.to_dot (Ssmfp.Buffer_graph.component bg ~dest));
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a buffer graph in Graphviz DOT format.")
    Term.(
      const run $ topology_arg $ dest_arg ~doc:"Destination component." $ scheme)

(* ---------------- watch command ---------------- *)

let watch_cmd =
  let steps =
    Arg.(value & opt positive 40 & info [ "steps" ] ~docv:"N" ~doc:"Steps to display.")
  in
  let run topology corruption dest steps every seed =
    let graph = topology.Spec.graph in
    check_dest graph dest;
    let n = Topology.Graph.n graph in
    let spec = Spec.fault_spec corruption ~seed in
    let master = Prng.Splitmix.of_int seed in
    let fault_rng = Prng.Splitmix.split master in
    let daemon_rng = Prng.Splitmix.split master in
    let wl_rng = Prng.Splitmix.split master in
    let workload = Harness.Workload.uniform_random wl_rng ~n ~per_processor:1 in
    let protocol = Ssmfp.Protocol.make graph in
    let t =
      Sim.Engine.make ~graph ~protocol (fun p ->
          Harness.Fault.initial_states ~rng:fault_rng spec graph
            ~workload p)
    in
    let daemon = Sim.Daemon.distributed_random daemon_rng in
    Printf.printf "%s, %s corruption, watching destination %d\n"
      topology.Spec.t_name
      (Spec.corruption_to_string corruption)
      dest;
    print_endline
      (Harness.Viz.frame graph (Sim.Engine.net t) ~dest ~step:0 ~moves:[]);
    let moves_of events =
      List.filter_map
        (fun (pid, ev) ->
          match ev with
          | Ssmfp.Protocol.Routing_update d when d = dest ->
              Some (Printf.sprintf "p%d:RA" pid)
          | Ssmfp.Protocol.Generated (_, d)
          | Ssmfp.Protocol.Internal_forward (_, d)
          | Ssmfp.Protocol.Copied (_, _, d)
          | Ssmfp.Protocol.Erased_after_forward (_, d)
          | Ssmfp.Protocol.Erased_duplicate (_, d)
            when d = dest ->
              Some (Printf.sprintf "p%d" pid)
          | Ssmfp.Protocol.Delivered _ when pid = dest ->
              Some (Printf.sprintf "p%d:deliver" pid)
          | _ -> None)
        events
    in
    (try
       for i = 1 to steps do
         Ssmfp.Protocol.raise_requests t;
         match Sim.Engine.step t daemon with
         | None ->
             print_endline "(terminal configuration reached)";
             raise Exit
         | Some events ->
             if i mod every = 0 then
               print_endline
                 (Harness.Viz.frame graph (Sim.Engine.net t) ~dest ~step:i
                    ~moves:(moves_of events))
       done
     with Exit -> ());
    print_endline "caterpillars now:";
    print_endline (Harness.Viz.caterpillars graph (Sim.Engine.net t) ~dest);
    0
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Step a run and render one destination's buffers after each step.")
    Term.(
      const run $ topology_arg
      $ corruption_arg Spec.Adversarial
      $ dest_arg ~doc:"Destination component to display."
      $ steps
      $ every_arg 1 ~docv:"K" ~doc:"Render every K-th step."
      $ seed_arg)

(* ---------------- pif command ---------------- *)

let pif_cmd =
  let waves =
    Arg.(value & opt positive 3 & info [ "waves" ] ~docv:"K" ~doc:"Waves to run.")
  in
  let root =
    Arg.(value & opt int 0 & info [ "root" ] ~docv:"R" ~doc:"Root processor.")
  in
  let corrupted =
    Arg.(value & flag & info [ "corrupted" ] ~doc:"Random initial phases.")
  in
  let run topology waves root corrupted seed =
    match Pif.tree_of topology.Spec.graph ~root with
    | exception Invalid_argument msg ->
        Printf.eprintf "%s (pif needs a tree topology, e.g. path:5, btree:7)\n" msg;
        2
    | tree ->
        let rng = Prng.Splitmix.of_int seed in
        let initial _ =
          if corrupted then Prng.Splitmix.choose rng [ Pif.B; Pif.F; Pif.C ]
          else Pif.C
        in
        let r =
          Pif.run_waves ~initial tree ~waves
            ~daemon:(Sim.Daemon.distributed_random rng)
        in
        Printf.printf
          "%s root %d: %d waves completed in %d rounds (%d steps); coverage %s\n"
          topology.Spec.t_name root r.Pif.waves_completed r.Pif.rounds r.Pif.steps
          (if r.Pif.coverage_ok then "ok" else "VIOLATED");
        if r.Pif.coverage_ok && r.Pif.waves_completed >= waves then 0 else 1
  in
  Cmd.v
    (Cmd.info "pif"
       ~doc:"Run the companion snap-stabilizing PIF protocol on a tree.")
    Term.(const run $ topology_arg $ waves $ root $ corrupted $ seed_arg)

(* ---------------- mc command ---------------- *)

let mc_cmd =
  let scenario =
    Arg.(
      value
      & opt (enum [ ("2chain", `Two); ("3chain", `Three) ]) `Two
      & info [ "scenario" ] ~doc:"2chain (exhaustive) or 3chain (sampled).")
  in
  let samples =
    Arg.(
      value & opt positive 2000
      & info [ "samples" ] ~docv:"N" ~doc:"Initial configurations for 3chain.")
  in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:
            "Disable the ample-set partial-order reduction (on by \
             default here; it never changes verdicts, only the explored \
             counts).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the visited-store footprint after the safety search.")
  in
  let run scenario samples workers no_por stats profile prof_summary =
    artifact_errors @@ fun () ->
    let sc, inits =
      match scenario with
      | `Two ->
          let sc = Mc.Explore.two_chain in
          (sc, Mc.Explore.enumerate_initials sc)
      | `Three ->
          let sc = Mc.Explore.three_chain in
          (sc, Mc.Explore.sample_initials (Prng.Splitmix.of_int 5) ~count:samples sc)
    in
    Printf.printf "initial configurations: %d\n%!" (List.length inits);
    let workers = Mc.Par.effective_workers workers in
    let prof = make_prof ~profile ~prof_summary ~tracks:workers in
    let sr =
      try Mc.Explore.check_safety ~workers ~por:(not no_por) ~prof sc inits
      with Mc.Par.Workers_unavailable reason ->
        Printf.eprintf
          "ssmfp_cli: option '--workers': cannot start %d worker domains (%s)\n"
          workers reason;
        exit Cmd.Exit.cli_error
    in
    Printf.printf "safety: %d configurations, %d transitions\n"
      sr.Mc.Explore.explored sr.Mc.Explore.transitions;
    Printf.printf "  duplicate delivery: %b\n" sr.Mc.Explore.duplicate_delivery;
    Printf.printf "  lost valid message: %s\n"
      (Option.value ~default:"none" sr.Mc.Explore.lost_valid);
    Printf.printf "  deadlock: %s\n"
      (Option.value ~default:"none" sr.Mc.Explore.deadlock);
    if stats then begin
      let v = sr.Mc.Explore.visited in
      Printf.printf
        "  visited store: %d entries, %d key bytes, %d table bytes, load %.2f\n"
        v.Mc.Store.entries v.Mc.Store.key_bytes v.Mc.Store.table_bytes
        v.Mc.Store.load
    end;
    (* Emit the trace before liveness: the spans cover the safety search,
       and a liveness failure should not lose the artifact. *)
    emit_prof ~profile ~prof_summary prof;
    let lr = Mc.Explore.check_liveness sc inits in
    Printf.printf "liveness: %d runs, worst %d steps, %d failures\n"
      lr.Mc.Explore.checked lr.Mc.Explore.max_steps_seen
      (List.length lr.Mc.Explore.failures);
    List.iteri
      (fun i s -> if i < 5 then Printf.printf "  %s\n" s)
      lr.Mc.Explore.failures;
    if
      sr.Mc.Explore.duplicate_delivery
      || sr.Mc.Explore.lost_valid <> None
      || sr.Mc.Explore.deadlock <> None
      || lr.Mc.Explore.failures <> []
    then 1
    else 0
  in
  Cmd.v
    (Cmd.info "mc" ~doc:"Model-check SP on small networks.")
    Term.(
      const run $ scenario $ samples
      $ workers_arg non_negative 1
          ~doc:
            "Work-stealing worker domains for the safety search; 0 \
             autodetects (one less than the recommended domain count). \
             The report is identical for any worker count."
      $ no_por $ stats $ profile_arg $ prof_summary_arg)

(* ---------------- chaos command ---------------- *)

let chaos_cmd =
  let model =
    Arg.(
      value
      & opt (enum [ ("state", Spec.State_model); ("mp", Spec.Mp_model) ])
          Spec.State_model
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Execution model: state (shared-memory engine, burst rounds are \
             engine rounds) or mp (message-passing synchronizer, burst \
             rounds are pulses).")
  in
  let channel_garbage =
    Arg.(
      value & opt non_negative 0
      & info [ "channel-garbage" ] ~docv:"K"
          ~doc:"Mp model only: forged messages pre-loaded into the channels.")
  in
  let snapshot_every =
    Arg.(
      value & opt non_negative 0
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Mp model only: initiate an in-band Chandy–Lamport snapshot \
             every $(docv) channel deliveries and check the cut oracle \
             online; 0 (default) disables the layer entirely.")
  in
  let report_lines (r : Chaos.Recovery.report) =
    Printf.printf "bursts fired: %s\n"
      (if r.Chaos.Recovery.burst_rounds = [] then "none"
       else
         String.concat ", "
           (List.map string_of_int r.Chaos.Recovery.burst_rounds));
    Printf.printf "post-burst  : %d generated, %d delivered once, %d duplicated, %d lost\n"
      r.Chaos.Recovery.post_generated r.Chaos.Recovery.post_delivered_once
      r.Chaos.Recovery.post_duplicated r.Chaos.Recovery.post_lost;
    Printf.printf
      "invalid     : %d delivered total, worst window %d (2n budget %d per fault event)\n"
      r.Chaos.Recovery.invalid_total r.Chaos.Recovery.invalid_worst_window
      r.Chaos.Recovery.invalid_budget;
    (if r.Chaos.Recovery.recovery_rounds >= 0 then
       Printf.printf
         "recovery    : %d rounds after the last burst (envelope max(R_A, Δ^D) = %d%s)\n"
         r.Chaos.Recovery.recovery_rounds r.Chaos.Recovery.envelope_rounds
         (if r.Chaos.Recovery.within_envelope then ", within" else ", above")
     else Printf.printf "recovery    : never re-reached quiescence\n");
    Printf.printf "chaos check : %s\n"
      (if r.Chaos.Recovery.ok then "recovery oracle satisfied"
       else "VIOLATED — " ^ String.concat "; " r.Chaos.Recovery.violations)
  in
  (* A flag or schedule modifier meant for the other model is a usage
     error, not a no-op. *)
  let check_model_flags (sc : Spec.scenario) ~journal_file ~cut_journal =
    let cut_journal_needs = "--model mp and --snapshot-every" in
    let misplaced =
      match sc.Spec.model with
      | Spec.Mp_model ->
          if journal_file <> None then Some ("--journal", "--model state")
          else if cut_journal <> None && sc.Spec.snapshot = 0 then
            Some ("--cut-journal", cut_journal_needs)
          else None
      | Spec.State_model -> (
          match Spec.mp_only sc with
          | Some setting -> Some (setting, "--model mp")
          | None when cut_journal <> None ->
              Some ("--cut-journal", cut_journal_needs)
          | None -> None)
    in
    Option.iter
      (fun (flag, needs) ->
        Printf.eprintf "ssmfp_cli: option '%s': needs %s\n" flag needs;
        exit Cmd.Exit.cli_error)
      misplaced
  in
  let run topology schedule model corruption daemon seed messages
      channel_garbage max_steps json_file journal_file snapshot_every
      cut_journal profile prof_summary =
    (* A single run is its campaign scenario, but for channel garbage:
       the flag's, not the grid's. *)
    let sc =
      {
        (Spec.point ~daemon ~snapshot:snapshot_every ~model ~chaos:schedule
           ~seed ~max_steps topology corruption (Spec.Uniform messages))
        with
        Spec.channel_garbage;
      }
    in
    check_model_flags sc ~journal_file ~cut_journal;
    artifact_errors @@ fun () ->
    print_chaos_header sc;
    let prof = make_prof ~profile ~prof_summary ~tracks:1 in
    let print_faults ~at fired ~aftermath_submitted =
      Printf.printf "faults      : %s\n"
        (if fired = [] then "none fired"
         else
           String.concat ", "
             (List.map
                (fun (t, victims) ->
                  Printf.sprintf "%s %d -> %d victim(s)" at t victims)
                fired));
      Printf.printf "aftermath   : %d probe request(s)\n" aftermath_submitted
    in
    (* Both models end alike: the verdict line, the journal line, the
       JSON summary and the profile. *)
    let conclude ~model ~fired ~report ~sp_ok ~journal (verdict_ok, violations, _)
        extra =
      Printf.printf "verdict     : %s\n"
        (if verdict_ok then "ok"
         else "VIOLATED — " ^ String.concat "; " violations);
      journal ();
      Option.iter
        (fun path ->
          let open Obs.Json in
          write_json path
            (Obj
               ([
                  ("topology", String topology.Spec.t_name);
                  ("model", String model);
                  ("schedule", String (Chaos.Schedule.to_string schedule));
                  ("seed", Int seed);
                  ( "fired",
                    List
                      (List.map
                         (fun (round, victims) ->
                           Obj [ ("round", Int round); ("victims", Int victims) ])
                         fired) );
                  ("recovery", Chaos.Recovery.to_json report);
                  ("sp_whole_run_ok", Bool sp_ok);
                  ("verdict_ok", Bool verdict_ok);
                ]
               @ extra)))
        json_file;
      emit_prof ~profile ~prof_summary prof;
      if verdict_ok then 0 else 1
    in
    let run, journal, cut_j =
      execute ~prof ?json_file ?journal_file ?cut_journal sc
    in
    match run with
    | Pool.State o ->
        let r = o.run in
        Printf.printf "model       : state (%s daemon)\n"
          (Harness.Runner.daemon_kind_to_string daemon);
        Printf.printf "outcome     : %s after %d steps / %d rounds\n"
          (state_outcome r.Harness.Runner.outcome)
          r.Harness.Runner.stats.Sim.Engine.steps
          r.Harness.Runner.stats.Sim.Engine.rounds;
        print_faults ~at:"round" o.Chaos.Runner.fired
          ~aftermath_submitted:o.Chaos.Runner.aftermath_submitted;
        report_lines o.Chaos.Runner.report;
        conclude ~model:"state" ~fired:o.Chaos.Runner.fired
          ~report:o.Chaos.Runner.report
          ~sp_ok:o.Chaos.Runner.sp_verdict.Harness.Oracle.ok
          ~journal:(fun () -> print_journal "journal     " "events" journal)
          (Chaos.Recovery.verdict ~schedule ~verdict:o.Chaos.Runner.sp_verdict
             ~report:o.Chaos.Runner.report)
          []
    | Pool.Mp o ->
        Printf.printf "model       : mp (α-synchronizer port)\n";
        Printf.printf "retransmit  : sliding window (w=%d)%s\n"
          o.Chaos.Mp_run.window
          (match schedule.Chaos.Schedule.synchrony with
          | None -> ""
          | Some sy ->
              Printf.sprintf ", partial synchrony Δ=%d GST=%d"
                (Mp.Synchrony.delta sy) (Mp.Synchrony.gst sy));
        print_mp_outcome o
          ~suffix:
            (Printf.sprintf " / %d window retransmissions"
               o.Chaos.Mp_run.window_retransmits);
        print_channel o.Chaos.Mp_run.channel;
        print_faults ~at:"pulse" o.Chaos.Mp_run.fired
          ~aftermath_submitted:o.Chaos.Mp_run.aftermath_submitted;
        (match o.Chaos.Mp_run.snapshot with
        | None -> ()
        | Some s ->
            Printf.printf
              "snapshots   : %d cuts / %d epochs every %d deliveries (%d \
               consistent, %d shadow-ok, %d abandoned, %d markers resent)\n"
              s.Chaos.Mp_run.cuts s.Chaos.Mp_run.epochs
              s.Chaos.Mp_run.snapshot_every s.Chaos.Mp_run.consistent
              s.Chaos.Mp_run.shadow_ok s.Chaos.Mp_run.abandoned
              s.Chaos.Mp_run.markers_resent;
            Printf.printf "cut oracle  : %s%s\n"
              (if s.Chaos.Mp_run.cut_agrees then
                 "verdict agrees with the omniscient oracle"
               else "verdict DISAGREES with the omniscient oracle")
              (match s.Chaos.Mp_run.online_violations with
              | [] -> ""
              | v -> "; online flags: " ^ String.concat "; " v));
        report_lines o.Chaos.Mp_run.report;
        conclude ~model:"mp" ~fired:o.Chaos.Mp_run.fired
          ~report:o.Chaos.Mp_run.report
          ~sp_ok:o.Chaos.Mp_run.verdict.Harness.Oracle.ok
          ~journal:(fun () -> print_journal "cut journal " "cuts" cut_j)
          (Chaos.Mp_run.verdict o)
          ([
             ("channel", Chaos.Mp_run.channel_to_json o.Chaos.Mp_run.channel);
             ("window", Obs.Json.Int o.Chaos.Mp_run.window);
             ( "window_retransmits",
               Obs.Json.Int o.Chaos.Mp_run.window_retransmits );
             ("deliveries", Obs.Json.Int o.Chaos.Mp_run.channel_deliveries);
             ("max_pulse", Obs.Json.Int o.Chaos.Mp_run.max_pulse);
             ("barriers", Obs.Json.Int o.Chaos.Mp_run.barriers);
             ("adoptions", Obs.Json.Int o.Chaos.Mp_run.adoptions);
           ]
          @
          match o.Chaos.Mp_run.snapshot with
          | None -> []
          | Some s -> [ ("snapshot", Chaos.Mp_run.snapshot_to_json s) ])
  in
  let term =
    Term.(
      const run $ topology_arg
      $ schedule_arg
          (Spec.chaos_exn "10:rbqf:all")
          ~doc:
            "Fault schedule: bursts joined by '+', each \
             <round>:<domains>:<victims> with domains from r(outing) \
             b(uffers) q(ueues) f(lags) c(rash) and victims a count or \
             'all'; optional '@' modifiers (mp model only): a channel \
             preset '@lossy' or '@flaky', '@win=<k>' (sliding-window \
             size, default 8) and '@ps=<delta>:<gst>' (partial \
             synchrony). Example: 10:rbqf:all+40:c:2@lossy@win=4. \
             'none' disables faults."
      $ model
      $ corruption_arg Spec.Adversarial
      $ daemon_arg Harness.Runner.Synchronous
          ~doc:"Scheduler for the state model (ignored by mp)."
      $ seed_arg $ messages_arg $ channel_garbage
      $ max_steps_arg positive 2_000_000
          ~doc:"Step budget (state) / per-segment delivery budget (mp)."
      $ json_arg ~doc:"Write a machine-readable chaos summary to $(docv)."
      $ journal_arg
          ~doc:
            "State model only: write the event journal (including \
             fault_injected events) to $(docv) as JSONL."
      $ snapshot_every
      $ cut_journal_arg
          ~doc:
            "With --snapshot-every: stream one snapshot_cut JSONL line \
             per completed cut (epoch, initiator, fingerprint, clock) to \
             $(docv) as cuts are harvested."
      $ profile_arg $ prof_summary_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Strike a running execution with a timed fault schedule and check \
          the recovery oracle (post-burst exactly-once, amortized 2n invalid \
          budget, rounds back to quiescence).")
    term

(* ---------------- snapshot command ---------------- *)

(* A focused walkthrough of the distributed-snapshot layer: run the mp
   model with in-band Chandy–Lamport cuts, print each cut as it
   completes, and end on the cut-vs-omniscient verdict comparison. *)
let snapshot_cmd =
  let run topology schedule corruption seed every messages max_steps json_file
      cut_journal =
    let sc =
      {
        (Spec.point ~snapshot:every ~model:Spec.Mp_model ~chaos:schedule ~seed
           ~max_steps topology corruption (Spec.Uniform messages))
        with
        Spec.channel_garbage = 0;
      }
    in
    artifact_errors @@ fun () ->
    print_chaos_header sc;
    Printf.printf "snapshots   : every %d channel deliveries\n" every;
    let cuts_seen = ref [] in
    let on_cut (c : Snapshot.Ssmfp_link.cut) =
      cuts_seen := c :: !cuts_seen;
      Printf.printf
        "cut         : epoch=%-3d initiator=%-3d latency=%-5d in-flight=%-3d fp=%s%s%s\n"
        c.Snapshot.Cut.epoch c.Snapshot.Cut.initiator
        (Snapshot.Cut.latency c)
        (Snapshot.Cut.in_flight c)
        (Snapshot.Ssmfp_link.fingerprint_hex c)
        (if Snapshot.Cut.shadow_ok c then "" else " SHADOW-MISMATCH")
        (if Snapshot.Ssmfp_link.consistent c then "" else " INCONSISTENT")
    in
    let run, _, cut_j = execute ~on_cut ?cut_journal sc in
    let o = match run with Pool.Mp o -> o | Pool.State _ -> assert false in
    print_mp_outcome o ~suffix:"";
    print_channel o.Chaos.Mp_run.channel;
    match o.Chaos.Mp_run.snapshot with
    | None ->
        Printf.eprintf "ssmfp_cli snapshot: layer did not attach\n";
        2
    | Some s ->
        Printf.printf
          "cuts        : %d over %d epochs (%d consistent, %d shadow-ok, \
           %d abandoned, %d markers resent)\n"
          s.Chaos.Mp_run.cuts s.Chaos.Mp_run.epochs
          s.Chaos.Mp_run.consistent s.Chaos.Mp_run.shadow_ok
          s.Chaos.Mp_run.abandoned s.Chaos.Mp_run.markers_resent;
        (match s.Chaos.Mp_run.relegitimacy_bracket with
        | None -> ()
        | Some (lo, hi) ->
            Printf.printf
              "relegitimacy: invalid deliveries stopped growing within \
               pulses (%d, %s]\n"
              lo
              (match hi with Some h -> string_of_int h | None -> "∞"));
        (match s.Chaos.Mp_run.online_violations with
        | [] -> Printf.printf "cut oracle  : no online violations\n"
        | v ->
            Printf.printf "cut oracle  : ONLINE FLAGS — %s\n"
              (String.concat "; " v));
        Printf.printf "cut verdict : %s\n"
          (if s.Chaos.Mp_run.cut_agrees then
             "agrees with the omniscient oracle"
           else "DISAGREES with the omniscient oracle");
        print_journal "cut journal " "cuts" cut_j;
        Option.iter
          (fun path ->
            let open Obs.Json in
            write_json path
              (Obj
                 [
                   ("topology", String topology.Spec.t_name);
                   ("schedule", String (Chaos.Schedule.to_string schedule));
                   ("corruption", String (Spec.corruption_to_string corruption));
                   ("seed", Int seed);
                   ("every", Int every);
                   ( "outcome",
                     String
                       (match o.Chaos.Mp_run.mp_outcome with
                       | `All_done -> "all_done"
                       | `Max_deliveries -> "max_deliveries") );
                   ("deliveries", Int o.Chaos.Mp_run.channel_deliveries);
                   ("epochs", Int s.Chaos.Mp_run.epochs);
                   ("cuts_completed", Int s.Chaos.Mp_run.cuts);
                   ("consistent", Int s.Chaos.Mp_run.consistent);
                   ("shadow_ok", Int s.Chaos.Mp_run.shadow_ok);
                   ("abandoned", Int s.Chaos.Mp_run.abandoned);
                   ("markers_resent", Int s.Chaos.Mp_run.markers_resent);
                   ("cut_agrees", Bool s.Chaos.Mp_run.cut_agrees);
                   ( "online_violations",
                     List
                       (List.map
                          (fun v -> String v)
                          s.Chaos.Mp_run.online_violations) );
                   ( "cuts",
                     List
                       (List.rev_map Snapshot.Ssmfp_link.cut_to_json !cuts_seen)
                   );
                 ]))
          json_file;
        if
          s.Chaos.Mp_run.cuts > 0
          && s.Chaos.Mp_run.cut_agrees
          && s.Chaos.Mp_run.online_violations = []
        then 0
        else 1
  in
  let term =
    Term.(
      const run $ topology_arg
      $ schedule_arg Chaos.Schedule.none
          ~doc:
            "Fault schedule running under the snapshots (chaos grammar), \
             e.g. none@lossy or 8:rb:2@flaky. 'none' keeps the channel \
             reliable."
      $ corruption_arg Spec.Pristine
      $ seed_arg
      $ every_arg 400 ~docv:"N"
          ~doc:"Initiate a snapshot epoch every $(docv) channel deliveries."
      $ messages_arg
      $ max_steps_arg positive 2_000_000 ~doc:"Per-segment delivery budget."
      $ json_arg
          ~doc:
            "Write a machine-readable snapshot summary (including every \
             cut) to $(docv)."
      $ cut_journal_arg
          ~doc:
            "Stream one snapshot_cut JSONL line per completed cut to \
             $(docv) as cuts are harvested.")
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Run the message-passing model with in-band Chandy–Lamport \
          snapshots, print each consistent cut as it completes, and compare \
          the cut oracle's verdict against the omniscient one.")
    term

(* ---------------- campaign command ---------------- *)

let contains_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  ln = 0
  ||
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* A comma-separated campaign axis, one parser per axis. Two values
   that print alike would expand to scenarios sharing an id. *)
let axis_arg name ~what parse print ~doc =
  let parser s =
    let items =
      List.filter
        (fun x -> String.trim x <> "")
        (String.split_on_char ',' s)
    in
    if items = [] then Error (Printf.sprintf "empty %s list" what)
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match parse x with
            | Ok v when List.exists (fun u -> print u = print v) acc ->
                Error (Printf.sprintf "repeated %s %S" what (print v))
            | Ok v -> go (v :: acc) rest
            | Error _ as e -> e)
      in
      go [] items
  in
  let axis = conv_of parser (fun l -> String.concat "," (List.map print l)) in
  Arg.(value & opt (some axis) None & info [ name ] ~docv:"LIST" ~doc)

let campaign_cmd =
  let open Campaign in
  let grid_base =
    Arg.(
      value
      & opt (enum [ ("default", `Default); ("smoke", `Smoke); ("chaos", `Chaos) ])
          `Default
      & info [ "grid" ] ~docv:"NAME"
          ~doc:
            "Base grid: default (32 scenarios), smoke (8, for CI) or chaos \
             (168 fault-schedule scenarios across both models, with and \
             without the snapshot layer).")
  in
  let topologies =
    axis_arg "topologies" ~what:"topology" Spec.topology_of_string
      (fun t -> t.Spec.t_name)
      ~doc:
        "Comma-separated topologies overriding the grid's axis, e.g. \
         ring:8,grid:3x4."
  in
  let corruptions =
    axis_arg "corruptions" ~what:"corruption" Spec.corruption_of_string
      Spec.corruption_to_string
      ~doc:"Comma-separated corruption levels: pristine,random,adversarial."
  in
  let daemons =
    axis_arg "daemons" ~what:"daemon" Harness.Runner.daemon_kind_of_string
      Harness.Runner.daemon_kind_to_string
      ~doc:"Comma-separated daemons, e.g. synchronous,distributed,adversarial."
  in
  let workloads =
    axis_arg "workloads" ~what:"workload" Spec.workload_of_string
      Spec.workload_to_string
      ~doc:"Comma-separated workloads, e.g. uniform:2,all-to-one:1."
  in
  let models =
    axis_arg "models" ~what:"model" Spec.model_of_string Spec.model_to_string
      ~doc:"Comma-separated execution models: state,mp."
  in
  let chaos =
    axis_arg "chaos" ~what:"chaos schedule" Chaos.Schedule.of_string
      Chaos.Schedule.to_string
      ~doc:
        "Comma-separated fault schedules, e.g. \
         none,10:rbqf:all+40:c:2@lossy (see the chaos subcommand for the \
         grammar)."
  in
  let snapshots =
    axis_arg "snapshots" ~what:"snapshot interval"
      (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some v when v >= 0 -> Ok v
        | _ -> Error (Printf.sprintf "bad snapshot interval %S (expected a non-negative delivery count)" s))
      string_of_int
      ~doc:
        "Comma-separated snapshot intervals (channel deliveries) \
         overriding the grid's axis, e.g. 0,400. 0 is snapshot-off; \
         nonzero intervals apply to mp scenarios only."
  in
  let seeds =
    let axis =
      conv_of Spec.seeds_of_string (fun l ->
          String.concat "," (List.map string_of_int l))
    in
    Arg.(
      value
      & opt (some axis) None
      & info [ "seeds" ] ~docv:"SPEC"
          ~doc:"Seeds overriding the grid's axis: 1,2,5 or 1..8.")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"SUBSTR"
          ~doc:"Keep only scenarios whose id contains $(docv).")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ] ~doc:"List the expanded scenario grid and exit.")
  in
  let out =
    file_arg [ "o"; "out" ]
      ~doc:"Write the aggregate campaign artifact (JSON) to $(docv)."
  in
  let baseline =
    file_arg [ "baseline" ]
      ~doc:
        "Compare against a prior campaign artifact and exit 3 on \
         regression (new oracle failure, missing scenario, or latency \
         above tolerance)."
  in
  let from_ =
    file_arg [ "from" ]
      ~doc:
        "Skip running: load $(docv) as the current campaign artifact \
         (validates it parses as one) — for offline regression checks \
         and artifact inspection."
  in
  let latency_tolerance =
    Arg.(
      value & opt non_negative_float 25.0
      & info [ "latency-tolerance" ] ~docv:"PCT"
          ~doc:"Latency p50 regression tolerance for --baseline, in percent.")
  in
  let run grid_base topologies corruptions daemons workloads models chaos
      snapshots seeds max_steps only workers dry_run out baseline from_
      latency_tolerance profile prof_summary =
    artifact_errors @@ fun () ->
    let grid =
      match grid_base with
      | `Default -> Spec.default_grid ()
      | `Smoke -> Spec.smoke_grid ()
      | `Chaos -> Spec.chaos_grid ()
    in
    let grid =
      {
        Spec.topologies = Option.value ~default:grid.Spec.topologies topologies;
        corruptions = Option.value ~default:grid.Spec.corruptions corruptions;
        daemons = Option.value ~default:grid.Spec.daemons daemons;
        workloads = Option.value ~default:grid.Spec.workloads workloads;
        models = Option.value ~default:grid.Spec.models models;
        chaos = Option.value ~default:grid.Spec.chaos chaos;
        snapshots = Option.value ~default:grid.Spec.snapshots snapshots;
        seeds = Option.value ~default:grid.Spec.seeds seeds;
        max_steps = Option.value ~default:grid.Spec.max_steps max_steps;
      }
    in
    (* chaos_filter always composes in: on single-model grids it keeps
       everything, and on mixed grids it drops the mp × daemon twins. *)
    let filter sc =
      Spec.chaos_filter sc
      && match only with
         | None -> true
         | Some sub -> contains_substring sc.Spec.id sub
    in
    let scenarios = Spec.expand ~filter grid in
    if scenarios = [] then begin
      Printf.eprintf "ssmfp_cli campaign: the grid expands to no scenarios\n";
      2
    end
    else if dry_run then begin
      Printf.printf "%d scenarios:\n" (List.length scenarios);
      List.iter (fun sc -> Printf.printf "  %s\n" sc.Spec.id) scenarios;
      0
    end
    else begin
      let current =
        match from_ with
        | Some path -> (
            match Aggregate.of_file path with
            | Ok doc ->
                Printf.printf "loaded      : %s\n" path;
                Ok doc
            | Error e -> Error e)
        | None ->
            let prof = make_prof ~profile ~prof_summary ~tracks:workers in
            let t0 = Unix.gettimeofday () in
            let outcomes = Pool.run ~workers ~prof scenarios in
            let dt = Unix.gettimeofday () -. t0 in
            List.iter
              (fun (o : Pool.outcome) ->
                let status, detail =
                  match o.Pool.status with
                  | Pool.Done s when s.Pool.verdict_ok ->
                      ( "ok",
                        Printf.sprintf "%6d rounds  %5.0f ms" s.Pool.rounds
                          (o.Pool.seconds *. 1000.) )
                  | Pool.Done s ->
                      ("VIOLATED", String.concat "; " s.Pool.violations)
                  | Pool.Crashed c -> ("CRASHED", c.Pool.crash_msg)
                in
                Printf.printf "  %-55s %-8s %s\n" o.Pool.scenario.Spec.id status
                  detail)
              outcomes;
            Printf.printf "campaign    : %d scenarios on %d workers in %.1f s\n"
              (List.length scenarios) workers dt;
            emit_prof ~profile ~prof_summary prof;
            Ok (Aggregate.to_json outcomes)
      in
      match current with
      | Error e ->
          Printf.eprintf "ssmfp_cli campaign: %s\n" e;
          2
      | Ok current -> (
          (match Aggregate.render_summary current with
          | Ok s -> print_string s
          | Error e -> Printf.eprintf "ssmfp_cli campaign: %s\n" e);
          Option.iter
            (fun path ->
              Aggregate.write path current;
              Printf.printf "artifact    : %s\n" path)
            out;
          let failed =
            match Aggregate.failed_scenarios current with
            | Ok l -> l
            | Error _ -> []
          in
          match baseline with
          | None -> if failed = [] then 0 else 1
          | Some path -> (
              match Aggregate.of_file path with
              | Error e ->
                  Printf.eprintf "ssmfp_cli campaign: %s\n" e;
                  2
              | Ok base -> (
                  match
                    Baseline.compare_artifacts
                      ~latency_tolerance:(latency_tolerance /. 100.)
                      ~baseline:base ~current ()
                  with
                  | Error e ->
                      Printf.eprintf "ssmfp_cli campaign: %s\n" e;
                      2
                  | Ok [] ->
                      Printf.printf "baseline    : no regressions vs %s\n" path;
                      if failed = [] then 0 else 1
                  | Ok regressions ->
                      Printf.printf "baseline    : %d regression(s) vs %s\n"
                        (List.length regressions) path;
                      List.iter
                        (fun line -> Printf.printf "  REGRESSED %s\n" line)
                        (Baseline.to_strings regressions);
                      3)))
    end
  in
  let term =
    Term.(
      const run $ grid_base $ topologies $ corruptions $ daemons $ workloads
      $ models $ chaos $ snapshots $ seeds
      $ max_steps_arg (Arg.some positive) None
          ~doc:
            "Per-scenario step budget; on mp scenarios, the delivery budget \
             of each burst segment and of the final drain."
      $ only
      $ workers_arg positive
          (Campaign.Pool.default_workers ())
          ~doc:
            "Worker domains (default: recommended domain count, capped at \
             8). Results are byte-identical whatever the value."
      $ dry_run $ out $ baseline $ from_ $ latency_tolerance $ profile_arg
      $ prof_summary_arg)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a declarative scenario grid in parallel on OCaml 5 domains and \
          aggregate the verdicts into a reproducible JSON artifact.")
    term

(* ---------------- trace-check command ---------------- *)

let trace_check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace-event JSON file to validate.")
  in
  let run file =
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error msg ->
        Printf.eprintf "trace-check: %s\n" msg;
        2
    | contents -> (
        match Obs.Json.of_string contents with
        | Error e ->
            Printf.printf "trace-check : %s INVALID — JSON parse: %s\n" file e;
            1
        | Ok doc -> (
            match Obs.Traceview.validate doc with
            | Error e ->
                Printf.printf "trace-check : %s INVALID — %s\n" file e;
                1
            | Ok () ->
                let events =
                  match
                    Option.bind
                      (Obs.Json.member "traceEvents" doc)
                      Obs.Json.to_list
                  with
                  | Some l -> List.length l
                  | None -> 0
                in
                Printf.printf "trace-check : %s ok (%d events)\n" file events;
                0))
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace-event JSON produced by --profile: \
          structure, event fields, and proper span nesting per lane.")
    Term.(const run $ file)

let () =
  let doc = "snap-stabilizing message forwarding (Cournier-Dubois-Villain, IPPS 2009)" in
  let info = Cmd.info "ssmfp_cli" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
       [ run_cmd; watch_cmd; chaos_cmd; snapshot_cmd; campaign_cmd; tables_cmd; figures_cmd;
         dot_cmd; pif_cmd; mc_cmd; trace_check_cmd ]))
