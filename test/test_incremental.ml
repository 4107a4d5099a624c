(* Differential test of the execution core: the incremental (dirty-set)
   engine against the full-sweep reference, in lockstep over randomized
   topologies × daemons × fault-injected initial configurations. The two
   engines must agree on every step's event emissions, on the final
   stats (steps, rounds, moves, per-rule counts) and on the terminal
   configuration — the observable behavior is defined to be identical,
   the modes differ only in how guards are re-evaluated. *)

let graphs =
  [
    ("ring6", Topology.Builders.ring 6);
    ("ring9", Topology.Builders.ring 9);
    ("path8", Topology.Builders.path 8);
    ("star7", Topology.Builders.star 7);
    ("torus3x3", Topology.Builders.torus ~rows:3 ~cols:3);
  ]

let daemon_kinds =
  [ "synchronous"; "central"; "distributed"; "round-robin"; "lowest"; "random-action" ]

(* Each engine gets its own daemon instance built from the same seed, so
   stateful/randomized daemons make identical choices on identical
   candidate lists. *)
let daemon_of kind seed =
  match kind with
  | "synchronous" -> Sim.Daemon.synchronous ()
  | "central" -> Sim.Daemon.central_random (Prng.Splitmix.of_int seed)
  | "distributed" -> Sim.Daemon.distributed_random (Prng.Splitmix.of_int seed)
  | "round-robin" -> Sim.Daemon.round_robin ()
  | "lowest" -> Sim.Daemon.adversarial_lowest ()
  | "random-action" -> Sim.Daemon.random_action (Prng.Splitmix.of_int seed)
  | k -> invalid_arg k

let spec_of seed =
  match seed mod 3 with
  | 0 -> ("pristine", Harness.Fault.pristine)
  | 1 -> ("adversarial", Harness.Fault.adversarial)
  | _ ->
      ( "random",
        Harness.Fault.random_spec (Prng.Splitmix.of_int (seed * 31 + 7)) )

let raise_requests g t =
  Topology.Graph.iter_vertices
    (fun p ->
      let st = Sim.Engine.state t p in
      if (not st.Ssmfp.State.request) && st.Ssmfp.State.outbox <> [] then
        Sim.Engine.set_state t p { st with Ssmfp.State.request = true })
    g

(* One scenario: execute the identical schedule once per mode (ghost ids
   come from a domain-local counter, so each run resets it and replays
   the same allocation stream — interleaving the two engines would split
   the stream and differ in ghost metadata only) and compare the full
   recorded traces. *)
let trace_ssmfp g ~daemon_kind ~seed ~max_steps mode =
  let n = Topology.Graph.n g in
  let proto = Ssmfp.Protocol.make ~run_routing:true g in
  let wl_rng = Prng.Splitmix.of_int ((seed * 7) + 1) in
  let wl = Harness.Workload.uniform_random wl_rng ~n ~per_processor:1 in
  let _, spec = spec_of seed in
  Ssmfp.Message.reset_ghost_counter ();
  let rng = Prng.Splitmix.of_int ((seed * 13) + 5) in
  let t =
    Sim.Engine.make ~mode ~graph:g ~protocol:proto (fun p ->
        Harness.Fault.initial_states ~rng spec g ~workload:wl p)
  in
  let daemon = daemon_of daemon_kind seed in
  let events = ref [] in
  let rec loop i =
    if i < max_steps then begin
      raise_requests g t;
      match Sim.Engine.step t daemon with
      | None -> ()
      | Some evs ->
          events := evs :: !events;
          loop (i + 1)
    end
  in
  loop 0;
  ( List.rev !events,
    Sim.Engine.stats t,
    Array.copy (Sim.Engine.net t).Sim.Engine.states,
    Sim.Engine.is_terminal t )

let lockstep_ssmfp ~name g ~daemon_kind ~seed ~max_steps =
  let run mode = trace_ssmfp g ~daemon_kind ~seed ~max_steps mode in
  let ea, sa, ca, ta = run Sim.Engine.Full_sweep in
  let eb, sb, cb, tb = run Sim.Engine.Incremental in
  if List.length ea <> List.length eb then
    Alcotest.failf "%s: different run lengths (%d vs %d steps)" name
      (List.length ea) (List.length eb);
  List.iteri
    (fun i (sa, sb) ->
      if sa <> sb then Alcotest.failf "%s: step %d emits different events" name i)
    (List.combine ea eb);
  if sa <> sb then
    Alcotest.failf "%s: stats diverge (%d/%d/%d vs %d/%d/%d)" name
      sa.Sim.Engine.steps sa.Sim.Engine.rounds sa.Sim.Engine.moves
      sb.Sim.Engine.steps sb.Sim.Engine.rounds sb.Sim.Engine.moves;
  if ca <> cb then Alcotest.failf "%s: terminal configurations differ" name;
  if ta <> tb then Alcotest.failf "%s: is_terminal disagrees" name

(* The grid: 5 topologies × 6 daemons × 4 seeds = 120 scenarios, each
   mixing corruption kinds by seed. *)
let test_grid () =
  let count = ref 0 in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun daemon_kind ->
          for seed = 0 to 3 do
            incr count;
            let sname, _ = spec_of seed in
            let name =
              Printf.sprintf "%s/%s/%s/s%d" gname daemon_kind sname seed
            in
            lockstep_ssmfp ~name g ~daemon_kind ~seed ~max_steps:250
          done)
        daemon_kinds)
    graphs;
  Alcotest.(check bool) "at least 100 scenarios" true (!count >= 100)

(* A protocol that reads beyond the closed neighborhood must declare
   Global locality; the incremental engine then dirties every processor
   on every write and stays equivalent to the reference. *)
type gaction = Adopt of int

let global_max_protocol =
  {
    Sim.Engine.proto_name = "global-max";
    locality = Sim.Engine.Global;
    enabled =
      (fun net p ->
        let m = Array.fold_left max min_int net.Sim.Engine.states in
        if net.Sim.Engine.states.(p) < m then [ Adopt m ] else []);
    apply = (fun _ _ (Adopt m) -> (m, [ m ]));
    action_label = (fun (Adopt _) -> "adopt");
  }

let test_global_locality () =
  let g = Topology.Builders.ring 9 in
  let mk mode =
    Sim.Engine.make ~mode ~graph:g ~protocol:global_max_protocol (fun p ->
        (p * 17) mod 9)
  in
  let a = mk Sim.Engine.Full_sweep and b = mk Sim.Engine.Incremental in
  let da = Sim.Daemon.central_random (Prng.Splitmix.of_int 3) in
  let db = Sim.Daemon.central_random (Prng.Splitmix.of_int 3) in
  let rec loop i =
    match (Sim.Engine.step a da, Sim.Engine.step b db) with
    | None, None -> ()
    | Some ea, Some eb ->
        if ea <> eb then Alcotest.failf "global: step %d events differ" i;
        loop (i + 1)
    | _ -> Alcotest.failf "global: step %d termination differs" i
  in
  loop 0;
  Alcotest.(check bool) "stats equal" true (Sim.Engine.stats a = Sim.Engine.stats b);
  Alcotest.(check (array int)) "terminal configs equal"
    (Sim.Engine.net a).Sim.Engine.states (Sim.Engine.net b).Sim.Engine.states

(* set_state storms: external writes between steps must keep the
   candidate table coherent (the runner's request-raising pattern plus
   arbitrary corruption mid-run). *)
let test_set_state_storm () =
  let g = Topology.Builders.ring 8 in
  let run mode =
    let proto = Ssmfp.Protocol.make ~run_routing:true g in
    let wl_rng = Prng.Splitmix.of_int 41 in
    let wl = Harness.Workload.uniform_random wl_rng ~n:8 ~per_processor:2 in
    Ssmfp.Message.reset_ghost_counter ();
    let rng = Prng.Splitmix.of_int 42 in
    let t =
      Sim.Engine.make ~mode ~graph:g ~protocol:proto (fun p ->
          Harness.Fault.initial_states ~rng Harness.Fault.adversarial g
            ~workload:wl p)
    in
    let daemon = Sim.Daemon.round_robin () in
    let corrupt_rng = Prng.Splitmix.of_int 43 in
    let events = ref [] in
    let rec loop i =
      if i < 200 then begin
        let p = Prng.Splitmix.int corrupt_rng 8 in
        let flip = Prng.Splitmix.int corrupt_rng 2 = 0 in
        let st = Sim.Engine.state t p in
        Sim.Engine.set_state t p { st with Ssmfp.State.request = flip };
        raise_requests g t;
        match Sim.Engine.step t daemon with
        | None -> ()
        | Some evs ->
            events := evs :: !events;
            loop (i + 1)
      end
    in
    loop 0;
    ( List.rev !events,
      Sim.Engine.stats t,
      Array.copy (Sim.Engine.net t).Sim.Engine.states )
  in
  let ea, sa, ca = run Sim.Engine.Full_sweep in
  let eb, sb, cb = run Sim.Engine.Incremental in
  Alcotest.(check bool) "event streams equal" true (ea = eb);
  Alcotest.(check bool) "stats equal" true (sa = sb);
  if ca <> cb then Alcotest.fail "storm: configurations diverged"

let test_default_mode () =
  let g = Topology.Builders.ring 4 in
  let t =
    Sim.Engine.make ~graph:g ~protocol:global_max_protocol (fun p -> p)
  in
  Alcotest.(check bool) "default is incremental" true
    (Sim.Engine.mode t = Sim.Engine.Incremental);
  let t' =
    Sim.Engine.make ~mode:Sim.Engine.Full_sweep ~graph:g
      ~protocol:global_max_protocol (fun p -> p)
  in
  Alcotest.(check bool) "full-sweep kept" true
    (Sim.Engine.mode t' = Sim.Engine.Full_sweep)

(* ---------------- guard cache ---------------- *)

(* [Ssmfp.Protocol.Cache] against the reference guards, at every process
   after every step. Three caches see each run: the engine's own, fed
   only the dirty processors as in [Harness.Runner]; one asked
   [enabled] and one asked [first_enabled] at every process. *)

let variants =
  Ssmfp.Protocol.
    [
      ("faithful", faithful);
      ("no-colors", { faithful with use_colors = false });
      ("no-r5", { faithful with use_r5 = false });
      ("no-rotation", { faithful with rotate_queue = false });
      ("literal-r5", { faithful with literal_r5 = true });
    ]

(* Every variant × tie × routing combination: 20 configurations. *)
let cache_configs =
  List.concat_map
    (fun (vname, variant) ->
      List.concat_map
        (fun (tname, tie) ->
          List.map
            (fun run_routing ->
              ( Printf.sprintf "%s/%s/%s" vname tname
                  (if run_routing then "routing" else "frozen"),
                (variant, tie, run_routing) ))
            [ true; false ])
        Routing.Selfstab.[ ("smallest", Smallest_id); ("largest", Largest_id) ])
    variants

let action =
  Alcotest.testable
    (fun fmt (a : Ssmfp.Protocol.action) ->
      Format.fprintf fmt "%s@%d" (Ssmfp.Protocol.rule_name a.rule) a.dest)
    ( = )

(* One run; [storm] adds, before each step, an external write at a
   random process: a flipped request bit, a pushed send, or a state
   replaced by a freshly corrupted one. *)
let cache_run ~name ~config:(variant, tie, run_routing) ~storm g ~daemon_kind
    ~seed ~max_steps =
  let n = Topology.Graph.n g in
  let cache =
    Ssmfp.Protocol.Cache.create ~variant ~run_routing ~tie g
  in
  let shadow = Ssmfp.Protocol.Cache.create ~variant ~run_routing ~tie g in
  let shadow_first =
    Ssmfp.Protocol.Cache.create ~variant ~run_routing ~tie g
  in
  let wl_rng = Prng.Splitmix.of_int ((seed * 7) + 1) in
  let wl = Harness.Workload.uniform_random wl_rng ~n ~per_processor:2 in
  let _, spec = spec_of seed in
  let rng = Prng.Splitmix.of_int ((seed * 13) + 5) in
  let t =
    Sim.Engine.make ~graph:g
      ~protocol:(Ssmfp.Protocol.Cache.protocol cache)
      (fun p -> Harness.Fault.initial_states ~rng spec g ~workload:wl p)
  in
  let daemon = daemon_of daemon_kind seed in
  let storm_rng = Prng.Splitmix.of_int ((seed * 17) + 3) in
  let check i =
    let net = Sim.Engine.net t in
    let offered = Hashtbl.create n in
    List.iter
      (fun c -> Hashtbl.replace offered c.Sim.Engine.cand_pid c.cand_actions)
      (Sim.Engine.candidates t);
    for p = 0 to n - 1 do
      let reference =
        Ssmfp.Protocol.enabled_rules g ~variant ~run_routing ~tie net ~p
      in
      let label what = Printf.sprintf "%s step %d p%d: %s" name i p what in
      Alcotest.(check (list action)) (label "engine's cache") reference
        (Option.value ~default:[] (Hashtbl.find_opt offered p));
      Alcotest.(check (list action)) (label "enabled") reference
        (Ssmfp.Protocol.Cache.enabled shadow net ~p);
      Alcotest.(check (option action))
        (label "first_enabled")
        (Ssmfp.Protocol.first_enabled g ~variant ~run_routing ~tie net ~p)
        (Ssmfp.Protocol.Cache.first_enabled shadow_first net ~p)
    done
  in
  let rec loop i =
    check i;
    if i < max_steps then begin
      if storm then begin
        let p = Prng.Splitmix.int storm_rng n in
        let st = Sim.Engine.state t p in
        Sim.Engine.set_state t p
          (match Prng.Splitmix.int storm_rng 3 with
          | 0 -> { st with Ssmfp.State.request = not st.Ssmfp.State.request }
          | 1 ->
              Ssmfp.State.push_outbox st
                ~dest:(Prng.Splitmix.int storm_rng n)
                "storm"
          | _ ->
              Harness.Fault.initial_states ~rng:storm_rng
                Harness.Fault.adversarial g ~workload:wl p)
      end;
      raise_requests g t;
      match Sim.Engine.step t daemon with
      | None -> ()
      | Some _ -> loop (i + 1)
    end
  in
  loop 0

(* The grid's topologies × daemons × pristine, adversarial and random
   starts (90 scenarios), each with the next of the 20 configurations. *)
let test_cache_grid () =
  let configs = Array.of_list cache_configs in
  let count = ref 0 in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun daemon_kind ->
          for seed = 0 to 2 do
            let cname, config = configs.(!count mod Array.length configs) in
            incr count;
            let sname, _ = spec_of seed in
            let name =
              Printf.sprintf "%s/%s/%s/%s" gname daemon_kind sname cname
            in
            cache_run ~name ~config ~storm:false g ~daemon_kind ~seed
              ~max_steps:250
          done)
        daemon_kinds)
    graphs;
  Alcotest.(check int) "scenarios" 90 !count

(* The set_state storm, under every configuration. *)
let test_cache_storm () =
  List.iteri
    (fun i (cname, config) ->
      cache_run ~name:("storm/" ^ cname) ~config ~storm:true
        (Topology.Builders.ring 8) ~daemon_kind:"round-robin" ~seed:i
        ~max_steps:200)
    cache_configs

(* An unchanged configuration recomputes no destination, and a write
   of one slot recomputes exactly that destination at the writer and
   its neighbors: a cache that always missed would pass the
   differential and lose the gain. *)
let test_cache_hits () =
  let g = Topology.Builders.torus ~rows:3 ~cols:3 in
  let n = Topology.Graph.n g in
  let rng = Prng.Splitmix.of_int 5 in
  let states =
    Array.init n (fun p ->
        Harness.Fault.initial_states ~rng Harness.Fault.adversarial g
          ~workload:(Harness.Workload.empty ~n) p)
  in
  let net = Sim.Engine.synthetic ~graph:g ~states in
  let cache = Ssmfp.Protocol.Cache.create g in
  let sweep () =
    for p = 0 to n - 1 do
      ignore (Ssmfp.Protocol.Cache.enabled cache net ~p)
    done
  in
  let counts () =
    Ssmfp.Protocol.Cache.(checks cache, recomputes cache)
  in
  sweep ();
  Alcotest.(check (pair int int)) "first sweep computes every entry"
    (n * n, n * n) (counts ());
  sweep ();
  Alcotest.(check (pair int int)) "unchanged configuration: all hits"
    (2 * n * n, n * n) (counts ());
  let p = 4 and d = 7 in
  let sl = Ssmfp.State.slot states.(p) d in
  states.(p) <-
    Ssmfp.State.with_slot states.(p) d { sl with Ssmfp.State.buf_r = None };
  sweep ();
  Alcotest.(check (pair int int)) "one slot written: N[p] recompute d"
    ((3 * n * n), (n * n) + 1 + Topology.Graph.degree g p)
    (counts ())

let () =
  Alcotest.run "incremental"
    [
      ( "differential",
        [
          Alcotest.test_case "120-scenario grid: full vs incremental" `Quick
            test_grid;
          Alcotest.test_case "global locality fallback" `Quick
            test_global_locality;
          Alcotest.test_case "set_state storm" `Quick test_set_state_storm;
          Alcotest.test_case "mode accessor & default" `Quick test_default_mode;
        ] );
      ( "guard cache",
        [
          Alcotest.test_case "90-scenario grid: cached vs reference guards"
            `Quick test_cache_grid;
          Alcotest.test_case "set_state storm, every configuration" `Quick
            test_cache_storm;
          Alcotest.test_case "hits on unchanged destinations" `Quick
            test_cache_hits;
        ] );
    ]
