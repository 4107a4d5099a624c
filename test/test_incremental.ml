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
  let protocol = Ssmfp.Protocol.make g in
  let workload = Array.make 4 [] in
  let init = Harness.Fault.initial_states Harness.Fault.pristine g ~workload in
  let t = Sim.Engine.make ~graph:g ~protocol init in
  Alcotest.(check bool) "default is incremental" true
    (Sim.Engine.mode t = Sim.Engine.Incremental);
  let t' = Sim.Engine.make ~mode:Sim.Engine.Full_sweep ~graph:g ~protocol init in
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

(* External writes for [cache_run]: [write rng g ~wl ~p st] is the
   state written at process [p] in place of [st]. *)

(* A flipped request bit, a pushed send, or a state replaced by a
   freshly corrupted one. *)
let storm_write rng g ~wl ~p st =
  match Prng.Splitmix.int rng 3 with
  | 0 -> { st with Ssmfp.State.request = not st.Ssmfp.State.request }
  | 1 ->
      Ssmfp.State.push_outbox st
        ~dest:(Prng.Splitmix.int rng (Topology.Graph.n g))
        "storm"
  | _ ->
      Harness.Fault.initial_states ~rng Harness.Fault.adversarial g
        ~workload:wl p

(* Many destinations at once: one of chaos's Buffers, Queues and Crash
   domains rewrites every slot of the state. *)
let chaos_write rng g ~wl:_ ~p st =
  let domain =
    Chaos.Schedule.[| Buffers; Queues; Crash |].(Prng.Splitmix.int rng 3)
  in
  Chaos.Inject.corrupt_state rng g ~p ~domains:[ domain ] st

(* Fresh identities, equal contents: both arrays replaced by copies. *)
let copy_write _ _ ~wl:_ ~p:_ st =
  {
    st with
    Ssmfp.State.slots = Array.copy st.Ssmfp.State.slots;
    routing = Array.copy st.Ssmfp.State.routing;
  }

(* One routing entry rewritten at a random destination: A's guard must
   re-run there at p and at its neighbors, and nowhere else. *)
let routing_write rng g ~wl:_ ~p:_ st =
  let n = Topology.Graph.n g in
  let routing = Array.copy st.Ssmfp.State.routing in
  routing.(Prng.Splitmix.int rng n) <-
    {
      Routing.Selfstab.dist = Prng.Splitmix.int rng (n + 1);
      via = Prng.Splitmix.int rng n;
    };
  Ssmfp.State.with_routing st routing

(* The request destination moves: the request is raised for a new
   outbox head with a random destination. *)
let request_write rng g ~wl:_ ~p:_ st =
  let dest = Prng.Splitmix.int rng (Topology.Graph.n g) in
  let rest = match st.Ssmfp.State.outbox with _ :: r -> r | [] -> [] in
  { st with Ssmfp.State.request = true; outbox = (dest, "moved") :: rest }

(* One run; [write], when given, adds before each step an external write
   at a random process, and the caches are checked again right after
   it. *)
let cache_run ~name ~config:(variant, tie, run_routing) ?write g ~daemon_kind
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
      (match write with
      | None -> ()
      | Some write ->
          let p = Prng.Splitmix.int storm_rng n in
          Sim.Engine.set_state t p
            (write storm_rng g ~wl ~p (Sim.Engine.state t p));
          check i);
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
            cache_run ~name ~config g ~daemon_kind ~seed ~max_steps:250
          done)
        daemon_kinds)
    graphs;
  Alcotest.(check int) "scenarios" 90 !count

(* A write storm under every configuration. *)
let storm ~name ~g ~max_steps write () =
  List.iteri
    (fun i (cname, config) ->
      cache_run ~name:(name ^ "/" ^ cname) ~config ~write g
        ~daemon_kind:"round-robin" ~seed:i ~max_steps)
    cache_configs

let diff_storm ~name write =
  storm ~name ~g:(Topology.Builders.torus ~rows:3 ~cols:3) ~max_steps:80 write

(* The cache's counters over [sweep]s of torus:3x3 from an adversarial
   start: one call per process, |N[p]| = 5 array pairs compared each.
   A sweep returns the array pairs compared, the destinations recomputed
   and the A guards re-run so far. *)
let torus_sweeps () =
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
      Alcotest.(check (list action))
        (Printf.sprintf "p%d" p)
        (Ssmfp.Protocol.enabled_rules g net ~p)
        (Ssmfp.Protocol.Cache.enabled cache net ~p)
    done;
    Ssmfp.Protocol.Cache.(checks cache, recomputes cache, route_recomputes cache)
  in
  (g, states, sweep)

let counts = Alcotest.(triple int int int)

(* An unchanged configuration recomputes no destination; a write of one
   slot recomputes exactly that destination at the writer and its
   neighbors and re-runs no A guard; a write of one routing entry
   re-runs A's guard too, at that destination for exactly N[p]. A
   cache that always missed, or that re-ran A on every change, would
   pass the differential and lose the gain. *)
let test_cache_hits () =
  let g, states, sweep = torus_sweeps () in
  let n = Topology.Graph.n g in
  let pairs = n * 5 in
  Alcotest.check counts "first sweep computes every destination"
    (pairs, n * n, n * n) (sweep ());
  Alcotest.check counts "unchanged configuration: no recompute"
    (2 * pairs, n * n, n * n) (sweep ());
  let p = 4 and d = 7 in
  let closed = 1 + Topology.Graph.degree g p in
  let sl = Ssmfp.State.slot states.(p) d in
  states.(p) <-
    Ssmfp.State.with_slot states.(p) d { sl with Ssmfp.State.buf_r = None };
  Alcotest.check counts "one slot written: N[p] recompute d, no A guard"
    (3 * pairs, (n * n) + closed, n * n) (sweep ());
  let routing = Array.copy states.(p).Ssmfp.State.routing in
  routing.(d) <- { Routing.Selfstab.dist = n; via = p };
  states.(p) <- Ssmfp.State.with_routing states.(p) routing;
  Alcotest.check counts "one routing entry written: N[p] re-run A at d"
    (4 * pairs, (n * n) + (2 * closed), (n * n) + closed)
    (sweep ())

(* Equal copies of both arrays are new identities with the same
   elements: the diff finds no destination to recompute. *)
let test_cache_equal_copy () =
  let g, states, sweep = torus_sweeps () in
  let n = Topology.Graph.n g in
  ignore (sweep ());
  for p = 0 to n - 1 do
    states.(p) <- copy_write () g ~wl:() ~p states.(p)
  done;
  Alcotest.check counts "every array copied: no recompute"
    (2 * n * 5, n * n, n * n) (sweep ())

(* Moving p's request from one destination to another recomputes those
   two destinations at p and nothing at its neighbors, which do not
   read the request bit; A reads no request, so its guard never re-runs. *)
let test_cache_request_moves () =
  let _, states, sweep = torus_sweeps () in
  let p = 2 in
  let requesting d =
    { (states.(p)) with Ssmfp.State.request = true; outbox = [ (d, "m") ] }
  in
  states.(p) <- requesting 3;
  let _, before, route_before = sweep () in
  states.(p) <- requesting 6;
  let _, after, route_after = sweep () in
  Alcotest.(check int) "destinations 3 and 6 at p" 2 (after - before);
  states.(p) <- { (states.(p)) with Ssmfp.State.request = false };
  let _, lowered, route_lowered = sweep () in
  Alcotest.(check int) "request lowered: destination 6 at p" 1
    (lowered - after);
  Alcotest.(check (list int)) "no A guard re-run" [ route_before; route_before ]
    [ route_after; route_lowered ]

(* A process's first call recomputes all n destinations, whatever the
   calls at other processes before it, and answers as the reference
   does; over every grid topology and pristine, adversarial and random
   starts. *)
let test_cache_first_call () =
  List.iter
    (fun (gname, g) ->
      let n = Topology.Graph.n g in
      for seed = 0 to 5 do
        let _, spec = spec_of seed in
        let rng = Prng.Splitmix.of_int (seed + 11) in
        let wl = Harness.Workload.uniform_random rng ~n ~per_processor:2 in
        let states =
          Array.init n (fun p ->
              let st =
                Harness.Fault.initial_states ~rng spec g ~workload:wl p
              in
              { st with Ssmfp.State.request = Prng.Splitmix.bool rng })
        in
        let net = Sim.Engine.synthetic ~graph:g ~states in
        let enabled = Ssmfp.Protocol.Cache.create g in
        let first = Ssmfp.Protocol.Cache.create g in
        for p = 0 to n - 1 do
          let label what =
            Printf.sprintf "%s seed %d p%d: %s" gname seed p what
          in
          let before = Ssmfp.Protocol.Cache.recomputes enabled in
          let route_before = Ssmfp.Protocol.Cache.route_recomputes enabled in
          Alcotest.(check (list action)) (label "enabled")
            (Ssmfp.Protocol.enabled_rules g net ~p)
            (Ssmfp.Protocol.Cache.enabled enabled net ~p);
          Alcotest.(check int) (label "recomputes n") n
            (Ssmfp.Protocol.Cache.recomputes enabled - before);
          Alcotest.(check int) (label "A guard re-runs n") n
            (Ssmfp.Protocol.Cache.route_recomputes enabled - route_before);
          Alcotest.(check (option action)) (label "first_enabled")
            (Ssmfp.Protocol.first_enabled g net ~p)
            (Ssmfp.Protocol.Cache.first_enabled first net ~p)
        done
      done)
    graphs

let () =
  Alcotest.run "incremental"
    [
      ( "differential",
        [
          Alcotest.test_case "120-scenario grid: full vs incremental" `Quick
            test_grid;
          Alcotest.test_case "set_state storm" `Quick test_set_state_storm;
          Alcotest.test_case "mode accessor & default" `Quick test_default_mode;
        ] );
      ( "guard cache",
        [
          Alcotest.test_case "90-scenario grid: cached vs reference guards"
            `Quick test_cache_grid;
          Alcotest.test_case "set_state storm, every configuration" `Quick
            (storm ~name:"storm" ~g:(Topology.Builders.ring 8) ~max_steps:200
               storm_write);
          Alcotest.test_case "hits on unchanged destinations" `Quick
            test_cache_hits;
          (* No suite name longer than "differential": Alcotest pads each
             row to the longest one and cuts the test names to fit. *)
          Alcotest.test_case "chaos buffers, queues and crash storm" `Quick
            (diff_storm ~name:"chaos" chaos_write);
          Alcotest.test_case "equal copies storm" `Quick
            (diff_storm ~name:"copies" copy_write);
          Alcotest.test_case "request destination storm" `Quick
            (diff_storm ~name:"request" request_write);
          Alcotest.test_case "routing entry storm" `Quick
            (diff_storm ~name:"routing" routing_write);
          Alcotest.test_case "equal copies recompute nothing" `Quick
            test_cache_equal_copy;
          Alcotest.test_case "request move recomputes two" `Quick
            test_cache_request_moves;
          Alcotest.test_case "first call" `Quick test_cache_first_call;
        ] );
    ]
