(* Tests for the self-stabilizing routing protocol A and table analyses. *)

let read_of tables p = tables.(p)

let test_correct_is_silent () =
  let g = Topology.Builders.ring 6 in
  let tables = Routing.Table.correct_all g in
  Alcotest.(check bool) "silent" true
    (Routing.Selfstab.is_silent g (read_of tables));
  Alcotest.(check bool) "correct" true
    (Routing.Selfstab.is_correct g (read_of tables))

let test_correct_matches_metrics () =
  let g = Topology.Builders.grid ~rows:3 ~cols:3 in
  let tables = Routing.Table.correct_all g in
  Topology.Graph.iter_vertices
    (fun d ->
      let dist = Topology.Metrics.bfs_distances g d in
      let tree = Topology.Metrics.shortest_path_tree g d in
      Topology.Graph.iter_vertices
        (fun p ->
          Alcotest.(check int) "dist" dist.(p) tables.(p).(d).Routing.Selfstab.dist;
          Alcotest.(check int) "via" tree.(p)
            (Routing.Selfstab.next_hop tables.(p) ~d))
        g)
    g

let test_self_entry () =
  let g = Topology.Builders.path 4 in
  let tables = Routing.Table.correct_all g in
  Topology.Graph.iter_vertices
    (fun p ->
      Alcotest.(check int) "self dist 0" 0 tables.(p).(p).Routing.Selfstab.dist;
      Alcotest.(check int) "self via self" p
        (Routing.Selfstab.next_hop tables.(p) ~d:p))
    g

let test_stabilize_from_worst () =
  let g = Topology.Builders.ring 8 in
  let worst = Routing.Table.worst_all g in
  let rounds, stabilized = Routing.Selfstab.stabilize g (Routing.Table.read worst) in
  Alcotest.(check bool) "took some rounds" true (rounds > 0);
  Alcotest.(check bool) "reaches canonical fixpoint" true
    (Routing.Selfstab.is_correct g stabilized)

let test_stabilize_idempotent () =
  let g = Topology.Builders.star 5 in
  let correct = Routing.Table.correct_all g in
  let rounds, _ = Routing.Selfstab.stabilize g (Routing.Table.read correct) in
  Alcotest.(check int) "0 rounds from fixpoint" 0 rounds

let test_enabled_dests () =
  let g = Topology.Builders.path 3 in
  let tables = Routing.Table.correct_all g in
  (* corrupt p0's entry for destination 2 (an overestimate: p1's own
     target, which reads p0's advertised distance, is unaffected) *)
  tables.(0) <- Array.copy tables.(0);
  tables.(0).(2) <- { Routing.Selfstab.dist = 5; via = 1 };
  Alcotest.(check (list int)) "only dest 2 enabled" [ 2 ]
    (Routing.Selfstab.enabled_dests g ~read:(read_of tables) ~p:0);
  Alcotest.(check (list int)) "p1 unaffected" []
    (Routing.Selfstab.enabled_dests g ~read:(read_of tables) ~p:1)

let test_apply_fixes_entry () =
  let g = Topology.Builders.path 3 in
  let tables = Routing.Table.correct_all g in
  tables.(0) <- Array.copy tables.(0);
  tables.(0).(2) <- { Routing.Selfstab.dist = 7; via = 1 };
  let fixed = Routing.Selfstab.apply g ~read:(read_of tables) ~p:0 ~d:2 in
  Alcotest.(check int) "dist repaired" 2 fixed.(2).Routing.Selfstab.dist;
  Alcotest.(check int) "via repaired" 1 fixed.(2).Routing.Selfstab.via

let test_smallest_id_tie_break () =
  (* On a 4-cycle, vertex 2 has two shortest paths to 0 (via 1 or via 3):
     the canonical choice is the smallest neighbor id. *)
  let g = Topology.Builders.ring 4 in
  let tables = Routing.Table.correct_all g in
  Alcotest.(check int) "tie broken to 1" 1
    (Routing.Selfstab.next_hop tables.(2) ~d:0)

let test_follow_reaches () =
  let g = Topology.Builders.path 4 in
  let tables = Routing.Table.correct_all g in
  (match Routing.Table.follow g tables ~src:0 ~dst:3 with
  | Routing.Table.Reaches p -> Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] p
  | Routing.Table.Loops _ -> Alcotest.fail "unexpected loop");
  Alcotest.(check int) "no loops on correct tables" 0
    (List.length (Routing.Table.routing_loops g tables))

let test_follow_detects_loop () =
  let g = Topology.Builders.paper_figure2 in
  let tables = Routing.Table.correct_all g in
  (* the Figure 3 corruption: a and c point at each other for dest b *)
  tables.(0) <- Array.copy tables.(0);
  tables.(2) <- Array.copy tables.(2);
  tables.(0).(1) <- { Routing.Selfstab.dist = 0; via = 2 };
  tables.(2).(1) <- { Routing.Selfstab.dist = 1; via = 0 };
  (match Routing.Table.follow g tables ~src:0 ~dst:1 with
  | Routing.Table.Loops _ -> ()
  | Routing.Table.Reaches _ -> Alcotest.fail "should loop");
  Alcotest.(check bool) "loops listed" true
    (List.mem (0, 1) (Routing.Table.routing_loops g tables))

let test_corrupted_fraction () =
  let g = Topology.Builders.ring 5 in
  let tables = Routing.Table.correct_all g in
  Alcotest.(check (float 1e-9)) "0 for canonical" 0.
    (Routing.Table.corrupted_fraction g tables);
  let worst = Routing.Table.worst_all g in
  Alcotest.(check bool) "worst mostly wrong" true
    (Routing.Table.corrupted_fraction g worst > 0.5)

let test_init_worst_shape () =
  let g = Topology.Builders.ring 5 in
  let s = Routing.Selfstab.init_worst g 2 in
  Array.iter
    (fun e ->
      Alcotest.(check int) "dist 0" 0 e.Routing.Selfstab.dist;
      Alcotest.(check int) "points at largest neighbor" 3 e.Routing.Selfstab.via)
    s

let test_largest_tie_break () =
  let g = Topology.Builders.ring 4 in
  let tables_small = Routing.Table.correct_all g in
  let large = Routing.Selfstab.init_correct ~tie:Routing.Selfstab.Largest_id g 2 in
  (* vertex 2 towards 0: via 1 (smallest) vs via 3 (largest) *)
  Alcotest.(check int) "smallest" 1 (Routing.Selfstab.next_hop tables_small.(2) ~d:0);
  Alcotest.(check int) "largest" 3 (Routing.Selfstab.next_hop large ~d:0);
  (* each tie-break's canonical tables are silent for that tie-break *)
  let read p = Routing.Selfstab.init_correct ~tie:Routing.Selfstab.Largest_id g p in
  Alcotest.(check bool) "largest fixpoint silent" true
    (Routing.Selfstab.is_silent ~tie:Routing.Selfstab.Largest_id g read);
  Alcotest.(check bool) "but not for the other tie-break" false
    (Routing.Selfstab.is_silent g read)

let test_stabilize_largest () =
  let g = Topology.Builders.grid ~rows:3 ~cols:3 in
  let rng = Prng.Splitmix.of_int 11 in
  let tables = Routing.Table.random_all rng g in
  let _, fixed =
    Routing.Selfstab.stabilize ~tie:Routing.Selfstab.Largest_id g
      (Routing.Table.read tables)
  in
  Alcotest.(check bool) "reaches the largest-id fixpoint" true
    (Routing.Selfstab.is_correct ~tie:Routing.Selfstab.Largest_id g fixed)

(* Properties *)

let graph_of (n, extra, seed) =
  Topology.Builders.random_connected (Prng.Splitmix.of_int seed) ~n
    ~extra_edges:extra

let gen =
  QCheck.make
    ~print:(fun (n, e, s) -> Printf.sprintf "n=%d extra=%d seed=%d" n e s)
    QCheck.Gen.(triple (int_range 2 20) (int_range 0 15) (int_range 0 5_000))

let prop_stabilizes_from_random =
  QCheck.Test.make ~name:"stabilizes to canonical from random tables" ~count:100
    gen (fun spec ->
      let g = graph_of spec in
      let _, _, seed = spec in
      let rng = Prng.Splitmix.of_int (seed + 1) in
      let tables = Routing.Table.random_all rng g in
      let _, fixed = Routing.Selfstab.stabilize g (Routing.Table.read tables) in
      Routing.Selfstab.is_correct g fixed)

let prop_silent_iff_correct =
  QCheck.Test.make ~name:"fixpoint is unique (silent => canonical)" ~count:100
    gen (fun spec ->
      let g = graph_of spec in
      let _, _, seed = spec in
      let rng = Prng.Splitmix.of_int (seed + 2) in
      let tables = Routing.Table.random_all rng g in
      let read = Routing.Table.read tables in
      (* if some random table happens to be silent it must be canonical *)
      (not (Routing.Selfstab.is_silent g read))
      || Routing.Selfstab.is_correct g read)

(* [init_correct] reads BFS distances from p and its neighbors only; the
   all-processors sweep, one BFS per vertex, is its reference. *)
let init_correct_agrees g =
  List.for_all
    (fun tie ->
      let all = Routing.Selfstab.init_correct_all ~tie g in
      List.for_all
        (fun p ->
          Array.for_all2 Routing.Selfstab.equal_entry
            (Routing.Selfstab.init_correct ~tie g p)
            all.(p))
        (Topology.Graph.vertices g))
    Routing.Selfstab.[ Smallest_id; Largest_id ]

let test_init_correct_matches_all () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) name true (init_correct_agrees g))
    [
      ("ring:9", Topology.Builders.ring 9);
      ("torus:4x5", Topology.Builders.torus ~rows:4 ~cols:5);
      ("star:6", Topology.Builders.star 6);
      ("fig2", Topology.Builders.paper_figure2);
    ]

let prop_init_correct_matches_all =
  QCheck.Test.make ~name:"init_correct = init_correct_all (random graphs)"
    ~count:100 gen (fun spec -> init_correct_agrees (graph_of spec))

(* [target] and [enabled] scan the neighbors without allocating; the
   reference is the rule as written: min over N_p of dist_q(d), capped at
   n, with the first (smallest-id) or last (largest-id) minimum. *)
let reference_target ~tie g ~read ~p ~d =
  if p = d then { Routing.Selfstab.dist = 0; via = p }
  else
    let n = Topology.Graph.n g in
    let bd, bv =
      List.fold_left
        (fun (bd, bv) q ->
          let qd = (read q).(d).Routing.Selfstab.dist in
          let wins =
            match tie with
            | Routing.Selfstab.Smallest_id -> qd < bd
            | Largest_id -> qd <= bd
          in
          if wins then (qd, q) else (bd, bv))
        (max_int, -1) (Topology.Graph.neighbors g p)
    in
    { dist = (if bd >= n then n else bd + 1); via = bv }

let prop_target_matches_reference =
  QCheck.Test.make ~name:"target and enabled match the rule (random tables)"
    ~count:100 gen (fun spec ->
      let g = graph_of spec in
      let _, _, seed = spec in
      let read =
        Routing.Table.read
          (Routing.Table.random_all (Prng.Splitmix.of_int (seed + 3)) g)
      in
      let vs = Topology.Graph.vertices g in
      List.for_all
        (fun tie ->
          List.for_all
            (fun p ->
              List.for_all
                (fun d ->
                  let t = Routing.Selfstab.target ~tie g ~read ~p ~d in
                  Routing.Selfstab.equal_entry t
                    (reference_target ~tie g ~read ~p ~d)
                  && Routing.Selfstab.enabled ~tie g ~read ~p ~d
                     = not (Routing.Selfstab.equal_entry (read p).(d) t))
                vs)
            vs)
        Routing.Selfstab.[ Smallest_id; Largest_id ])

let prop_routing_under_engine =
  (* Running A inside the engine under a random fair daemon also reaches
     the canonical tables (the composed protocol with no traffic). *)
  QCheck.Test.make ~name:"A stabilizes inside the engine" ~count:40 gen
    (fun spec ->
      let g = graph_of spec in
      let n = Topology.Graph.n g in
      let _, _, seed = spec in
      let spec' = { Harness.Fault.pristine with routing = Harness.Fault.Random } in
      let cfg =
        Harness.Runner.config ~spec:spec' ~daemon:Harness.Runner.Distributed_random
          ~seed g
          (Harness.Workload.empty ~n)
      in
      let r = Harness.Runner.run cfg in
      r.Harness.Runner.outcome = `Quiescent
      &&
      let states = r.Harness.Runner.final_net.Sim.Engine.states in
      Routing.Selfstab.is_correct g (fun p -> states.(p).Ssmfp.State.routing))

let () =
  Alcotest.run "routing"
    [
      ( "selfstab",
        [
          Alcotest.test_case "correct is silent" `Quick test_correct_is_silent;
          Alcotest.test_case "matches metrics" `Quick test_correct_matches_metrics;
          Alcotest.test_case "self entries" `Quick test_self_entry;
          Alcotest.test_case "stabilize from worst" `Quick test_stabilize_from_worst;
          Alcotest.test_case "stabilize idempotent" `Quick test_stabilize_idempotent;
          Alcotest.test_case "enabled dests" `Quick test_enabled_dests;
          Alcotest.test_case "apply fixes entry" `Quick test_apply_fixes_entry;
          Alcotest.test_case "smallest-id tie break" `Quick
            test_smallest_id_tie_break;
          Alcotest.test_case "largest-id tie break" `Quick test_largest_tie_break;
          Alcotest.test_case "stabilize (largest)" `Quick test_stabilize_largest;
          Alcotest.test_case "init_worst shape" `Quick test_init_worst_shape;
          Alcotest.test_case "init_correct = init_correct_all" `Quick
            test_init_correct_matches_all;
        ] );
      ( "table analyses",
        [
          Alcotest.test_case "follow reaches" `Quick test_follow_reaches;
          Alcotest.test_case "follow detects loops" `Quick test_follow_detects_loop;
          Alcotest.test_case "corrupted fraction" `Quick test_corrupted_fraction;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_stabilizes_from_random;
            prop_silent_iff_correct;
            prop_routing_under_engine;
            prop_init_correct_matches_all;
            prop_target_matches_reference;
          ] );
    ]
