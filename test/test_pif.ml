(* Tests for the companion snap-stabilizing PIF protocol, including the
   exhaustive check over every initial phase vector of small trees. *)

let star5 = Pif.tree_of (Topology.Builders.star 5) ~root:0
let path5 = Pif.tree_of (Topology.Builders.path 5) ~root:0
let btree7 = Pif.tree_of (Topology.Builders.binary_tree 7) ~root:0

let test_tree_of () =
  Alcotest.(check (array int)) "star parents" [| 0; 0; 0; 0; 0 |] star5.Pif.parent;
  Alcotest.(check (array int)) "path parents" [| 0; 0; 1; 2; 3 |] path5.Pif.parent;
  Alcotest.check_raises "not a tree" (Invalid_argument "Pif.tree_of: not a tree")
    (fun () -> ignore (Pif.tree_of (Topology.Builders.ring 4) ~root:0))

let test_single_wave_clean_start () =
  let r =
    Pif.run_waves path5 ~waves:1 ~daemon:(Sim.Daemon.round_robin ())
  in
  Alcotest.(check int) "one wave" 1 r.Pif.waves_completed;
  Alcotest.(check bool) "coverage" true r.Pif.coverage_ok

let test_multiple_waves () =
  let r =
    Pif.run_waves btree7 ~waves:5 ~daemon:(Sim.Daemon.round_robin ())
  in
  Alcotest.(check int) "five waves" 5 r.Pif.waves_completed;
  Alcotest.(check bool) "coverage" true r.Pif.coverage_ok

let test_wave_under_distributed_daemon () =
  let rng = Prng.Splitmix.of_int 5 in
  let r =
    Pif.run_waves btree7 ~waves:3 ~daemon:(Sim.Daemon.distributed_random rng)
  in
  Alcotest.(check bool) "completed at least 3" true (r.Pif.waves_completed >= 3);
  Alcotest.(check bool) "coverage" true r.Pif.coverage_ok

let exhaustive tree n =
  (* every initial phase vector: the snap-stabilization quantifier *)
  List.iter
    (fun vector ->
      let r =
        Pif.run_waves
          ~initial:(fun p -> vector.(p))
          tree ~waves:2
          ~daemon:(Sim.Daemon.round_robin ())
      in
      if r.Pif.waves_completed < 2 || not r.Pif.coverage_ok then
        Alcotest.failf "initial [%s]: %d waves, coverage %b"
          (String.concat ""
             (List.map Pif.phase_name (Array.to_list vector)))
          r.Pif.waves_completed r.Pif.coverage_ok)
    (Pif.all_phase_vectors n)

let test_exhaustive_star () = exhaustive star5 5
let test_exhaustive_path () = exhaustive path5 5
let test_exhaustive_btree () = exhaustive btree7 7

let test_phase_vectors_count () =
  Alcotest.(check int) "3^4" 81 (List.length (Pif.all_phase_vectors 4))

(* Exhaustive *safety* under all central-daemon schedules (and composite
   steps for the small case), via the model checker's explorer: PIF as a
   Mc.Par model whose key is the canonical phase strings plus a monitor.
   The monitor is a parameter so the positive control can swap in a
   property that must fail. *)
let pif_model tree ~init_monitor ~monitor ~monitor_canon ~prune =
  let canon (s : Pif.state) =
    Pif.phase_name s.Pif.phase ^ if s.Pif.request then "!" else ""
  in
  let root = tree.Pif.root in
  {
    Mc.Par.protocol = Pif.protocol tree;
    init_monitor;
    monitor;
    encode =
      (fun codec states m ->
        Array.iter (fun s -> Mc.Codec.add_string codec (canon s)) states;
        Mc.Codec.add_string codec (monitor_canon m));
    externals =
      (fun states ->
        if states.(root).Pif.request then []
        else begin
          let states' = Array.copy states in
          states'.(root) <- { (states'.(root)) with Pif.request = true };
          [ (states', [ root ]) ]
        end);
    ample = None;
    prune;
    witness = (fun _ _ -> false);
    (* the root can always be requested, so no configuration is terminal *)
    deadlock = (fun _ -> true);
    render =
      (fun states m ->
        String.concat "" (Array.to_list (Array.map canon states))
        ^ " " ^ monitor_canon m);
  }

let initials tree =
  let n = Topology.Graph.n tree.Pif.graph in
  List.map
    (fun vector ->
      Array.init n (fun p -> { Pif.phase = vector.(p); request = false }))
    (Pif.all_phase_vectors n)

(* The root never collects feedback for a requested wave before every
   processor received the broadcast. *)
type pif_monitor = { in_wave : bool; received : int; bad : bool }

let pif_safety ?(simultaneity = false) ?workers tree =
  let g = tree.Pif.graph in
  let full = (1 lsl Topology.Graph.n g) - 1 in
  let monitor m ~pid = function
    | Pif.Started -> { in_wave = true; received = 0; bad = m.bad }
    | Pif.Received ->
        if m.in_wave then { m with received = m.received lor (1 lsl pid) }
        else m
    | Pif.Completed ->
        if m.in_wave && m.received <> full then { m with bad = true; in_wave = false }
        else { m with in_wave = false }
  in
  let model =
    pif_model tree
      ~init_monitor:{ in_wave = false; received = 0; bad = false }
      ~monitor
      ~monitor_canon:(fun m -> Printf.sprintf "%b.%d.%b" m.in_wave m.received m.bad)
      ~prune:(fun _ m -> m.bad)
  in
  Mc.Par.check_safety ~simultaneity ?workers ~graph:g model (initials tree)

(* Counts pinned from the sequential string-keyed PIF checker the
   explorer replaced: the same key partition must give the same space. *)
let check_clean (explored, transitions) (r : Mc.Par.report) =
  Alcotest.(check int) "explored" explored r.Mc.Par.explored;
  Alcotest.(check int) "transitions" transitions r.Mc.Par.transitions;
  Alcotest.(check (option string)) "no violation" None r.Mc.Par.violation;
  Alcotest.(check (option string)) "no deadlock" None r.Mc.Par.deadlock

let test_exhaustive_safety_path5 () = check_clean (718, 1876) (pif_safety path5)
let test_exhaustive_safety_star5 () = check_clean (680, 2300) (pif_safety star5)

let test_exhaustive_safety_simultaneous_path3 () =
  check_clean (78, 193)
    (pif_safety ~simultaneity:true (Pif.tree_of (Topology.Builders.path 3) ~root:0))

let check_same_report (a : Mc.Par.report) (b : Mc.Par.report) =
  Alcotest.(check int) "explored" a.Mc.Par.explored b.Mc.Par.explored;
  Alcotest.(check int) "transitions" a.Mc.Par.transitions b.Mc.Par.transitions;
  Alcotest.(check (option string)) "violation" a.Mc.Par.violation b.Mc.Par.violation;
  Alcotest.(check (option string)) "witness" a.Mc.Par.witness b.Mc.Par.witness;
  Alcotest.(check (option string)) "deadlock" a.Mc.Par.deadlock b.Mc.Par.deadlock;
  Alcotest.(check int) "visited entries" a.Mc.Par.visited.Mc.Store.entries
    b.Mc.Par.visited.Mc.Store.entries;
  Alcotest.(check int) "visited capacity" a.Mc.Par.visited.Mc.Store.capacity
    b.Mc.Par.visited.Mc.Store.capacity;
  Alcotest.(check int) "visited key bytes" a.Mc.Par.visited.Mc.Store.key_bytes
    b.Mc.Par.visited.Mc.Store.key_bytes

let test_safety_workers_identity () =
  List.iter
    (fun tree ->
      check_same_report (pif_safety ~workers:1 tree) (pif_safety ~workers:2 tree))
    [ path5; star5 ]

(* Positive control: "the root never completes a wave" is false (waves
   complete from every start), so the explorer must report a violation,
   with the same canonical witness at any worker count. *)
let test_safety_positive_control () =
  let never_completes workers =
    Mc.Par.check_safety ~workers ~graph:path5.Pif.graph
      (pif_model path5 ~init_monitor:false
         ~monitor:(fun done_ ~pid:_ ev -> done_ || ev = Pif.Completed)
         ~monitor_canon:string_of_bool
         ~prune:(fun _ done_ -> done_))
      (initials path5)
  in
  let w1 = never_completes 1 and w2 = never_completes 2 in
  Alcotest.(check bool) "violation found" true (w1.Mc.Par.violation <> None);
  check_same_report w1 w2

let prop_random_trees_random_daemons =
  QCheck.Test.make ~name:"PIF waves cover every node on random trees"
    ~count:60
    QCheck.(triple (int_range 2 12) (int_range 0 10_000) (int_range 0 2))
    (fun (n, seed, which) ->
      let rng = Prng.Splitmix.of_int seed in
      let g = Topology.Builders.random_tree rng ~n in
      let tree = Pif.tree_of g ~root:(Prng.Splitmix.int rng n) in
      let daemon =
        match which with
        | 0 -> Sim.Daemon.round_robin ()
        | 1 -> Sim.Daemon.distributed_random rng
        | _ -> Sim.Daemon.synchronous ()
      in
      let initial _ = Prng.Splitmix.choose rng [ Pif.B; Pif.F; Pif.C ] in
      let r = Pif.run_waves ~initial tree ~waves:2 ~daemon in
      r.Pif.waves_completed >= 2 && r.Pif.coverage_ok)

let () =
  Alcotest.run "pif"
    [
      ( "waves",
        [
          Alcotest.test_case "tree orientation" `Quick test_tree_of;
          Alcotest.test_case "single wave" `Quick test_single_wave_clean_start;
          Alcotest.test_case "multiple waves" `Quick test_multiple_waves;
          Alcotest.test_case "distributed daemon" `Quick
            test_wave_under_distributed_daemon;
          Alcotest.test_case "phase vector count" `Quick test_phase_vectors_count;
        ] );
      ( "snap-stabilization (exhaustive)",
        [
          Alcotest.test_case "star5: all 3^5 initial states" `Quick
            test_exhaustive_star;
          Alcotest.test_case "path5: all 3^5 initial states" `Quick
            test_exhaustive_path;
          Alcotest.test_case "btree7: all 3^7 initial states" `Slow
            test_exhaustive_btree;
          Alcotest.test_case "safety: all schedules, path5" `Quick
            test_exhaustive_safety_path5;
          Alcotest.test_case "safety: all schedules, star5" `Quick
            test_exhaustive_safety_star5;
          Alcotest.test_case "safety: composite steps, path3" `Quick
            test_exhaustive_safety_simultaneous_path3;
          Alcotest.test_case "safety: workers 1/2 identity" `Quick
            test_safety_workers_identity;
          Alcotest.test_case "safety: positive control" `Quick
            test_safety_positive_control;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_trees_random_daemons ] );
    ]
