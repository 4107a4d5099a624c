(* Tests of the state-model engine: composite atomicity, round counting
   with neutralization, daemon contracts, scripted schedules. *)

(* A toy protocol: each processor holds an int; a processor is enabled
   when some neighbor holds a strictly larger value, and it adopts the
   maximum of its neighborhood. Terminal iff all values are equal. *)
let max_protocol g =
  {
    Sim.Engine.enabled =
      (fun net p ->
        let mine = net.Sim.Engine.states.(p) in
        let bigger =
          List.exists
            (fun q -> net.Sim.Engine.states.(q) > mine)
            (Topology.Graph.neighbors g p)
        in
        if bigger then [ `Adopt ] else []);
    apply =
      (fun net p `Adopt ->
        let v =
          List.fold_left
            (fun acc q -> max acc net.Sim.Engine.states.(q))
            net.Sim.Engine.states.(p)
            (Topology.Graph.neighbors g p)
        in
        (v, [ v ]));
    rules = [| "adopt" |];
    rule_of = (fun `Adopt -> 0);
  }

(* A protocol where neighbors swap values: tests that simultaneous writes
   read the pre-step configuration (composite atomicity). *)
let swap_protocol g =
  {
    Sim.Engine.enabled = (fun _net _p -> [ `Swap ]);
    apply =
      (fun net p `Swap ->
        match Topology.Graph.neighbors g p with
        | q :: _ -> (net.Sim.Engine.states.(q), [])
        | [] -> (net.Sim.Engine.states.(p), []));
    rules = [| "swap" |];
    rule_of = (fun `Swap -> 0);
  }

let ring4 = Topology.Builders.ring 4
let path2 = Topology.Builders.path 2

let test_terminal_detection () =
  let t =
    Sim.Engine.make ~graph:ring4 ~protocol:(max_protocol ring4)
      (fun _ -> 5)
  in
  Alcotest.(check bool) "all equal = terminal" true (Sim.Engine.is_terminal t);
  Alcotest.(check bool) "step returns None" true
    (Sim.Engine.step t (Sim.Daemon.synchronous ()) = None)

let test_max_converges () =
  let t =
    Sim.Engine.make ~graph:ring4 ~protocol:(max_protocol ring4) (fun p -> p)
  in
  let status = Sim.Engine.run t (Sim.Daemon.synchronous ()) in
  Alcotest.(check bool) "terminal" true (status = `Terminal);
  for p = 0 to 3 do
    Alcotest.(check int) "adopted max" 3 (Sim.Engine.state t p)
  done

let test_composite_atomicity_swap () =
  let t =
    Sim.Engine.make ~graph:path2 ~protocol:(swap_protocol path2)
      (fun p -> p * 10)
  in
  (* Both processors move simultaneously, each reading the pre-step value
     of the other: a clean swap, not a clobber. *)
  ignore (Sim.Engine.step t (Sim.Daemon.synchronous ()));
  Alcotest.(check int) "p0 got p1's value" 10 (Sim.Engine.state t 0);
  Alcotest.(check int) "p1 got p0's value" 0 (Sim.Engine.state t 1)

let test_rounds_synchronous () =
  let t =
    Sim.Engine.make ~graph:(Topology.Builders.path 6)
      ~protocol:(max_protocol (Topology.Builders.path 6))
      (fun p -> p)
  in
  let _ = Sim.Engine.run t (Sim.Daemon.synchronous ()) in
  let s = Sim.Engine.stats t in
  Alcotest.(check int) "rounds = steps under sync" s.Sim.Engine.steps
    s.Sim.Engine.rounds

let test_neutralization () =
  (* path 0-1-2, values 0,0,1: processors 0 and 1 are disabled, 1 becomes
     enabled only via propagation; but crucially if 1 adopts from 2 first,
     then 0 is enabled; when 0 is the only pending member of a round and
     gets neutralized by an external write, the round completes. *)
  let g = Topology.Builders.path 3 in
  let t =
    Sim.Engine.make ~graph:g ~protocol:(max_protocol g)
      (fun p -> if p = 2 then 1 else 0)
  in
  (* only processor 1 is enabled *)
  let cands = Sim.Engine.candidates t in
  Alcotest.(check (list int)) "only p1 enabled" [ 1 ]
    (List.map (fun c -> c.Sim.Engine.cand_pid) cands);
  (* neutralize p1 by force: make everyone equal *)
  Sim.Engine.set_state t 2 0;
  Alcotest.(check bool) "terminal after neutralization" true
    (Sim.Engine.is_terminal t)

let test_rounds_count_neutralized () =
  (* Under a central daemon on the ring, a round completes only once every
     initially enabled processor has moved or been neutralized. *)
  let t =
    Sim.Engine.make ~graph:ring4 ~protocol:(max_protocol ring4)
      (fun p -> p)
  in
  let _ = Sim.Engine.run t (Sim.Daemon.round_robin ()) in
  let s = Sim.Engine.stats t in
  Alcotest.(check bool) "rounds <= steps" true (s.Sim.Engine.rounds <= s.Sim.Engine.steps);
  Alcotest.(check bool) "rounds > 0" true (s.Sim.Engine.rounds > 0)

let test_moves_by_rule () =
  let t =
    Sim.Engine.make ~graph:ring4 ~protocol:(max_protocol ring4)
      (fun p -> p)
  in
  let _ = Sim.Engine.run t (Sim.Daemon.synchronous ()) in
  let s = Sim.Engine.stats t in
  Alcotest.(check int) "one rule" 1 (List.length s.Sim.Engine.moves_by_rule);
  let rule, count = List.hd s.Sim.Engine.moves_by_rule in
  Alcotest.(check string) "label" "adopt" rule;
  Alcotest.(check int) "count = moves" s.Sim.Engine.moves count

let test_events_emitted () =
  let t =
    Sim.Engine.make ~graph:ring4 ~protocol:(max_protocol ring4)
      (fun p -> p)
  in
  let events = ref [] in
  let _ =
    Sim.Engine.run t
      ~on_events:(fun ~step:_ evs -> events := evs @ !events)
      (Sim.Daemon.synchronous ())
  in
  Alcotest.(check bool) "events collected" true (!events <> []);
  Alcotest.(check bool) "final adoptions are 3" true
    (List.for_all (fun (_, v) -> v <= 3) !events)

let test_daemon_empty_selection_rejected () =
  let t =
    Sim.Engine.make ~graph:ring4 ~protocol:(max_protocol ring4)
      (fun p -> p)
  in
  let bad ~step:_ _ = [] in
  Alcotest.check_raises "empty selection"
    (Sim.Engine.Invalid_selection "daemon returned an empty selection")
    (fun () -> ignore (Sim.Engine.step t bad))

let test_daemon_not_enabled_rejected () =
  let t =
    Sim.Engine.make ~graph:ring4 ~protocol:(max_protocol ring4)
      (fun p -> p)
  in
  (* processor 3 holds the max: not enabled *)
  let bad ~step:_ cands =
    ignore cands;
    [ (3, `Adopt) ]
  in
  Alcotest.check_raises "processor 3 is not enabled"
    (Sim.Engine.Invalid_selection "processor 3 is not enabled") (fun () ->
      ignore (Sim.Engine.step t bad))

let test_daemon_duplicate_rejected () =
  let t =
    Sim.Engine.make ~graph:ring4 ~protocol:(max_protocol ring4)
      (fun p -> p)
  in
  let bad ~step:_ cands =
    let c = List.hd cands in
    let a = List.hd c.Sim.Engine.cand_actions in
    [ (c.Sim.Engine.cand_pid, a); (c.Sim.Engine.cand_pid, a) ]
  in
  Alcotest.check_raises "dup"
    (Sim.Engine.Invalid_selection "processor 0 selected twice") (fun () ->
      ignore (Sim.Engine.step t bad))

let test_max_steps () =
  let t =
    Sim.Engine.make ~graph:path2 ~protocol:(swap_protocol path2)
      (fun p -> p)
  in
  (* swap protocol never terminates *)
  let status = Sim.Engine.run ~max_steps:10 t (Sim.Daemon.synchronous ()) in
  Alcotest.(check bool) "max steps" true (status = `Max_steps);
  Alcotest.(check int) "ran 10" 10 (Sim.Engine.stats t).Sim.Engine.steps

let test_stop_condition () =
  let t =
    Sim.Engine.make ~graph:path2 ~protocol:(swap_protocol path2)
      (fun p -> p)
  in
  let status =
    Sim.Engine.run
      ~stop:(fun t -> (Sim.Engine.stats t).Sim.Engine.steps >= 3)
      t (Sim.Daemon.synchronous ())
  in
  Alcotest.(check bool) "stopped" true (status = `Stopped);
  Alcotest.(check int) "after 3" 3 (Sim.Engine.stats t).Sim.Engine.steps

let test_scripted_daemon () =
  let g = Topology.Builders.path 3 in
  let t =
    Sim.Engine.make ~graph:g ~protocol:(max_protocol g) (fun p -> p)
  in
  let daemon = Sim.Daemon.scripted ~label:(fun `Adopt -> "adopt") [ (1, "adopt") ] in
  ignore (Sim.Engine.step t daemon);
  Alcotest.(check int) "p1 adopted 2" 2 (Sim.Engine.state t 1);
  Alcotest.check_raises "script exhausted"
    (Sim.Engine.Invalid_selection "scripted: script exhausted") (fun () ->
      ignore (Sim.Engine.step t daemon))

let test_scripted_wrong_rule () =
  let g = Topology.Builders.path 3 in
  let t =
    Sim.Engine.make ~graph:g ~protocol:(max_protocol g) (fun p -> p)
  in
  let daemon = Sim.Daemon.scripted ~label:(fun `Adopt -> "adopt") [ (1, "bogus") ] in
  Alcotest.check_raises "bad rule"
    (Sim.Engine.Invalid_selection "scripted: rule bogus not enabled at processor 1")
    (fun () -> ignore (Sim.Engine.step t daemon))

let test_synthetic_validation () =
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Engine.synthetic: states length <> graph size")
    (fun () -> ignore (Sim.Engine.synthetic ~graph:ring4 ~states:[| 1 |]))

let test_round_robin_fairness () =
  (* every processor of the always-enabled swap ring is selected within n
     picks *)
  let g = Topology.Builders.ring 4 in
  let t =
    Sim.Engine.make ~graph:g ~protocol:(swap_protocol g) (fun p -> p)
  in
  let chosen = Array.make 4 0 in
  let daemon = Sim.Daemon.round_robin () in
  let counting ~step cands =
    let sel = daemon ~step cands in
    List.iter (fun (p, _) -> chosen.(p) <- chosen.(p) + 1) sel;
    sel
  in
  for _ = 1 to 40 do
    ignore (Sim.Engine.step t counting)
  done;
  Array.iter
    (fun c -> Alcotest.(check int) "each chosen 10x" 10 c)
    chosen

let test_k_central () =
  let g = Topology.Builders.ring 6 in
  let t =
    Sim.Engine.make ~graph:g ~protocol:(swap_protocol g) (fun p -> p)
  in
  let rng = Prng.Splitmix.of_int 3 in
  let daemon = Sim.Daemon.k_central rng ~k:2 in
  let sizes = ref [] in
  let counting ~step cands =
    let sel = daemon ~step cands in
    sizes := List.length sel :: !sizes;
    sel
  in
  for _ = 1 to 30 do
    ignore (Sim.Engine.step t counting)
  done;
  List.iter
    (fun k -> Alcotest.(check bool) "1 <= |sel| <= 2" true (k >= 1 && k <= 2))
    !sizes;
  Alcotest.check_raises "k < 1" (Invalid_argument "Daemon.k_central: k < 1")
    (fun () ->
      let d : unit Sim.Engine.daemon = Sim.Daemon.k_central rng ~k:0 in
      ignore d)

(* Actions here are boxed values, so a daemon can return an action that
   is structurally equal but physically distinct from the offered one —
   the engine's selection check must accept it (it compares
   structurally, not by pointer). *)
type boxed_action = Set of int

let boxed_protocol g =
  {
    Sim.Engine.enabled =
      (fun net p ->
        let mine = net.Sim.Engine.states.(p) in
        let best =
          List.fold_left
            (fun acc q -> max acc net.Sim.Engine.states.(q))
            mine (Topology.Graph.neighbors g p)
        in
        if best > mine then [ Set best ] else []);
    apply = (fun _ _ (Set v) -> (v, [ v ]));
    rules = [| "set" |];
    rule_of = (fun (Set _) -> 0);
  }

let test_rebuilt_action_accepted () =
  let t =
    Sim.Engine.make ~graph:ring4 ~protocol:(boxed_protocol ring4) (fun p -> p)
  in
  let rebuilding ~step:_ cands =
    let c = List.hd cands in
    let (Set v) = List.hd c.Sim.Engine.cand_actions in
    (* A fresh allocation: same contents, different address. *)
    let a = Set v in
    assert (a != List.hd c.Sim.Engine.cand_actions);
    [ (c.Sim.Engine.cand_pid, a) ]
  in
  (match Sim.Engine.step t rebuilding with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a step");
  Alcotest.(check int) "rebuilt action executed" 3 (Sim.Engine.state t 0)

let counting_probe r =
  {
    Sim.Engine.on_move = (fun ~pid:_ ~rule:_ -> incr r);
    on_step = (fun ~step:_ ~frontier:_ ~moves:_ -> ());
    on_round = (fun ~round:_ ~moves:_ -> ());
  }

let test_run_probe_scoped () =
  let t =
    Sim.Engine.make ~graph:path2 ~protocol:(swap_protocol path2) (fun p -> p)
  in
  let installed = ref 0 and scoped = ref 0 in
  Sim.Engine.set_probe t (Some (counting_probe installed));
  let status =
    Sim.Engine.run ~max_steps:3 ~probe:(counting_probe scoped) t
      (Sim.Daemon.synchronous ())
  in
  Alcotest.(check bool) "ran" true (status = `Max_steps);
  Alcotest.(check int) "scoped probe saw the run" 6 !scoped;
  Alcotest.(check int) "installed probe silent during run" 0 !installed;
  (* After the run the previously installed probe is active again. *)
  ignore (Sim.Engine.step t (Sim.Daemon.synchronous ()));
  Alcotest.(check int) "installed probe restored" 2 !installed;
  Alcotest.(check int) "scoped probe gone" 6 !scoped;
  (* A run without [?probe] leaves the installed probe active. *)
  ignore (Sim.Engine.run ~max_steps:1 t (Sim.Daemon.synchronous ()));
  Alcotest.(check int) "installed probe active in plain run" 4 !installed

let test_run_probe_restored_on_exception () =
  let t =
    Sim.Engine.make ~graph:path2 ~protocol:(swap_protocol path2) (fun p -> p)
  in
  let installed = ref 0 and scoped = ref 0 in
  Sim.Engine.set_probe t (Some (counting_probe installed));
  (try
     ignore
       (Sim.Engine.run
          ~stop:(fun _ -> raise Exit)
          ~probe:(counting_probe scoped) t
          (Sim.Daemon.synchronous ()))
   with Exit -> ());
  ignore (Sim.Engine.step t (Sim.Daemon.synchronous ()));
  Alcotest.(check int) "installed probe restored after exception" 2 !installed

let prop_distributed_random_nonempty =
  QCheck.Test.make ~name:"distributed daemon picks valid subsets" ~count:200
    QCheck.small_int (fun seed ->
      let g = Topology.Builders.ring 5 in
      let t =
        Sim.Engine.make ~graph:g ~protocol:(swap_protocol g) (fun p -> p)
      in
      let rng = Prng.Splitmix.of_int seed in
      let daemon = Sim.Daemon.distributed_random rng in
      (* the engine validates selections; surviving 20 steps is the test *)
      (try
         for _ = 1 to 20 do
           ignore (Sim.Engine.step t daemon)
         done;
         true
       with Sim.Engine.Invalid_selection _ -> false))

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "terminal detection" `Quick test_terminal_detection;
          Alcotest.test_case "max converges" `Quick test_max_converges;
          Alcotest.test_case "composite atomicity" `Quick
            test_composite_atomicity_swap;
          Alcotest.test_case "rounds = steps (sync)" `Quick test_rounds_synchronous;
          Alcotest.test_case "neutralization" `Quick test_neutralization;
          Alcotest.test_case "rounds vs steps (central)" `Quick
            test_rounds_count_neutralized;
          Alcotest.test_case "moves by rule" `Quick test_moves_by_rule;
          Alcotest.test_case "events" `Quick test_events_emitted;
          Alcotest.test_case "max steps" `Quick test_max_steps;
          Alcotest.test_case "stop condition" `Quick test_stop_condition;
          Alcotest.test_case "synthetic validation" `Quick test_synthetic_validation;
          Alcotest.test_case "rebuilt action accepted" `Quick
            test_rebuilt_action_accepted;
          Alcotest.test_case "run probe scoped" `Quick test_run_probe_scoped;
          Alcotest.test_case "run probe restored on exception" `Quick
            test_run_probe_restored_on_exception;
        ] );
      ( "daemons",
        [
          Alcotest.test_case "empty selection rejected" `Quick
            test_daemon_empty_selection_rejected;
          Alcotest.test_case "not-enabled rejected" `Quick
            test_daemon_not_enabled_rejected;
          Alcotest.test_case "duplicate rejected" `Quick test_daemon_duplicate_rejected;
          Alcotest.test_case "scripted" `Quick test_scripted_daemon;
          Alcotest.test_case "scripted wrong rule" `Quick test_scripted_wrong_rule;
          Alcotest.test_case "round robin fairness" `Quick test_round_robin_fairness;
          Alcotest.test_case "k-central" `Quick test_k_central;
          QCheck_alcotest.to_alcotest prop_distributed_random_nonempty;
        ] );
    ]
