(* Tests for the execution-trace recorder. *)

let max_protocol g =
  {
    Sim.Engine.enabled =
      (fun net p ->
        let mine = net.Sim.Engine.states.(p) in
        if
          List.exists
            (fun q -> net.Sim.Engine.states.(q) > mine)
            (Topology.Graph.neighbors g p)
        then [ () ]
        else []);
    apply =
      (fun net p () ->
        ( List.fold_left
            (fun acc q -> max acc net.Sim.Engine.states.(q))
            net.Sim.Engine.states.(p)
            (Topology.Graph.neighbors g p),
          [] ));
    rules = [| "adopt" |];
    rule_of = (fun () -> 0);
  }

let test_record_and_entries () =
  let tr = Sim.Trace.create () in
  Sim.Trace.record tr ~step:0 ~moves:[] ~after:"a";
  Sim.Trace.record tr ~step:1
    ~moves:[ { Sim.Trace.pid = 2; rule = "R1" } ]
    ~after:"b";
  Alcotest.(check int) "length" 2 (Sim.Trace.length tr);
  let entries = Sim.Trace.entries tr in
  Alcotest.(check string) "first snapshot" "a" (List.nth entries 0).Sim.Trace.after;
  Alcotest.(check int) "second step" 1 (List.nth entries 1).Sim.Trace.step

let test_wrap_daemon_records_run () =
  let g = Topology.Builders.path 4 in
  let t = Sim.Engine.make ~graph:g ~protocol:(max_protocol g) (fun p -> p) in
  let tr = Sim.Trace.create () in
  let snapshot () =
    String.concat ""
      (List.map
         (fun p -> string_of_int (Sim.Engine.state t p))
         (Topology.Graph.vertices g))
  in
  let daemon =
    Sim.Trace.wrap_daemon tr ~snapshot ~label:(fun () -> "adopt")
      (Sim.Daemon.synchronous ())
  in
  let status = Sim.Engine.run t daemon in
  Sim.Trace.flush tr ~snapshot;
  Alcotest.(check bool) "terminal" true (status = `Terminal);
  let entries = Sim.Trace.entries tr in
  Alcotest.(check bool) "recorded steps" true (List.length entries >= 2);
  (* the final snapshot is the converged configuration *)
  let last = List.nth entries (List.length entries - 1) in
  Alcotest.(check string) "converged" "3333" last.Sim.Trace.after;
  (* every recorded move carries the protocol's rule label *)
  List.iter
    (fun e ->
      List.iter
        (fun m -> Alcotest.(check string) "label" "adopt" m.Sim.Trace.rule)
        e.Sim.Trace.moves)
    entries

let test_pp () =
  let tr = Sim.Trace.create () in
  Sim.Trace.record tr ~step:0
    ~moves:[ { Sim.Trace.pid = 1; rule = "R2" } ]
    ~after:"snap";
  let s =
    Format.asprintf "%a"
      (Sim.Trace.pp ~pp_snapshot:(fun fmt s -> Format.pp_print_string fmt s))
      tr
  in
  Alcotest.(check bool) "mentions move" true (Test_util.contains s "p1:R2");
  Alcotest.(check bool) "mentions snapshot" true (Test_util.contains s "snap")

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "record & entries" `Quick test_record_and_entries;
          Alcotest.test_case "wrap daemon" `Quick test_wrap_daemon_records_run;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
    ]
