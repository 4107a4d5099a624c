(* Guard-level unit tests for SSMFP's rules R1-R6, the routing priority,
   and the destination rotation. Configurations are crafted directly and
   evaluated through Protocol.enabled_rules / apply. The "kernel" group
   checks Protocol.flags against the literal guards. *)

open Ssmfp.Protocol

let path3 = Topology.Builders.path 3 (* 0 - 1 - 2 *)

let enabled ?(run_routing = false) g states p =
  enabled_rules g ~run_routing (Test_util.net_of g states) ~p

let has rule dest acts =
  List.exists (fun a -> a.Ssmfp.Protocol.rule = rule && a.dest = dest) acts

let apply_rule ?(run_routing = false) g states p rule dest =
  let proto = make ~run_routing g in
  let net = Test_util.net_of g states in
  let acts = proto.Sim.Engine.enabled net p in
  match
    List.find_opt
      (fun a -> a.Ssmfp.Protocol.rule = rule && a.dest = dest)
      acts
  with
  | None -> Alcotest.failf "rule %s not enabled" (rule_name rule)
  | Some a -> proto.Sim.Engine.apply net p a

let msg ?(info = "m") ?(valid = false) ~last ~color at =
  if valid then
    (* valid occurrences are produced by R1 in real runs; for guard tests a
       relabelled invalid ghost suffices except where validity matters *)
    Some (Ssmfp.Message.fresh_valid ~src:last info)
  else Some (Ssmfp.Message.fresh_invalid ~at ~last ~color info)

let with_outbox states p entries =
  states.(p) <-
    { (states.(p)) with Ssmfp.State.outbox = entries; request = true }

(* ------------------------- R1 ------------------------- *)

let test_r1_enabled () =
  let states = Test_util.config path3 [] in
  with_outbox states 0 [ (2, "hello") ];
  Alcotest.(check bool) "R1 offered" true (has R1 2 (enabled path3 states 0));
  Alcotest.(check bool) "not for other dest" false
    (has R1 1 (enabled path3 states 0))

let test_r1_needs_request () =
  let states = Test_util.config path3 [] in
  states.(0) <- { (states.(0)) with Ssmfp.State.outbox = [ (2, "m") ] };
  (* outbox full but request down: the higher layer has not raised it *)
  Alcotest.(check bool) "R1 blocked" false (has R1 2 (enabled path3 states 0))

let test_r1_needs_empty_buf_r () =
  let states = Test_util.config path3 [] in
  with_outbox states 0 [ (2, "m") ];
  Test_util.set_buf states 0 2 `R (msg ~last:0 ~color:1 0);
  Alcotest.(check bool) "R1 blocked by occupied bufR" false
    (has R1 2 (enabled path3 states 0))

let test_r1_yields_to_feeder () =
  (* neighbor 1's emission buffer targets 0's reception buffer for dest 0;
     with the neighbor ahead of p in the queue, choice <> p: R1 blocked,
     R3 offered instead. *)
  let g = path3 in
  let states = Test_util.config g [] in
  with_outbox states 0 [ (0, "m") ];
  ignore states;
  (* actually use dest 0 at processor... simpler: dest 2's feeder at 1 *)
  let states = Test_util.config g [] in
  with_outbox states 1 [ (2, "m") ];
  Test_util.set_buf states 0 2 `E (msg ~last:0 ~color:1 0);
  (* queue of p1 for dest 2 is [1; 0; 2]; put 0 (the feeder) first *)
  let sl = Ssmfp.State.slot states.(1) 2 in
  states.(1) <-
    Ssmfp.State.with_slot states.(1) 2 { sl with Ssmfp.State.queue = [ 0; 1; 2 ] };
  let acts = enabled g states 1 in
  Alcotest.(check bool) "R1 blocked by feeder at queue head" false (has R1 2 acts);
  Alcotest.(check bool) "R3 offered" true (has R3 2 acts)

let test_r1_apply () =
  Ssmfp.Message.reset_ghost_counter ();
  let states = Test_util.config path3 [] in
  with_outbox states 0 [ (2, "hello"); (1, "later") ];
  let st', events = apply_rule path3 states 0 R1 2 in
  (match (Ssmfp.State.slot st' 2).Ssmfp.State.buf_r with
  | Some m ->
      Alcotest.(check string) "info" "hello" m.Ssmfp.Message.info;
      Alcotest.(check int) "last = src" 0 m.Ssmfp.Message.last;
      Alcotest.(check int) "color 0" 0 m.Ssmfp.Message.color;
      Alcotest.(check bool) "valid ghost" true (Ssmfp.Message.is_valid m)
  | None -> Alcotest.fail "bufR empty");
  Alcotest.(check bool) "request lowered" false st'.Ssmfp.State.request;
  Alcotest.(check int) "outbox popped" 1 (List.length st'.Ssmfp.State.outbox);
  (match events with
  | [ Generated (_, 2) ] -> ()
  | _ -> Alcotest.fail "expected Generated event")

(* ------------------------- R2 ------------------------- *)

let test_r2_enabled_self_last () =
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 1 2 `R (msg ~last:1 ~color:0 1);
  Alcotest.(check bool) "R2 offered (q = p)" true
    (has R2 2 (enabled path3 states 1))

let test_r2_blocked_by_upstream_copy () =
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 1 2 `R (msg ~last:0 ~color:3 1);
  Test_util.set_buf states 0 2 `E (msg ~last:0 ~color:3 0);
  (* upstream bufE_0 still holds (m, ., 3): internal forwarding must wait *)
  Alcotest.(check bool) "R2 blocked" false (has R2 2 (enabled path3 states 1));
  (* different color upstream does not block *)
  Test_util.set_buf states 0 2 `E (msg ~last:0 ~color:1 0);
  Alcotest.(check bool) "R2 offered" true (has R2 2 (enabled path3 states 1))

let test_r2_needs_empty_buf_e () =
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 1 2 `R (msg ~last:1 ~color:0 1);
  Test_util.set_buf states 1 2 `E (msg ~info:"other" ~last:1 ~color:1 1);
  Alcotest.(check bool) "R2 blocked by full bufE" false
    (has R2 2 (enabled path3 states 1))

let test_r2_apply_recolors () =
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 1 2 `R (msg ~last:1 ~color:0 1);
  (* neighbor 0 and 2 reception buffers for dest 2 hold colors 0 and 1 *)
  Test_util.set_buf states 0 2 `R (msg ~info:"a" ~last:0 ~color:0 0);
  Test_util.set_buf states 2 2 `R (msg ~info:"b" ~last:2 ~color:1 2);
  let st', events = apply_rule path3 states 1 R2 2 in
  (match (Ssmfp.State.slot st' 2).Ssmfp.State.buf_e with
  | Some m ->
      Alcotest.(check int) "fresh color avoids 0 and 1" 2 m.Ssmfp.Message.color;
      Alcotest.(check int) "last = p" 1 m.Ssmfp.Message.last
  | None -> Alcotest.fail "bufE empty");
  Alcotest.(check bool) "bufR emptied" true
    ((Ssmfp.State.slot st' 2).Ssmfp.State.buf_r = None);
  (match events with
  | [ Internal_forward (_, 2) ] -> ()
  | _ -> Alcotest.fail "expected Internal_forward")

(* ------------------------- R3 ------------------------- *)

let feeder_states () =
  let states = Test_util.config path3 [] in
  (* bufE_0(2) holds a message routed 0 -> 1 -> 2 *)
  Test_util.set_buf states 0 2 `E (msg ~last:0 ~color:1 0);
  states

let test_r3_enabled () =
  let states = feeder_states () in
  Alcotest.(check bool) "R3 offered at 1" true (has R3 2 (enabled path3 states 1));
  Alcotest.(check bool) "not at 2 (not next hop)" false
    (has R3 2 (enabled path3 states 2))

let test_r3_needs_empty_buf_r () =
  let states = feeder_states () in
  Test_util.set_buf states 1 2 `R (msg ~info:"other" ~last:1 ~color:0 1);
  Alcotest.(check bool) "R3 blocked" false (has R3 2 (enabled path3 states 1))

let test_r3_apply () =
  let states = feeder_states () in
  let st', events = apply_rule path3 states 1 R3 2 in
  (match (Ssmfp.State.slot st' 2).Ssmfp.State.buf_r with
  | Some m ->
      Alcotest.(check int) "last = feeder" 0 m.Ssmfp.Message.last;
      Alcotest.(check int) "color kept" 1 m.Ssmfp.Message.color
  | None -> Alcotest.fail "bufR empty");
  (* the served feeder rotates to the back of the queue *)
  Alcotest.(check (list int)) "queue rotated" [ 1; 2; 0 ]
    (Ssmfp.State.slot st' 2).Ssmfp.State.queue;
  (match events with
  | [ Copied (_, 0, 2) ] -> ()
  | _ -> Alcotest.fail "expected Copied")

(* ------------------------- R4 ------------------------- *)

let test_r4_enabled_and_apply () =
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 0 2 `E (msg ~last:0 ~color:1 0);
  Test_util.set_buf states 1 2 `R (msg ~last:0 ~color:1 1);
  Alcotest.(check bool) "R4 offered" true (has R4 2 (enabled path3 states 0));
  let st', events = apply_rule path3 states 0 R4 2 in
  Alcotest.(check bool) "bufE erased" true
    ((Ssmfp.State.slot st' 2).Ssmfp.State.buf_e = None);
  match events with
  | [ Erased_after_forward (_, 2) ] -> ()
  | _ -> Alcotest.fail "expected Erased_after_forward"

let test_r4_blocked_without_copy () =
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 0 2 `E (msg ~last:0 ~color:1 0);
  Alcotest.(check bool) "no downstream copy" false
    (has R4 2 (enabled path3 states 0));
  (* wrong color downstream: still blocked (color is part of the match) *)
  Test_util.set_buf states 1 2 `R (msg ~last:0 ~color:2 1);
  Alcotest.(check bool) "wrong color" false (has R4 2 (enabled path3 states 0))

let test_r4_blocked_by_stray () =
  (* processor 1 on the path: next hop 2 holds the copy, but neighbor 0
     also holds an identical stray -> R4 must wait for R5 *)
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 1 2 `E (msg ~last:1 ~color:1 1);
  Test_util.set_buf states 2 2 `R (msg ~last:1 ~color:1 2);
  Test_util.set_buf states 0 2 `R (msg ~last:1 ~color:1 0);
  Alcotest.(check bool) "R4 blocked by stray" false
    (has R4 2 (enabled path3 states 1));
  (* the stray's R5 is offered at processor 0 *)
  Alcotest.(check bool) "R5 offered at stray" true
    (has R5 2 (enabled path3 states 0))

let test_r4_not_at_destination () =
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 2 2 `E (msg ~last:2 ~color:1 2);
  Alcotest.(check bool) "p = d: consumption, not R4" false
    (has R4 2 (enabled path3 states 2));
  Alcotest.(check bool) "R6 offered" true (has R6 2 (enabled path3 states 2))

(* ------------------------- R5 ------------------------- *)

let test_r5_enabled () =
  (* bufR_0(2) holds (m, 1, 1); bufE_1(2) holds (m, ., 1); nextHop_1(2)=2<>0 *)
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 0 2 `R (msg ~last:1 ~color:1 0);
  Test_util.set_buf states 1 2 `E (msg ~last:1 ~color:1 1);
  Alcotest.(check bool) "R5 offered" true (has R5 2 (enabled path3 states 0));
  let st', events = apply_rule path3 states 0 R5 2 in
  Alcotest.(check bool) "bufR erased" true
    ((Ssmfp.State.slot st' 2).Ssmfp.State.buf_r = None);
  match events with
  | [ Erased_duplicate (_, 2) ] -> ()
  | _ -> Alcotest.fail "expected Erased_duplicate"

let test_r5_blocked_when_routed_here () =
  (* same as above but at the true next hop: R5 must NOT erase the copy
     the handshake needs *)
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 1 2 `R (msg ~last:0 ~color:1 1);
  Test_util.set_buf states 0 2 `E (msg ~last:0 ~color:1 0);
  (* nextHop_0(2) = 1 = p: blocked *)
  Alcotest.(check bool) "R5 blocked at next hop" false
    (has R5 2 (enabled path3 states 1))

let test_r5_blocked_on_self_generated () =
  (* the model-checker regression: a freshly generated message (last = p)
     must never be erased by R5, even if an identical invalid message
     occupies bufE_p *)
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 0 2 `R (msg ~info:"v" ~last:0 ~color:0 0);
  Test_util.set_buf states 0 2 `E (msg ~info:"v" ~last:0 ~color:0 0);
  Alcotest.(check bool) "R5 blocked (q = p)" false
    (has R5 2 (enabled path3 states 0))

let test_r5_needs_matching_color () =
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 0 2 `R (msg ~last:1 ~color:1 0);
  Test_util.set_buf states 1 2 `E (msg ~last:1 ~color:2 1);
  Alcotest.(check bool) "different color: not a duplicate" false
    (has R5 2 (enabled path3 states 0))

(* ------------------------- R6 ------------------------- *)

let test_r6 () =
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 2 2 `E (msg ~info:"m" ~last:1 ~color:0 2);
  Alcotest.(check bool) "R6 offered" true (has R6 2 (enabled path3 states 2));
  Alcotest.(check bool) "only at destination" false
    (has R6 2 (enabled path3 states 1));
  let st', events = apply_rule path3 states 2 R6 2 in
  Alcotest.(check bool) "bufE emptied" true
    ((Ssmfp.State.slot st' 2).Ssmfp.State.buf_e = None);
  match events with
  | [ Delivered m ] -> Alcotest.(check string) "payload" "m" m.Ssmfp.Message.info
  | _ -> Alcotest.fail "expected Delivered"

(* ---------------- routing priority and rotation ---------------- *)

let test_routing_priority () =
  let states = Test_util.config path3 [] in
  (* give p1 both a routing fault and a deliverable message *)
  let routing = Array.copy states.(1).Ssmfp.State.routing in
  routing.(0) <- { Routing.Selfstab.dist = 9; via = 0 };
  states.(1) <- Ssmfp.State.with_routing states.(1) routing;
  Test_util.set_buf states 1 2 `R (msg ~last:1 ~color:0 1);
  let acts = enabled ~run_routing:true path3 states 1 in
  Alcotest.(check bool) "only routing actions offered" true
    (List.for_all (fun a -> a.Ssmfp.Protocol.rule = Route) acts);
  (* with A frozen, the SSMFP action shows *)
  let acts' = enabled ~run_routing:false path3 states 1 in
  Alcotest.(check bool) "R2 offered when A frozen" true (has R2 2 acts')

let test_rr_rotation () =
  (* two destinations ready at p1; after executing for dest d the offer
     order starts at d+1 *)
  let states = Test_util.config path3 [] in
  Test_util.set_buf states 1 0 `R (msg ~last:1 ~color:0 1);
  Test_util.set_buf states 1 2 `R (msg ~last:1 ~color:0 1);
  let acts = enabled path3 states 1 in
  (* rr = 0: destination 0 first *)
  Alcotest.(check int) "dest 0 first" 0 (List.hd acts).Ssmfp.Protocol.dest;
  let st', _ = apply_rule path3 states 1 R2 0 in
  Alcotest.(check int) "cursor moved past 0" 1 st'.Ssmfp.State.rr;
  states.(1) <- st';
  let acts' = enabled path3 states 1 in
  Alcotest.(check int) "dest 2 first now" 2 (List.hd acts').Ssmfp.Protocol.dest

let test_choice_probe () =
  let states = Test_util.config path3 [] in
  let net = Test_util.net_of path3 states in
  Alcotest.(check (option int)) "no candidate" None
    (Ssmfp.Protocol.choice path3 net ~p:1 ~d:2);
  (* a feeder appears *)
  Test_util.set_buf states 0 2 `E (msg ~last:0 ~color:1 0);
  let net = Test_util.net_of path3 states in
  Alcotest.(check (option int)) "feeder chosen" (Some 0)
    (Ssmfp.Protocol.choice path3 net ~p:1 ~d:2);
  Alcotest.(check bool) "can_feed true" true
    (Ssmfp.Protocol.can_feed path3 net ~p:1 ~d:2 0);
  Alcotest.(check bool) "p2 cannot be fed by 0 (not next hop)" false
    (Ssmfp.Protocol.can_feed path3 net ~p:2 ~d:2 0)

let test_choice_self_requires_matching_dest () =
  (* the documented deviation: p is a candidate for d's queue only when
     its waiting message is for d *)
  let states = Test_util.config path3 [] in
  with_outbox states 1 [ (0, "m") ];
  let net = Test_util.net_of path3 states in
  Alcotest.(check bool) "candidate for its own dest" true
    (Ssmfp.Protocol.can_feed path3 net ~p:1 ~d:0 1);
  Alcotest.(check bool) "not a candidate elsewhere" false
    (Ssmfp.Protocol.can_feed path3 net ~p:1 ~d:2 1)

let test_rule_names () =
  Alcotest.(check string) "RA" "RA" (rule_name Route);
  List.iter2
    (fun r s -> Alcotest.(check string) s s (rule_name r))
    [ R1; R2; R3; R4; R5; R6 ]
    [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6" ]

let test_traffic_probes () =
  let states = Test_util.config path3 [] in
  let net = Test_util.net_of path3 states in
  Alcotest.(check int) "no messages" 0 (message_count net);
  Alcotest.(check bool) "no traffic" false (has_traffic net);
  Test_util.set_buf states 1 2 `R (msg ~last:1 ~color:0 1);
  let net = Test_util.net_of path3 states in
  Alcotest.(check int) "one message" 1 (message_count net);
  Alcotest.(check bool) "traffic" true (has_traffic net)

(* ---------------- first_enabled against enabled_rules ---------------- *)

let variants =
  [
    faithful;
    { faithful with use_colors = false };
    { faithful with use_r5 = false };
    { faithful with rotate_queue = false };
    { faithful with literal_r5 = true };
  ]

let prop_graphs =
  [
    Topology.Builders.ring 6;
    Topology.Builders.path 5;
    Topology.Builders.torus ~rows:3 ~cols:3;
    Topology.Builders.star 5;
    Topology.Builders.paper_figure2;
  ]

(* Random starts (Fault.random_spec or adversarial), run for 0-40 steps of
   the faithful protocol so that quiet and mid-run configurations show up
   too; then at every processor, for every variant, routing on and off and
   both ties, first_enabled is the head of enabled_rules. *)
let prop_first_enabled_is_head =
  QCheck.Test.make ~name:"first_enabled = head of enabled_rules" ~count:150
    QCheck.(triple (int_bound 4) (int_bound 40) (int_bound 100_000))
    (fun (gi, steps, seed) ->
      let g = List.nth prop_graphs gi in
      let n = Topology.Graph.n g in
      let rng = Prng.Splitmix.of_int seed in
      let spec =
        if Prng.Splitmix.bool rng then Harness.Fault.adversarial
        else Harness.Fault.random_spec rng
      in
      let workload = Harness.Workload.uniform_random rng ~n ~per_processor:2 in
      let net =
        (Harness.Runner.run
           (Harness.Runner.config ~spec ~seed ~max_steps:steps g workload))
          .Harness.Runner.final_net
      in
      List.for_all
        (fun (variant, run_routing, tie) ->
          List.for_all
            (fun p ->
              first_enabled g ~variant ~run_routing ~tie net ~p
              = List.nth_opt (enabled_rules g ~variant ~run_routing ~tie net ~p) 0)
            (Topology.Graph.vertices g))
        (List.concat_map
           (fun variant ->
             List.concat_map
               (fun run_routing ->
                 List.map
                   (fun tie -> (variant, run_routing, tie))
                   Routing.Selfstab.[ Smallest_id; Largest_id ])
               [ true; false ])
           variants))

(* ---------------- the guard kernel against the literal guards ---------------- *)

(* The guards as they stood before [Protocol.flags]: one function per
   rule, each re-reading the slot and testing who p may read through
   [Topology.Graph.is_edge], and choice_p(d) computed literally as
   [Choice.select] over the normalized queue. The kernel must answer
   exactly as these do. *)
module Literal = struct
  open Ssmfp

  let read (net : State.t Sim.Engine.net) q = net.states.(q)
  let routing_of net q = (read net q).State.routing
  let slot_of net q d = State.slot (read net q) d
  let readable g ~p q = q = p || Topology.Graph.is_edge g p q

  let buf_r_seen g net ~p q d =
    if readable g ~p q then (slot_of net q d).State.buf_r else None

  let buf_e_seen g net ~p q d =
    if readable g ~p q then (slot_of net q d).State.buf_e else None

  let next_hop net q ~d = Routing.Selfstab.next_hop (routing_of net q) ~d

  let requests sp ~d =
    sp.State.request
    && match sp.State.outbox with (d', _) :: _ -> d' = d | [] -> false

  let can_feed g net ~p ~d s =
    if s = p then requests (read net p) ~d
    else
      match buf_e_seen g net ~p s d with
      | Some _ -> next_hop net s ~d = p
      | None -> false

  let chosen g net ~p ~d =
    match
      Choice.select ~candidate:(can_feed g net ~p ~d)
        (Choice.normalize g ~p (slot_of net p d).State.queue)
    with
    | Some s -> s
    | None -> -1

  let guard_r1 g net ~p ~d =
    let sp = read net p in
    requests sp ~d
    && (State.slot sp d).State.buf_r = None
    && chosen g net ~p ~d = p

  let guard_r2 g net ~p ~d =
    let sl = slot_of net p d in
    match (sl.State.buf_e, sl.State.buf_r) with
    | None, Some m ->
        let q = m.Message.last in
        q = p
        ||
        (match buf_e_seen g net ~p q d with
        | Some m' ->
            not (Message.matches_info_color m' ~info:m.Message.info ~color:m.Message.color)
        | None -> true)
    | _ -> false

  let guard_r3 g net ~p ~d =
    (slot_of net p d).State.buf_r = None
    &&
    let s = chosen g net ~p ~d in
    s >= 0 && s <> p
    && match buf_e_seen g net ~p s d with Some _ -> true | None -> false

  let guard_r4 g net ~p ~d =
    p <> d
    &&
    match (slot_of net p d).State.buf_e with
    | None -> false
    | Some m ->
        let h = next_hop net p ~d in
        let is_copy = function
          | Some (m' : Message.t) ->
              m'.info = m.Message.info && m'.last = p && m'.color = m.Message.color
          | None -> false
        in
        readable g ~p h
        && is_copy (buf_r_seen g net ~p h d)
        && List.for_all
             (fun r -> r = h || not (is_copy (buf_r_seen g net ~p r d)))
             (Topology.Graph.neighbors g p)

  let guard_r5 ~literal g net ~p ~d =
    match (slot_of net p d).State.buf_r with
    | None -> false
    | Some m when (not literal) && m.Message.last = p -> false
    | Some m -> (
        let q = m.Message.last in
        match buf_e_seen g net ~p q d with
        | Some m' ->
            Message.matches_info_color m' ~info:m.Message.info ~color:m.Message.color
            && next_hop net q ~d <> p
        | None -> false)

  let guard_r6 net ~p ~d = d = p && (slot_of net p d).State.buf_e <> None

  type scan = {
    g : Topology.Graph.t;
    variant : variant;
    tie : Routing.Selfstab.tie;
    net : State.t Sim.Engine.net;
    read : int -> Routing.Selfstab.state;
    p : int;
  }

  let holds c ~d = function
    | Route ->
        Routing.Selfstab.enabled ~tie:c.tie c.g ~read:c.read ~p:c.p ~d
    | R6 -> guard_r6 c.net ~p:c.p ~d
    | R4 -> guard_r4 c.g c.net ~p:c.p ~d
    | R5 ->
        c.variant.use_r5
        && guard_r5 ~literal:c.variant.literal_r5 c.g c.net ~p:c.p ~d
    | R2 -> guard_r2 c.g c.net ~p:c.p ~d
    | R3 -> guard_r3 c.g c.net ~p:c.p ~d
    | R1 -> guard_r1 c.g c.net ~p:c.p ~d

  let ssmfp_rules = [ R6; R4; R5; R2; R3; R1 ]

  let scan g ~variant ~tie net ~p =
    { g; variant; tie; net; read = routing_of net; p }

  (* Only A's rule and R5 read [tie] and [variant]: these bits of the
     rules that read neither. *)
  let fixed_bits c ~d =
    List.fold_left
      (fun acc rule -> if holds c ~d rule then acc lor flag rule else acc)
      0 [ R6; R4; R2; R3; R1 ]

  (* Destination d's byte in the kernel's layout, given [fixed_bits]. *)
  let byte c ~run_routing ~fixed ~d =
    fixed
    lor (if holds c ~d R5 then flag R5 else 0)
    lor if run_routing && holds c ~d Route then flag Route else 0

  (* The offer order, rule by rule: A's actions from rr if any, else
     SSMFP's, destination by destination from rr. *)
  let offered c ~run_routing =
    let n = Topology.Graph.n c.g in
    let rr = ((read c.net c.p).State.rr mod n + n) mod n in
    let walk rules =
      List.concat_map
        (fun i ->
          let d = (rr + i) mod n in
          List.filter_map
            (fun rule -> if holds c ~d rule then Some { rule; dest = d } else None)
            rules)
        (List.init n Fun.id)
    in
    match if run_routing then walk [ Route ] else [] with
    | [] -> walk ssmfp_rules
    | routing -> routing
end

(* Every variant x tie x routing combination: 20 configurations. *)
let kernel_configs =
  List.concat_map
    (fun variant ->
      List.concat_map
        (fun tie -> List.map (fun run_routing -> (variant, tie, run_routing)) [ true; false ])
        Routing.Selfstab.[ Smallest_id; Largest_id ])
    [
      faithful;
      { faithful with use_colors = false };
      { faithful with use_r5 = false };
      { faithful with rotate_queue = false };
      { faithful with literal_r5 = true };
    ]

let config_name ({ use_colors; use_r5; rotate_queue; literal_r5 }, tie, run_routing) =
  Printf.sprintf "colors=%b r5=%b rotate=%b literal_r5=%b tie=%s routing=%b"
    use_colors use_r5 rotate_queue literal_r5
    (match tie with Routing.Selfstab.Smallest_id -> "smallest" | Largest_id -> "largest")
    run_routing

(* The kernel's byte against the literal guards' at every (p, d), under
   every configuration; with [~order], [enabled_rules] against the
   literal offer order at every p too. *)
let check_kernel ?(order = false) ~label g states =
  let net = Test_util.net_of g states in
  let n = Topology.Graph.n g in
  for p = 0 to n - 1 do
    let fixed =
      let c =
        Literal.scan g ~variant:faithful ~tie:Routing.Selfstab.Smallest_id net ~p
      in
      Array.init n (fun d -> Literal.fixed_bits c ~d)
    in
    List.iter
      (fun ((variant, tie, run_routing) as config) ->
        let c = Literal.scan g ~variant ~tie net ~p in
        for d = 0 to n - 1 do
          let literal = Literal.byte c ~run_routing ~fixed:fixed.(d) ~d in
          let kernel = flags g ~variant ~run_routing ~tie net ~p ~d in
          if kernel <> literal then
            Alcotest.failf "%s [%s] p%d d%d: kernel %#x, literal guards %#x"
              label (config_name config) p d kernel literal
        done;
        if
          order
          && enabled_rules g ~variant ~run_routing ~tie net ~p
             <> Literal.offered c ~run_routing
        then
          Alcotest.failf "%s [%s] p%d: offer order differs" label
            (config_name config) p)
      kernel_configs
  done

let test_kernel_two_chain () =
  let sc = Mc.Explore.two_chain in
  let inits = Mc.Explore.enumerate_initials sc in
  Alcotest.(check int) "every initial configuration" 104_976 (List.length inits);
  List.iteri
    (fun i states ->
      check_kernel ~label:(Printf.sprintf "2-chain #%d" i) sc.graph states)
    inits

let fig2_scenario =
  { Mc.Explore.graph = Topology.Builders.paper_figure2; dest = 1; src = 2;
    payload_pool = [ "v"; "x" ] }

(* Sampled mc starts, with correct and with random routing tables. *)
let test_kernel_mc_samples () =
  List.iter
    (fun (name, sc, count) ->
      let rng = Prng.Splitmix.of_int 61 in
      let check what inits =
        List.iteri
          (fun i states ->
            check_kernel ~order:true
              ~label:(Printf.sprintf "%s %s #%d" name what i)
              sc.Mc.Explore.graph states)
          inits
      in
      check "sampled" (Mc.Explore.sample_initials rng ~count sc);
      check "corrupted" (Mc.Explore.sample_initials_corrupted rng ~count sc))
    [ ("3-chain", Mc.Explore.three_chain, 1500); ("fig2", fig2_scenario, 300) ]

(* A state no injector builds: every [last], [via] and queue entry may
   name a non-neighbor, p itself or no processor at all (-1, n, n+1);
   infos come from two values and colors may leave 0..Δ, so that
   copies, duplicates and feeders meet often. *)
let wild_state rng g p =
  let open Ssmfp in
  let n = Topology.Graph.n g in
  let delta = Topology.Graph.max_degree g in
  let closed = Array.of_list (p :: Topology.Graph.neighbors g p) in
  let anyone () = Prng.Splitmix.int rng (n + 3) - 1 in
  let near () =
    if Prng.Splitmix.int rng 4 = 0 then anyone ()
    else Prng.Splitmix.choose_array rng closed
  in
  let msg () =
    if Prng.Splitmix.bool rng then None
    else
      Some
        (Message.fresh_invalid ~at:p ~last:(near ())
           ~color:(Prng.Splitmix.int rng (delta + 2))
           (if Prng.Splitmix.bool rng then "a" else "b"))
  in
  let slot _ =
    {
      State.buf_r = msg ();
      buf_e = msg ();
      queue = List.init (Prng.Splitmix.int rng (Array.length closed + 3)) (fun _ -> near ());
    }
  in
  {
    State.routing =
      Array.init n (fun _ ->
          { Routing.Selfstab.dist = Prng.Splitmix.int rng (n + 2); via = near () });
    slots = Array.init n slot;
    rr = anyone ();
    request = Prng.Splitmix.bool rng;
    outbox =
      List.init (Prng.Splitmix.int rng 3) (fun _ -> (anyone (), "o"));
  }

(* Adversarial, random and wild starts on ring, torus and fig2, each
   also run 1-30 steps of the faithful protocol so that mid-run
   configurations show up. *)
let test_kernel_faulty_starts () =
  List.iter
    (fun (name, g) ->
      let n = Topology.Graph.n g in
      for seed = 0 to 11 do
        let rng = Prng.Splitmix.of_int (seed + 101) in
        let workload = Harness.Workload.uniform_random rng ~n ~per_processor:2 in
        let states =
          match seed mod 3 with
          | 0 ->
              Array.init n (fun p ->
                  Harness.Fault.initial_states ~rng Harness.Fault.adversarial g
                    ~workload p)
          | 1 ->
              let spec = Harness.Fault.random_spec rng in
              Array.init n (fun p ->
                  Harness.Fault.initial_states ~rng spec g ~workload p)
          | _ -> Array.init n (wild_state rng g)
        in
        let label what = Printf.sprintf "%s seed %d %s" name seed what in
        check_kernel ~order:true ~label:(label "start") g states;
        let t =
          Sim.Engine.make ~graph:g ~protocol:(make g) (fun p -> states.(p))
        in
        let daemon = Sim.Daemon.distributed_random (Prng.Splitmix.of_int seed) in
        for step = 1 to 1 + (seed * 7 mod 30) do
          Ssmfp.Protocol.raise_requests t;
          ignore (Sim.Engine.step t daemon);
          if step mod 5 = 0 then
            check_kernel ~order:true
              ~label:(label (Printf.sprintf "step %d" step))
              g
              (Sim.Engine.net t).Sim.Engine.states
        done
      done)
    [
      ("ring7", Topology.Builders.ring 7);
      ("torus3x4", Topology.Builders.torus ~rows:3 ~cols:4);
      ("fig2", Topology.Builders.paper_figure2);
    ]

let () =
  Alcotest.run "rules"
    [
      ( "R1",
        [
          Alcotest.test_case "enabled" `Quick test_r1_enabled;
          Alcotest.test_case "needs request" `Quick test_r1_needs_request;
          Alcotest.test_case "needs empty bufR" `Quick test_r1_needs_empty_buf_r;
          Alcotest.test_case "yields to feeder" `Quick test_r1_yields_to_feeder;
          Alcotest.test_case "apply" `Quick test_r1_apply;
        ] );
      ( "R2",
        [
          Alcotest.test_case "enabled (q=p)" `Quick test_r2_enabled_self_last;
          Alcotest.test_case "blocked by upstream copy" `Quick
            test_r2_blocked_by_upstream_copy;
          Alcotest.test_case "needs empty bufE" `Quick test_r2_needs_empty_buf_e;
          Alcotest.test_case "apply recolors" `Quick test_r2_apply_recolors;
        ] );
      ( "R3",
        [
          Alcotest.test_case "enabled" `Quick test_r3_enabled;
          Alcotest.test_case "needs empty bufR" `Quick test_r3_needs_empty_buf_r;
          Alcotest.test_case "apply" `Quick test_r3_apply;
        ] );
      ( "R4",
        [
          Alcotest.test_case "enabled & apply" `Quick test_r4_enabled_and_apply;
          Alcotest.test_case "blocked without copy" `Quick
            test_r4_blocked_without_copy;
          Alcotest.test_case "blocked by stray" `Quick test_r4_blocked_by_stray;
          Alcotest.test_case "not at destination" `Quick test_r4_not_at_destination;
        ] );
      ( "R5",
        [
          Alcotest.test_case "enabled & apply" `Quick test_r5_enabled;
          Alcotest.test_case "blocked at next hop" `Quick
            test_r5_blocked_when_routed_here;
          Alcotest.test_case "blocked on self-generated" `Quick
            test_r5_blocked_on_self_generated;
          Alcotest.test_case "needs matching color" `Quick
            test_r5_needs_matching_color;
        ] );
      ("R6", [ Alcotest.test_case "deliver" `Quick test_r6 ]);
      ( "composition",
        [
          Alcotest.test_case "routing priority" `Quick test_routing_priority;
          Alcotest.test_case "choice probe" `Quick test_choice_probe;
          Alcotest.test_case "choice self-candidate dest" `Quick
            test_choice_self_requires_matching_dest;
          Alcotest.test_case "destination rotation" `Quick test_rr_rotation;
          Alcotest.test_case "rule names" `Quick test_rule_names;
          Alcotest.test_case "traffic probes" `Quick test_traffic_probes;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_first_enabled_is_head ] );
      ( "kernel",
        [
          Alcotest.test_case "every 2-chain initial configuration" `Quick
            test_kernel_two_chain;
          Alcotest.test_case "sampled 3-chain and fig2 starts" `Quick
            test_kernel_mc_samples;
          Alcotest.test_case "adversarial, random and wild starts" `Quick
            test_kernel_faulty_starts;
        ] );
    ]
