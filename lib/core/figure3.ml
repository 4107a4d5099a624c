let graph = Topology.Builders.paper_figure2

let destination = 1 (* b *)

type delivery = { at_step : int; message : Message.t }

type snapshot = string

type result = {
  trace : snapshot Sim.Trace.t;
  deliveries : delivery list;
  colors_assigned : int list;
  final_net : State.t Sim.Engine.net;
  stats : Sim.Engine.stats;
}

let expected_deliveries = [ "m'"; "m"; "m'" ]

(* Vertices: a = 0, b = 1, c = 2, d = 3. *)
let a, b, c, _d = (0, 1, 2, 3)

let init p =
  let st = State.clean graph ~correct_routing:true p in
  let st =
    (* Corrupt destination b's entries so that nextHop_a(b) = c and
       nextHop_c(b) = a: the buffer cycle of configuration (0). *)
    if p = a then begin
      let routing = Array.copy st.State.routing in
      routing.(destination) <- { Routing.Selfstab.dist = 0; via = c };
      State.with_routing st routing
    end
    else if p = c then begin
      let routing = Array.copy st.State.routing in
      routing.(destination) <- { Routing.Selfstab.dist = 1; via = a };
      State.with_routing st routing
    end
    else st
  in
  if p = b then
    (* The invalid message m' (color 0) of configuration (0). *)
    let sl = State.slot st destination in
    State.with_slot st destination
      {
        sl with
        State.buf_r =
          Some (Message.fresh_invalid ~at:b ~last:a ~color:0 "m'");
      }
  else if p = c then
    (* c will emit m then a second message with useful information m'. *)
    let st = State.push_outbox st ~dest:destination "m" in
    let st = State.push_outbox st ~dest:destination "m'" in
    { st with State.request = true }
  else st

type engine = (State.t, Protocol.action, Protocol.event) Sim.Engine.t

let repair_tables (t : engine) =
  Topology.Graph.iter_vertices
    (fun p ->
      let st = Sim.Engine.state t p in
      Sim.Engine.set_state t p
        (State.with_routing st (Routing.Selfstab.init_correct graph p)))
    graph

let letter p = Topology.Dot.default_letter p

let snapshot (t : engine) : snapshot =
  let render p =
    let st = Sim.Engine.state t p in
    let sl = State.slot st destination in
    let buf = function
      | None -> "-"
      | Some m -> Message.to_string m
    in
    Printf.sprintf "%s:R=%s E=%s" (letter p) (buf sl.State.buf_r)
      (buf sl.State.buf_e)
  in
  String.concat " | " (List.map render (Topology.Graph.vertices graph))

(* The schedule: each entry is an optional external event (the higher
   layer raising a request, or A completing its repair) followed by the
   simultaneous protocol moves of the step. *)
let script : ((engine -> unit) option * (int * string) list) list =
  [
    (None, [ (c, "R1") ]); (* (1) c emits m, color 0 *)
    (None, [ (c, "R2") ]); (* (2) m to bufE_c, recolored 1 *)
    ( Some Protocol.raise_requests,
      [ (a, "R3"); (c, "R1") ] );
    (* (3) m copied to bufR_a; c emits its second message *)
    (None, [ (c, "R4") ]); (* towards (4): bufE_c erased *)
    (None, [ (c, "R2") ]); (* (4) m' to bufE_c, recolored 2 *)
    ( Some repair_tables,
      [ (a, "R2") ] );
    (* (5) tables repaired; simultaneously a moves m to bufE_a *)
    (None, [ (b, "R2") ]); (* (6..12): the invalid m' advances at b *)
    (None, [ (b, "R6") ]); (* invalid m' delivered *)
    (None, [ (b, "R3") ]); (* b pulls m from a *)
    (None, [ (a, "R4") ]);
    (None, [ (b, "R2") ]);
    (None, [ (b, "R6") ]); (* m delivered *)
    (None, [ (b, "R3") ]); (* b pulls the valid m' from c *)
    (None, [ (c, "R4") ]);
    (None, [ (b, "R2") ]);
    (None, [ (b, "R6") ]); (* the valid m' delivered *)
  ]

let run ?on_event () =
  Message.reset_ghost_counter ();
  let protocol = Protocol.make ~run_routing:false graph in
  let t = Sim.Engine.make ~graph ~protocol init in
  let trace = Sim.Trace.create () in
  Sim.Trace.record trace ~step:0 ~moves:[] ~after:(snapshot t);
  let deliveries = ref [] in
  let colors = ref [] in
  let label (act : Protocol.action) = Protocol.rule_name act.Protocol.rule in
  let run_step i (pre, moves) =
    Option.iter (fun f -> f t) pre;
    let daemon = Sim.Daemon.scripted_multi ~label [ moves ] in
    (match Sim.Engine.step t daemon with
    | None -> failwith "figure3: configuration unexpectedly terminal"
    | Some events ->
        let round = (Sim.Engine.stats t).Sim.Engine.rounds in
        List.iter
          (fun (pid, ev) ->
            (match on_event with
            | Some f -> f ~step:i ~round ~pid ev
            | None -> ());
            match ev with
            | Protocol.Delivered m ->
                deliveries := { at_step = i; message = m } :: !deliveries
            | Protocol.Internal_forward (m, _) when Message.is_valid m ->
                colors := m.Message.color :: !colors
            | _ -> ())
          events);
    let step_moves =
      List.map (fun (pid, rule) -> { Sim.Trace.pid; rule }) moves
    in
    Sim.Trace.record trace ~step:i ~moves:step_moves ~after:(snapshot t)
  in
  List.iteri (fun i entry -> run_step (i + 1) entry) script;
  {
    trace;
    deliveries = List.rev !deliveries;
    colors_assigned = List.rev !colors;
    final_net = Sim.Engine.net t;
    stats = Sim.Engine.stats t;
  }

let print fmt r =
  Format.fprintf fmt "Figure 3: network a-b, a-c, b-c, a-d; destination b@.";
  Format.fprintf fmt
    "initial corruption: nextHop_a(b)=c, nextHop_c(b)=a (cycle); invalid \
     m' in bufR_b@.";
  List.iter
    (fun (e : snapshot Sim.Trace.entry) ->
      let moves =
        if e.Sim.Trace.moves = [] then "initial"
        else
          String.concat ", "
            (List.map
               (fun (m : Sim.Trace.move) ->
                 Printf.sprintf "%s:%s" (letter m.Sim.Trace.pid)
                   m.Sim.Trace.rule)
               e.Sim.Trace.moves)
      in
      Format.fprintf fmt "(%2d) %-14s %s@." e.Sim.Trace.step moves
        e.Sim.Trace.after)
    (Sim.Trace.entries r.trace);
  Format.fprintf fmt "deliveries:";
  List.iter
    (fun d ->
      Format.fprintf fmt " step %d: %a;" d.at_step Message.pp d.message)
    r.deliveries;
  Format.fprintf fmt "@.colors assigned to valid messages: %s@."
    (String.concat ", " (List.map string_of_int r.colors_assigned))
