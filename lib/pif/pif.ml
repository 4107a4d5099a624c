type phase = B | F | C

let phase_name = function B -> "B" | F -> "F" | C -> "C"

type state = { phase : phase; request : bool }

type action = Start | Forward | Feedback | Clean | Complete

type event = Started | Received | Completed

type tree = { graph : Topology.Graph.t; root : int; parent : int array }

let tree_of graph ~root =
  let n = Topology.Graph.n graph in
  if Topology.Graph.edge_count graph <> n - 1 || not (Topology.Graph.is_connected graph)
  then invalid_arg "Pif.tree_of: not a tree";
  if not (Topology.Graph.mem_vertex graph root) then
    invalid_arg "Pif.tree_of: bad root";
  let parent = Array.make n root in
  let dist = Topology.Metrics.bfs_distances graph root in
  Topology.Graph.iter_vertices
    (fun p ->
      if p <> root then
        parent.(p) <-
          List.find (fun q -> dist.(q) = dist.(p) - 1) (Topology.Graph.neighbors graph p))
    graph;
  { graph; root; parent }

let children t p =
  List.filter (fun q -> t.parent.(q) = p) (Topology.Graph.neighbors t.graph p)

let protocol t =
  let phase_of (net : state Sim.Engine.net) q = net.states.(q).phase in
  let children_all (net : state Sim.Engine.net) p ph =
    List.for_all (fun q -> phase_of net q = ph) (children t p)
  in
  let enabled net p =
    let s = net.Sim.Engine.states.(p) in
    if p = t.root then
      (* completion before start: a lingering wave finishes first *)
      if s.phase = B && children_all net p F then [ Complete ]
      else if s.phase = C && s.request && children_all net p C then [ Start ]
      else if s.phase = F then [ Clean ] (* abnormal root F: flush *)
      else []
    else begin
      let par = phase_of net t.parent.(p) in
      match s.phase with
      | C when par = B && children_all net p C -> [ Forward ]
      | B when children_all net p F -> [ Feedback ]
      | F when par <> B -> [ Clean ]
      | B | F | C -> []
    end
  in
  let apply (net : state Sim.Engine.net) p a =
    let s = net.states.(p) in
    match a with
    | Start -> ({ phase = B; request = false }, [ Started; Received ])
    | Forward -> ({ s with phase = B }, [ Received ])
    | Feedback -> ({ s with phase = F }, [])
    | Clean -> ({ s with phase = C }, [])
    | Complete -> ({ s with phase = C }, [ Completed ])
  in
  {
    (* Guards read only the parent's and children's phases — tree edges
       are graph edges, so the closed-neighborhood contract holds. *)
    Sim.Engine.enabled;
    apply;
    rules = [| "start"; "forward"; "feedback"; "clean"; "complete" |];
    rule_of =
      (function
      | Start -> 0
      | Forward -> 1
      | Feedback -> 2
      | Clean -> 3
      | Complete -> 4);
  }

type wave_report = {
  waves_completed : int;
  coverage_ok : bool;
  rounds : int;
  steps : int;
}

let run_waves ?(initial = fun _ -> C) ?(max_steps = 200_000) t ~waves ~daemon =
  let n = Topology.Graph.n t.graph in
  let proto = protocol t in
  let engine =
    Sim.Engine.make ~graph:t.graph ~protocol:proto (fun p ->
        { phase = initial p; request = false })
  in
  let remaining = ref waves in
  let completed = ref 0 in
  let coverage_ok = ref true in
  (* Between a Started and its Completed, every processor must Receive. *)
  let in_wave = ref false in
  let received = Array.make n false in
  let before_step e =
    if !remaining > 0 then begin
      let s = Sim.Engine.state e t.root in
      if not s.request then
        Sim.Engine.set_state e t.root { s with request = true }
    end
  in
  let on_events ~step:_ events =
    List.iter
      (fun (pid, ev) ->
        match ev with
        | Started ->
            decr remaining;
            in_wave := true;
            Array.fill received 0 n false
        | Received -> if !in_wave then received.(pid) <- true
        | Completed ->
            incr completed;
            if !in_wave && not (Array.for_all Fun.id received) then
              coverage_ok := false;
            in_wave := false)
      events
  in
  let stop e =
    let s = Sim.Engine.state e t.root in
    !remaining = 0 && (not !in_wave) && (not s.request) && s.phase = C
  in
  ignore (Sim.Engine.run ~max_steps ~stop ~before_step ~on_events engine daemon);
  let stats = Sim.Engine.stats engine in
  {
    waves_completed = !completed;
    coverage_ok = !coverage_ok;
    rounds = stats.Sim.Engine.rounds;
    steps = stats.Sim.Engine.steps;
  }

let all_phase_vectors n =
  let rec build k =
    if k = 0 then [ [] ]
    else
      let rest = build (k - 1) in
      List.concat_map (fun ph -> List.map (fun v -> ph :: v) rest) [ B; F; C ]
  in
  List.map Array.of_list (build n)
