type scenario = {
  graph : Topology.Graph.t;
  dest : int;
  src : int;
  payload_pool : string list;
}

let two_chain =
  {
    graph = Topology.Builders.path 2;
    dest = 1;
    src = 0;
    payload_pool = [ "v"; "x" ];
  }

let three_chain =
  {
    graph = Topology.Builders.path 3;
    dest = 2;
    src = 0;
    payload_pool = [ "v" ];
  }

(* Canonical keys (ghost ids and the rr cursor abstracted away) live in
   Codec: the compact binary encoding is the visited-set key, and
   Codec.string_key renders the same abstraction as the tests'
   reference. *)

(* ------------------------------------------------------------------ *)
(* Initial configurations                                              *)

let message_choices scenario ~at =
  let g = scenario.graph in
  let delta = Topology.Graph.max_degree g in
  let lasts = at :: Topology.Graph.neighbors g at in
  let colors = List.init (delta + 1) (fun c -> c) in
  None
  :: List.concat_map
       (fun info ->
         List.concat_map
           (fun last ->
             List.map
               (fun color ->
                 Some (Ssmfp.Message.fresh_invalid ~at ~last ~color info))
               colors)
           lasts)
       scenario.payload_pool

let queue_choices g ~p =
  let members = p :: Topology.Graph.neighbors g p in
  (* All rotations plus the reverse order: covers every order for degree
     <= 2 processors (the exhaustive scenarios) and a spread for more. *)
  let rec rotations k l acc =
    if k = 0 then acc
    else
      match l with
      | x :: rest -> rotations (k - 1) (rest @ [ x ]) ((rest @ [ x ]) :: acc)
      | [] -> acc
  in
  List.sort_uniq compare
    (members :: List.rev members :: rotations (List.length members - 1) members [])

let proc_choices scenario p =
  let g = scenario.graph in
  let base = Ssmfp.State.clean g ~correct_routing:true p in
  let outbox = if p = scenario.src then [ (scenario.dest, "v") ] else [] in
  let msgs = message_choices scenario ~at:p in
  let queues = queue_choices g ~p in
  List.concat_map
    (fun buf_r ->
      List.concat_map
        (fun buf_e ->
          List.concat_map
            (fun queue ->
              List.map
                (fun request ->
                  let st =
                    Ssmfp.State.with_slot base scenario.dest
                      { Ssmfp.State.buf_r; buf_e; queue }
                  in
                  { st with Ssmfp.State.request; outbox })
                [ false; true ])
            queues)
        msgs)
    msgs

let enumerate_initials scenario =
  let per_proc =
    List.map (fun p -> proc_choices scenario p)
      (Topology.Graph.vertices scenario.graph)
  in
  List.fold_left
    (fun acc choices ->
      List.concat_map
        (fun partial -> List.map (fun st -> st :: partial) choices)
        acc)
    [ [] ] per_proc
  |> List.map (fun l -> Array.of_list (List.rev l))

let sample_initials rng ~count scenario =
  let per_proc =
    Array.of_list
      (List.map
         (fun p -> Array.of_list (proc_choices scenario p))
         (Topology.Graph.vertices scenario.graph))
  in
  List.init count (fun _ ->
      Array.map (fun choices -> Prng.Splitmix.choose_array rng choices) per_proc)

let sample_initials_corrupted rng ~count scenario =
  let g = scenario.graph in
  List.map
    (fun states ->
      Array.mapi
        (fun p st ->
          Ssmfp.State.with_routing st (Routing.Selfstab.init_random rng g p))
        states)
    (sample_initials rng ~count scenario)

(* ------------------------------------------------------------------ *)
(* Safety: the SSMFP instance of Par's explorer. The monitor is the
   valid-delivery count, clamped at 2 (past 2 nothing new can happen);
   a second delivery is the pruned violation.                          *)

type safety_report = {
  initial_count : int;
  explored : int;
  transitions : int;
  duplicate_delivery : bool;
  lost_valid : string option;
  deadlock : string option;
  visited : Store.stats;
}

let render_config states =
  String.concat " / "
    (Array.to_list
       (Array.mapi
          (fun p st -> Format.asprintf "p%d %a" p Ssmfp.State.pp st)
          states))

let has_traffic states =
  Array.exists
    (fun st ->
      st.Ssmfp.State.outbox <> [] || Ssmfp.State.occupied_buffers st <> [])
    states

let holds_valid (st : Ssmfp.State.t) =
  List.exists
    (fun (_, _, m) -> Ssmfp.Message.is_valid m)
    (Ssmfp.State.occupied_buffers st)

(* The valid message was generated (every outbox is drained), never
   delivered, and no buffer holds a valid occurrence any more. *)
let lost states delivered =
  delivered = 0
  && Array.for_all
       (fun (st : Ssmfp.State.t) -> st.Ssmfp.State.outbox = [])
       states
  && not (Array.exists holds_valid states)

(* ------------------------------------------------------------------ *)
(* Partial-order reduction: the ample-processor choice.

   The radius-1 locality metadata the engine already trusts (every SSMFP
   guard reads only the closed neighborhood, every action writes only
   its own processor) is an independence relation for free. A
   configuration where some processor p has only local-progress rules
   enabled (R2, R4, R5, R6 — no generation, no copy, no routing repair),
   holds no valid occurrence, has no request to raise, and has no
   conflicting neighbor, expands only p's actions: they commute with
   every other enabled action, are invisible to the SP predicates (they
   move or erase p's own invalid messages), and strictly decrease the
   lexicographic potential (total occupied buffers, total bufR
   occupancy) — R2 keeps the count and drains a bufR, R4/R5/R6 erase —
   so reduced expansions cannot cycle and nothing is ignored forever.
   The selection is a pure function of the configuration, so reduction
   never perturbs determinism. The classical C1 condition is
   approximated (a distance-2 cascade could in principle re-activate the
   neighborhood before p moves); the POR differential suite pins POR-on
   verdicts to POR-off on every small net we can afford, and [por]
   defaults to off in the API ([--no-por] escapes it in the CLI).      *)

(* Local-progress rules: move or erase an occurrence already at p. R1
   (generation), R3 (copy — creates an occurrence a neighbor can react
   to) and Route (repair) are excluded from ample sets. *)
let local_progress_only actions =
  List.for_all
    (fun (a : Ssmfp.Protocol.action) ->
      match a.Ssmfp.Protocol.rule with
      | Ssmfp.Protocol.R2 | Ssmfp.Protocol.R4 | Ssmfp.Protocol.R5
      | Ssmfp.Protocol.R6 ->
          true
      | Ssmfp.Protocol.R1 | Ssmfp.Protocol.R3 | Ssmfp.Protocol.Route ->
          false)
    actions

(* Field-granular independence. Every SSMFP guard and effect touches a
   small, statically known set of state fields (Protocol's guards read
   buffers by (processor, destination) slot, routing tables and request
   flags by processor); two actions at distinct processors commute and
   preserve each other's guards exactly when neither writes a field the
   other reads — writes never collide, since every action writes only
   its own processor. The field lists below transcribe Protocol's
   guard_* / apply_* readers conservatively (choice and color picking
   read every neighbor's bufE/routing resp. bufR for the slot). *)
type field =
  | FBufR of int * int  (* processor, destination slot *)
  | FBufE of int * int
  | FRouting of int
  | FQueue of int * int
  | FRequest of int
  | FOutbox of int

let bufr_last states p d =
  match (Ssmfp.State.slot states.(p) d).Ssmfp.State.buf_r with
  | Some m -> m.Ssmfp.Message.last
  | None -> p

(* choice_p(d) evaluates can_feed on queue members: it always reads the
   member's routing table, but its value depends on [bufE_s(d)] only
   when [next_hop_s(d) = p] — a neighbor routing elsewhere (notably the
   destination itself, which routes to itself) cannot feed p, occupied
   or not. The routing read stays in the set, so any action that could
   flip [next_hop] (only Route) still conflicts. *)
let choice_reads states p d nbrs =
  List.concat_map
    (fun s ->
      let feeds_p =
        Routing.Selfstab.next_hop states.(s).Ssmfp.State.routing ~d = p
      in
      FRouting s :: (if feeds_p then [ FBufE (s, d) ] else []))
    nbrs

let action_reads graph states p (a : Ssmfp.Protocol.action) =
  let d = a.Ssmfp.Protocol.dest in
  let nbrs = Topology.Graph.neighbors graph p in
  match a.Ssmfp.Protocol.rule with
  | Ssmfp.Protocol.Route ->
      FRouting p :: List.map (fun r -> FRouting r) nbrs
  | Ssmfp.Protocol.R1 ->
      FRequest p :: FOutbox p :: FBufR (p, d) :: FQueue (p, d)
      :: choice_reads states p d nbrs
  | Ssmfp.Protocol.R2 ->
      FBufR (p, d)
      :: FBufE (bufr_last states p d, d)
      :: List.map (fun r -> FBufR (r, d)) nbrs
  | Ssmfp.Protocol.R3 ->
      FBufR (p, d) :: FQueue (p, d) :: choice_reads states p d nbrs
  | Ssmfp.Protocol.R4 ->
      FBufE (p, d) :: FRouting p :: List.map (fun r -> FBufR (r, d)) nbrs
  | Ssmfp.Protocol.R5 ->
      let last = bufr_last states p d in
      [ FBufR (p, d); FBufE (last, d); FRouting last ]
  | Ssmfp.Protocol.R6 -> [ FBufE (p, p) ]

let action_writes p (a : Ssmfp.Protocol.action) =
  let d = a.Ssmfp.Protocol.dest in
  match a.Ssmfp.Protocol.rule with
  | Ssmfp.Protocol.Route -> [ FRouting p ]
  | Ssmfp.Protocol.R1 ->
      [ FBufR (p, d); FQueue (p, d); FRequest p; FOutbox p ]
  | Ssmfp.Protocol.R2 -> [ FBufR (p, d); FBufE (p, d) ]
  | Ssmfp.Protocol.R3 -> [ FBufR (p, d); FQueue (p, d) ]
  | Ssmfp.Protocol.R4 -> [ FBufE (p, d) ]
  | Ssmfp.Protocol.R5 -> [ FBufR (p, d) ]
  | Ssmfp.Protocol.R6 -> [ FBufE (p, p) ]

let conflict graph states p a q b =
  let intersects xs ys = List.exists (fun x -> List.mem x ys) xs in
  intersects (action_writes p a) (action_reads graph states q b)
  || intersects (action_writes q b) (action_reads graph states p a)

(* The smallest processor whose enabled actions form a sound ample set:
   only local-progress rules, nothing valid at stake, no request to
   raise, and no field conflict with any enabled action of any
   neighbor (non-neighbors read within their own radius-1 ball, so
   they cannot conflict; request-raising reads and writes only the
   raiser's request/outbox, which no local-progress rule touches).
   Pure in the configuration: the same state elects the same
   processor. *)
let ample_pid graph states tbl =
  let eligible p =
    tbl.(p) <> []
    && (not (Ssmfp.State.wants_request states.(p)))
    && local_progress_only tbl.(p)
    && (not (holds_valid states.(p)))
    && List.for_all
         (fun q ->
           List.for_all
             (fun b ->
               List.for_all
                 (fun a -> not (conflict graph states p a q b))
                 tbl.(p))
             tbl.(q))
         (Topology.Graph.neighbors graph p)
  in
  (* Among eligible processors, the one with the fewest enabled actions
     collapses the most interleavings; ties break to the smallest pid.
     Still a pure function of the configuration. *)
  let best = ref None in
  for p = Topology.Graph.n graph - 1 downto 0 do
    if eligible p then
      match !best with
      | Some q when List.length tbl.(q) < List.length tbl.(p) -> ()
      | _ -> best := Some p
  done;
  !best

(* The higher layer raising a request flag, in pid order. *)
let raise_requests states =
  List.filter_map
    (fun p ->
      let st = states.(p) in
      if Ssmfp.State.wants_request st then begin
        let states' = Array.copy states in
        states'.(p) <- { st with Ssmfp.State.request = true };
        Some (states', [ p ])
      end
      else None)
    (List.init (Array.length states) Fun.id)

let model ?(variant = Ssmfp.Protocol.faithful) ?(run_routing = false)
    ?(por = false) graph =
  {
    Par.protocol = Ssmfp.Protocol.make ~variant ~run_routing graph;
    init_monitor = 0;
    monitor =
      (fun delivered ~pid:_ ev ->
        match ev with
        | Ssmfp.Protocol.Delivered m when Ssmfp.Message.is_valid m ->
            min 2 (delivered + 1)
        | _ -> delivered);
    encode = (fun codec states delivered -> Codec.encode codec states ~delivered);
    externals = raise_requests;
    ample = (if por then Some (ample_pid graph) else None);
    prune = (fun _ delivered -> delivered >= 2);
    witness = lost;
    deadlock = has_traffic;
    render = (fun states _ -> render_config states);
  }

let check_safety ?variant ?(simultaneity = false) ?run_routing ?max_configs
    ?workers ?por ?prof scenario initials =
  let graph = scenario.graph in
  let r =
    Par.check_safety ~simultaneity ?max_configs ?workers ?prof ~graph
      (model ?variant ?run_routing ?por graph)
      initials
  in
  {
    initial_count = r.Par.initial_count;
    explored = r.Par.explored;
    transitions = r.Par.transitions;
    duplicate_delivery = r.Par.violation <> None;
    lost_valid = r.Par.witness;
    deadlock = r.Par.deadlock;
    visited = r.Par.visited;
  }

(* ------------------------------------------------------------------ *)
(* Liveness under the weakly fair round-robin daemon                   *)

type liveness_report = {
  checked : int;
  max_steps_seen : int;
  failures : string list;
}

let step_bound = 20_000

let check_liveness scenario initials =
  let g = scenario.graph in
  let proto = Ssmfp.Protocol.make ~run_routing:false g in
  let max_steps_seen = ref 0 and failures = ref [] in
  let check_one idx states =
    let init p = states.(p) in
    let t = Sim.Engine.make ~graph:g ~protocol:proto init in
    let daemon = Sim.Daemon.round_robin () in
    let delivered = ref 0 in
    let on_events ~step:_ events =
      List.iter
        (fun (_, ev) ->
          match ev with
          | Ssmfp.Protocol.Delivered m when Ssmfp.Message.is_valid m ->
              incr delivered
          | _ -> ())
        events
    in
    let status =
      Sim.Engine.run ~max_steps:step_bound
        ~before_step:Ssmfp.Protocol.raise_requests
        ~on_events t daemon
    in
    let steps = (Sim.Engine.stats t).Sim.Engine.steps in
    if steps > !max_steps_seen then max_steps_seen := steps;
    let fail fmt =
      Printf.ksprintf (fun s ->
          failures := Printf.sprintf "initial #%d: %s" idx s :: !failures)
        fmt
    in
    (match status with
    | `Terminal -> ()
    | `Max_steps -> fail "no quiescence within %d steps" step_bound
    | `Stopped -> fail "unexpected stop");
    if status = `Terminal && !delivered <> 1 then
      fail "valid message delivered %d times (expected 1)" !delivered
  in
  List.iteri check_one initials;
  {
    checked = List.length initials;
    max_steps_seen = !max_steps_seen;
    failures = List.rev !failures;
  }
