type rule = Route | R1 | R2 | R3 | R4 | R5 | R6

type action = { rule : rule; dest : int }

type event =
  | Generated of Message.t * int
  | Delivered of Message.t
  | Internal_forward of Message.t * int
  | Copied of Message.t * int * int
  | Erased_after_forward of Message.t * int
  | Erased_duplicate of Message.t * int
  | Routing_update of int

type variant = {
  use_colors : bool;
  use_r5 : bool;
  rotate_queue : bool;
  literal_r5 : bool;
}

let faithful =
  { use_colors = true; use_r5 = true; rotate_queue = true; literal_r5 = false }

let rule_name = function
  | Route -> "RA"
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"

(* --- reading the configuration ------------------------------------- *)

let read (net : State.t Sim.Engine.net) q = net.states.(q)

let routing_of net q = (read net q).State.routing

let slot_of net q d = State.slot (read net q) d

let readable g ~p q = q = p || Topology.Graph.is_edge g p q

(* bufR_q(d) as seen from p: readable only for q in N_p ∪ {p}. *)
let buf_r_seen g net ~p q d =
  if readable g ~p q then (slot_of net q d).State.buf_r else None

let buf_e_seen g net ~p q d =
  if readable g ~p q then (slot_of net q d).State.buf_e else None

let next_hop net q ~d = Routing.Selfstab.next_hop (routing_of net q) ~d

(* --- choice_p(d) ----------------------------------------------------- *)

(* [request_p ∧ nextDestination_p = d], read off the outbox head so that
   no option is built. *)
let requests sp ~d =
  sp.State.request
  && match sp.State.outbox with (d', _) :: _ -> d' = d | [] -> false

let can_feed g net ~p ~d s =
  if s = p then requests (read net p) ~d
  else
    match buf_e_seen g net ~p s d with
    | Some _ -> next_hop net s ~d = p
    | None -> false

(* [Choice.select ~candidate:(can_feed g net ~p ~d)] over the normalized
   queue, without building it. Only members of N_p ∪ {p} can feed, and
   [Choice.normalize] yields exactly those members: the queue's first
   occurrences, then the missing ones ascending. So the answer is [None]
   when no member feeds — tested first, since an idle destination is the
   common case — else the first feeder in queue order, else (every feeder
   being missing from the queue) the smallest feeder. The helpers take
   every variable as an argument so that no closure is allocated. *)
let rec first_feeder g net ~p ~d = function
  | [] -> -1
  | q :: rest -> if can_feed g net ~p ~d q then q else first_feeder g net ~p ~d rest

let choice g net ~p ~d =
  let self_feeds = can_feed g net ~p ~d p in
  let nbr = first_feeder g net ~p ~d (Topology.Graph.neighbors g p) in
  if (not self_feeds) && nbr < 0 then None
  else
    match first_feeder g net ~p ~d (slot_of net p d).State.queue with
    | -1 -> Some (if self_feeds && (nbr < 0 || p < nbr) then p else nbr)
    | s -> Some s

(* --- guards ----------------------------------------------------------- *)

let guard_r1 g net ~p ~d =
  let sp = read net p in
  requests sp ~d
  && (State.slot sp d).State.buf_r = None
  && choice g net ~p ~d = Some p

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
  match choice g net ~p ~d with
  | Some s when s <> p -> (
      match buf_e_seen g net ~p s d with Some _ -> true | None -> false)
  | Some _ | None -> false

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

(* R5 requires q <> p: a message whose [last] field is [p] itself was
   generated at [p] by R1 (rule R3 always stamps the feeding neighbor), so
   it is the head of a type-1 caterpillar (Definition 3's [q = p] clause),
   not a stray copy of [bufE_p]. Allowing [q = p] would erase a freshly
   generated message whenever an identical invalid message occupies
   [bufE_p(d)] — a violation of SP found by the model checker (see
   DESIGN.md §5). *)
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

(* --- actions ----------------------------------------------------------- *)

let apply_r1 ~rotate_queue g net p d =
  let sp = read net p in
  let info = Option.get (State.next_message sp) in
  let msg = Message.fresh_valid ~src:p info in
  let sl = State.slot sp d in
  let queue = Choice.normalize g ~p sl.State.queue in
  let queue = if rotate_queue then Choice.serve p queue else queue in
  let sp = State.with_slot sp d { sl with State.buf_r = Some msg; queue } in
  let sp = State.pop_outbox { sp with State.request = false } in
  (sp, [ Generated (msg, d) ])

let apply_r2 ~use_colors g ~delta net p d =
  let sp = read net p in
  let sl = State.slot sp d in
  let m = Option.get sl.State.buf_r in
  let color =
    if use_colors then
      let neighbor_buf_r q = buf_r_seen g net ~p q d in
      Color.pick g ~delta ~neighbor_buf_r ~p
    else 0
  in
  let m' = Message.with_recolor m ~last:p ~color in
  let sp =
    State.with_slot sp d { sl with State.buf_r = None; buf_e = Some m' }
  in
  (sp, [ Internal_forward (m', d) ])

let apply_r3 ~rotate_queue g net p d =
  let sp = read net p in
  let sl = State.slot sp d in
  let s = Option.get (choice g net ~p ~d) in
  let m = Option.get (buf_e_seen g net ~p s d) in
  let m' = Message.with_hop m ~last:s in
  let queue = Choice.normalize g ~p sl.State.queue in
  let queue = if rotate_queue then Choice.serve s queue else queue in
  let sp = State.with_slot sp d { sl with State.buf_r = Some m'; queue } in
  (sp, [ Copied (m', s, d) ])

let apply_r4 net p d =
  let sp = read net p in
  let sl = State.slot sp d in
  let m = Option.get sl.State.buf_e in
  (State.with_slot sp d { sl with State.buf_e = None },
   [ Erased_after_forward (m, d) ])

let apply_r5 net p d =
  let sp = read net p in
  let sl = State.slot sp d in
  let m = Option.get sl.State.buf_r in
  (State.with_slot sp d { sl with State.buf_r = None },
   [ Erased_duplicate (m, d) ])

let apply_r6 net p =
  let sp = read net p in
  let sl = State.slot sp p in
  let m = Option.get sl.State.buf_e in
  (State.with_slot sp p { sl with State.buf_e = None }, [ Delivered m ])

(* --- enabled actions, in offer order ----------------------------------- *)

let rr_of g net p =
  let n = Topology.Graph.n g in
  let rr = (read net p).State.rr mod n in
  if rr < 0 then rr + n else rr

(* The offer order is written once, as a walk that [enabled_rules] runs
   to the end and [first_enabled] stops at the first enabled action:
   routing's actions, destination by destination in rotation order, when
   it has any ([A] has priority); else SSMFP's, destination by destination
   in rotation order and, within one destination, R6 R4 R5 R2 R3 R1. *)
type scan = {
  g : Topology.Graph.t;
  variant : variant;
  tie : Routing.Selfstab.tie;
  net : State.t Sim.Engine.net;
  read : int -> Routing.Selfstab.state;
  p : int;
  first : bool;  (** stop after the first enabled action *)
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

(* Both scans prepend the enabled actions to [acc], so it ends reversed. *)
let rec scan_rules c ~d acc = function
  | [] -> acc
  | rule :: rest ->
      if holds c ~d rule then
        let acc = { rule; dest = d } :: acc in
        if c.first then acc else scan_rules c ~d acc rest
      else scan_rules c ~d acc rest

(* Destinations rr, rr+1, ..., n-1, 0, ..., rr-1. *)
let rec scan_dests c ~n ~rr rules i acc =
  if i = n || (c.first && acc <> []) then acc
  else
    scan_dests c ~n ~rr rules (i + 1)
      (scan_rules c ~d:((rr + i) mod n) acc rules)

let offered g ~variant ~run_routing ~tie net ~p ~first =
  let c = { g; variant; tie; net; read = routing_of net; p; first } in
  let n = Topology.Graph.n g in
  let rr = rr_of g net p in
  let routing = if run_routing then scan_dests c ~n ~rr [ Route ] 0 [] else [] in
  List.rev
    (if routing <> [] then routing else scan_dests c ~n ~rr ssmfp_rules 0 [])

let enabled_rules g ?(variant = faithful) ?(run_routing = true)
    ?(tie = Routing.Selfstab.Smallest_id) net ~p =
  offered g ~variant ~run_routing ~tie net ~p ~first:false

let first_enabled g ?(variant = faithful) ?(run_routing = true)
    ?(tie = Routing.Selfstab.Smallest_id) net ~p =
  match offered g ~variant ~run_routing ~tie net ~p ~first:true with
  | [] -> None
  | a :: _ -> Some a

let apply_action g ~variant ~tie ~delta net p { rule; dest = d } =
  let n = Topology.Graph.n g in
  let sp', events =
    match rule with
    | Route ->
        let routing =
          Routing.Selfstab.apply ~tie g ~read:(routing_of net) ~p ~d
        in
        (State.with_routing (read net p) routing, [ Routing_update d ])
    | R1 -> apply_r1 ~rotate_queue:variant.rotate_queue g net p d
    | R2 -> apply_r2 ~use_colors:variant.use_colors g ~delta net p d
    | R3 -> apply_r3 ~rotate_queue:variant.rotate_queue g net p d
    | R4 -> apply_r4 net p d
    | R5 -> apply_r5 net p d
    | R6 -> apply_r6 net p
  in
  (State.with_rr sp' ((d + 1) mod n), events)

(* The composed protocol over a given [enabled]: the reference's walk or
   a cache's. *)
let protocol_of g ~variant ~tie enabled =
  let delta = Topology.Graph.max_degree g in
  {
    Sim.Engine.proto_name = "ssmfp";
    (* Every guard (R1–R6, choice, color picking and the routing layer's
       enabled_dests/target) reads only p's own state and its neighbors' —
       unreadable dereferences are already treated as "no message" (see
       DESIGN.md §5) — so the composed SSMFP∘routing protocol satisfies
       the Neighborhood contract and the engine's dirty-set evaluation
       applies. *)
    locality = Sim.Engine.Neighborhood;
    enabled;
    apply = (fun net p a -> apply_action g ~variant ~tie ~delta net p a);
    action_label = (fun a -> rule_name a.rule);
  }

let make ?(variant = faithful) ?(run_routing = true)
    ?(tie = Routing.Selfstab.Smallest_id) g =
  protocol_of g ~variant ~tie (fun net p ->
      enabled_rules g ~variant ~run_routing ~tie net ~p)

(* --- the guard cache ----------------------------------------------------- *)

(* Every guard of destination d at p reads only p's slot d and routing
   entry d, its neighbors' slot d and routing entry d, and the bit
   [request_p ∧ nextDestination_p = d]. Slot, entry and message records
   are immutable, so those values, compared by physical identity, are a
   version stamp: an entry whose stored values are all [==] the current
   ones holds the guards' current results. The cache keeps the stored
   values alive, so no address is reused while an entry refers to it. *)
module Cache = struct
  (* One byte per (p, d): A's flag, the request bit of the key, and the
     SSMFP rules in offer order from bit 2 up. *)
  let bit_route = 1
  let bit_request = 2
  let ssmfp_order = Array.of_list ssmfp_rules
  let rule_bit j = 4 lsl j
  let rule_bits = 0xfc

  (* Only the cache refers to these, so no state holds them and every
     entry misses until first computed. They are static data, not young
     blocks: [Array.make] of a major-heap-sized array forces a minor
     collection when its initial value is young. *)
  let never_slot = { State.buf_r = None; buf_e = None; queue = [ -1 ] }
  let never_entry = { Routing.Selfstab.dist = -1; via = -1 }

  type t = {
    g : Topology.Graph.t;
    variant : variant;
    run_routing : bool;
    tie : Routing.Selfstab.tie;
    n : int;
    closed : int array array;  (** N[p]: p, then its neighbors ascending *)
    base : int array;
        (** (p, d)'s key is at [base.(p) + d * |N[p]|], one place per
            member of N[p] in [closed] order *)
    key_slot : State.slot array;
    key_entry : Routing.Selfstab.entry array;
    flags : Bytes.t;  (** (p, d) at [p * n + d] *)
    (* One call's scratch: the slot and routing arrays of N[p]. *)
    cur_slots : State.slot array array;
    cur_routing : Routing.Selfstab.state array;
    mutable checks : int;
    mutable recomputes : int;
  }

  let create ?(variant = faithful) ?(run_routing = true)
      ?(tie = Routing.Selfstab.Smallest_id) g =
    let n = Topology.Graph.n g in
    let closed =
      Array.init n (fun p -> Array.of_list (p :: Topology.Graph.neighbors g p))
    in
    let base = Array.make (n + 1) 0 in
    for p = 0 to n - 1 do
      base.(p + 1) <- base.(p) + (n * Array.length closed.(p))
    done;
    let width = Topology.Graph.max_degree g + 1 in
    {
      g;
      variant;
      run_routing;
      tie;
      n;
      closed;
      base;
      key_slot = Array.make base.(n) never_slot;
      key_entry = Array.make base.(n) never_entry;
      flags = Bytes.make (n * n) '\000';
      cur_slots = Array.make width [||];
      cur_routing = Array.make width [||];
      checks = 0;
      recomputes = 0;
    }

  let checks c = c.checks
  let recomputes c = c.recomputes

  (* The destination [request_p ∧ nextDestination_p] names, -1 if none. *)
  let request_dest sp =
    if sp.State.request then
      match sp.State.outbox with (d, _) :: _ -> d | [] -> -1
    else -1

  (* Point the scratch at N[p]'s arrays in [net]; returns |N[p]|. *)
  let load c (net : State.t Sim.Engine.net) ~p =
    let members = c.closed.(p) in
    for i = 0 to Array.length members - 1 do
      let s = net.states.(members.(i)) in
      c.cur_slots.(i) <- s.State.slots;
      c.cur_routing.(i) <- s.State.routing
    done;
    Array.length members

  let rec same c ~d ~o ~k i =
    i = k
    || c.cur_slots.(i).(d) == c.key_slot.(o + i)
       && c.cur_routing.(i).(d) == c.key_entry.(o + i)
       && same c ~d ~o ~k (i + 1)

  (* (p, d)'s flags, recomputed by the reference guards on a miss. *)
  let refresh c sc ~k ~req_dest d =
    c.checks <- c.checks + 1;
    let p = sc.p in
    let o = c.base.(p) + (d * k) in
    let at = (p * c.n) + d in
    let fl = Char.code (Bytes.unsafe_get c.flags at) in
    let req = if d = req_dest then bit_request else 0 in
    if fl land bit_request = req && same c ~d ~o ~k 0 then fl
    else begin
      c.recomputes <- c.recomputes + 1;
      let fl = ref req in
      if c.run_routing && holds sc ~d Route then fl := !fl lor bit_route;
      for j = 0 to Array.length ssmfp_order - 1 do
        if holds sc ~d ssmfp_order.(j) then fl := !fl lor rule_bit j
      done;
      for i = 0 to k - 1 do
        c.key_slot.(o + i) <- c.cur_slots.(i).(d);
        c.key_entry.(o + i) <- c.cur_routing.(i).(d)
      done;
      Bytes.unsafe_set c.flags at (Char.unsafe_chr !fl);
      !fl
    end

  let scan_of c net ~p =
    {
      g = c.g;
      variant = c.variant;
      tie = c.tie;
      net;
      read = routing_of net;
      p;
      first = false;
    }

  (* Destination [i] places after [rr] in rotation order. *)
  let nth_dest c ~rr i = if rr + i >= c.n then rr + i - c.n else rr + i

  let rec first_rule fl j =
    if fl land rule_bit j <> 0 then ssmfp_order.(j) else first_rule fl (j + 1)

  let enabled c net ~p =
    let sc = scan_of c net ~p in
    let k = load c net ~p in
    let req_dest = request_dest (read net p) in
    let any_route = ref false in
    for d = 0 to c.n - 1 do
      if refresh c sc ~k ~req_dest d land bit_route <> 0 then any_route := true
    done;
    (* The offer order, built backwards from its last destination. *)
    let rr = rr_of c.g net p in
    let row = p * c.n in
    let acc = ref [] in
    for i = c.n - 1 downto 0 do
      let d = nth_dest c ~rr i in
      let fl = Char.code (Bytes.unsafe_get c.flags (row + d)) in
      if !any_route then begin
        if fl land bit_route <> 0 then acc := { rule = Route; dest = d } :: !acc
      end
      else if fl land rule_bits <> 0 then
        for j = Array.length ssmfp_order - 1 downto 0 do
          if fl land rule_bit j <> 0 then
            acc := { rule = ssmfp_order.(j); dest = d } :: !acc
        done
    done;
    !acc

  (* A's first enabled action if it has one, else SSMFP's: with routing
     on, every destination is checked for A's flag, and the first SSMFP
     action met on the way is kept for the case it has none. *)
  let first_enabled c net ~p =
    let sc = scan_of c net ~p in
    let k = load c net ~p in
    let req_dest = request_dest (read net p) in
    let rr = rr_of c.g net p in
    let rec walk i ssmfp =
      if i = c.n then ssmfp
      else
        let d = nth_dest c ~rr i in
        let fl = refresh c sc ~k ~req_dest d in
        if fl land bit_route <> 0 then Some { rule = Route; dest = d }
        else if ssmfp = None && fl land rule_bits <> 0 then
          let a = Some { rule = first_rule fl 0; dest = d } in
          if c.run_routing then walk (i + 1) a else a
        else walk (i + 1) ssmfp
    in
    walk 0 None

  let protocol c =
    protocol_of c.g ~variant:c.variant ~tie:c.tie (fun net p ->
        enabled c net ~p)
end

let raise_requests ?on_raise t =
  for p = 0 to Topology.Graph.n (Sim.Engine.graph t) - 1 do
    let st = Sim.Engine.state t p in
    if State.wants_request st then begin
      Sim.Engine.set_state t p { st with State.request = true };
      match on_raise with Some f -> f p | None -> ()
    end
  done

let message_count (net : State.t Sim.Engine.net) =
  Array.fold_left
    (fun acc sp -> acc + List.length (State.occupied_buffers sp))
    0 net.states

let has_traffic (net : State.t Sim.Engine.net) =
  Array.exists
    (fun sp ->
      sp.State.request
      || sp.State.outbox <> []
      || State.occupied_buffers sp <> [])
    net.states
