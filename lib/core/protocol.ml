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

(* A rule's index in the engine's [rules]. *)
let rule_number = function
  | Route -> 0
  | R1 -> 1
  | R2 -> 2
  | R3 -> 3
  | R4 -> 4
  | R5 -> 5
  | R6 -> 6

let rule_names = [| "RA"; "R1"; "R2"; "R3"; "R4"; "R5"; "R6" |]
let rule_name r = rule_names.(rule_number r)

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

(* choice_p(d) as a pid, -1 for none: what the guards compare. *)
let chosen g net ~p ~d =
  let self_feeds = can_feed g net ~p ~d p in
  let nbr = first_feeder g net ~p ~d (Topology.Graph.neighbors g p) in
  if (not self_feeds) && nbr < 0 then -1
  else
    match first_feeder g net ~p ~d (slot_of net p d).State.queue with
    | -1 -> if self_feeds && (nbr < 0 || p < nbr) then p else nbr
    | s -> s

let choice g net ~p ~d =
  match chosen g net ~p ~d with -1 -> None | s -> Some s

(* --- guards ----------------------------------------------------------- *)

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
    (* Every guard (R1–R6, choice, color picking and the routing layer's
       enabled_dests/target) reads only p's own state and its neighbors' —
       unreadable dereferences are already treated as "no message" (see
       DESIGN.md §5) — so the composed SSMFP∘routing protocol satisfies
       the engine's closed-neighborhood contract and its dirty-set
       evaluation applies. *)
    Sim.Engine.enabled;
    apply = (fun net p a -> apply_action g ~variant ~tie ~delta net p a);
    rules = Array.copy rule_names;
    rule_of = (fun a -> rule_number a.rule);
  }

let make ?(variant = faithful) ?(run_routing = true)
    ?(tie = Routing.Selfstab.Smallest_id) g =
  protocol_of g ~variant ~tie (fun net p ->
      enabled_rules g ~variant ~run_routing ~tie net ~p)

(* --- the guard cache ----------------------------------------------------- *)

(* Every guard of destination d at p reads only element d of the slot
   and routing arrays of N[p], and the bit [request_p ∧
   nextDestination_p = d]. States are copy-on-write: a write builds a
   fresh array, and slot, entry and message records are immutable. So an
   array [==] to the one p's previous call read holds the same values,
   and in a fresh array an element [==] to the previous array's element d
   leaves destination d's guards unchanged. The cache keeps the arrays it
   compares against alive, so no address is reused while it refers to
   it. *)
module Cache = struct
  (* One byte per (p, d): A's flag, then the SSMFP rules in offer order. *)
  let bit_route = 1
  let ssmfp_order = Array.of_list ssmfp_rules
  let rule_bit j = 2 lsl j
  let rule_bits = 0x7e

  (* [seen_request]'s value before p's first call. *)
  let never = -2

  type t = {
    g : Topology.Graph.t;
    variant : variant;
    run_routing : bool;
    tie : Routing.Selfstab.tie;
    n : int;
    closed : int array array;  (** N[p]: p, then its neighbors ascending *)
    base : int array;
        (** member [i] of N[p] is at [base.(p) + i] in the [seen_] arrays *)
    seen_slots : State.slot array array;
    seen_routing : Routing.Selfstab.state array;
        (** the arrays of N[p] that p's previous call read; [[||]] before *)
    seen_request : int array;
        (** p's request destination at its previous call, -1 for none *)
    flags : Bytes.t;  (** (p, d) at [p * n + d] *)
    routes : int array;  (** per p, how many destinations have A's flag *)
    active : int array;  (** per p, how many have an SSMFP rule *)
    (* One call's scratch: the destinations to recompute, all zero
       between calls unless [any_stale]. *)
    stale : Bytes.t;
    mutable any_stale : bool;
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
      base.(p + 1) <- base.(p) + Array.length closed.(p)
    done;
    (* Every table starts from static values: [Array.make] of a
       major-heap-sized array forces a minor collection when its initial
       value is young. *)
    {
      g;
      variant;
      run_routing;
      tie;
      n;
      closed;
      base;
      seen_slots = Array.make base.(n) [||];
      seen_routing = Array.make base.(n) [||];
      seen_request = Array.make n never;
      flags = Bytes.make (n * n) '\000';
      routes = Array.make n 0;
      active = Array.make n 0;
      stale = Bytes.make n '\000';
      any_stale = false;
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

  let mark c d =
    Bytes.unsafe_set c.stale d '\001';
    c.any_stale <- true

  (* The destinations where two arrays of length n differ, one pointer
     comparison each; one copy per element type, so that neither pays
     the generic array's float check. *)
  let diff_slots c (a : State.slot array) b =
    for d = 0 to c.n - 1 do
      if Array.unsafe_get a d != Array.unsafe_get b d then mark c d
    done

  let diff_routing c (a : Routing.Selfstab.state) b =
    for d = 0 to c.n - 1 do
      if Array.unsafe_get a d != Array.unsafe_get b d then mark c d
    done

  let length_n c a =
    if Array.length a <> c.n then
      invalid_arg "Protocol.Cache: a state array's length is not n"

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

  let has bits fl = Bool.to_int (fl land bits <> 0)

  (* (p, d)'s flags from the reference guards, keeping p's counts. *)
  let recompute c sc d =
    let p = sc.p in
    let at = (p * c.n) + d in
    let fl = ref 0 in
    if c.run_routing && holds sc ~d Route then fl := bit_route;
    for j = 0 to Array.length ssmfp_order - 1 do
      if holds sc ~d ssmfp_order.(j) then fl := !fl lor rule_bit j
    done;
    let fl = !fl and old = Char.code (Bytes.unsafe_get c.flags at) in
    Bytes.unsafe_set c.flags at (Char.unsafe_chr fl);
    c.routes.(p) <- c.routes.(p) + has bit_route fl - has bit_route old;
    c.active.(p) <- c.active.(p) + has rule_bits fl - has rule_bits old

  (* Bring p's flags up to date with [net]: mark the destinations whose
     inputs changed since p's previous call (all of them at the first),
     re-run the reference guards for those, then remember what was read.
     Remembering last means a guard that raised leaves p's previous view
     in place, so the next call marks the same destinations again. *)
  let sync c (net : State.t Sim.Engine.net) ~p =
    let members = c.closed.(p) in
    let k = Array.length members in
    let o = c.base.(p) in
    let first = c.seen_request.(p) = never in
    if first then for d = 0 to c.n - 1 do mark c d done;
    for i = 0 to k - 1 do
      let s = net.states.(members.(i)) in
      let slots = s.State.slots and routing = s.State.routing in
      let seen_slots = c.seen_slots.(o + i) in
      let seen_routing = c.seen_routing.(o + i) in
      (* Every array kept has length n, so the diffs index safely. *)
      if first || slots != seen_slots then begin
        length_n c slots;
        if not first then diff_slots c seen_slots slots
      end;
      if first || routing != seen_routing then begin
        length_n c routing;
        if not first then diff_routing c seen_routing routing
      end
    done;
    c.checks <- c.checks + k;
    let req = request_dest net.states.(p) in
    let seen_req = c.seen_request.(p) in
    if req <> seen_req then begin
      if req >= 0 && req < c.n then mark c req;
      if seen_req >= 0 && seen_req < c.n then mark c seen_req
    end;
    if c.any_stale then begin
      let sc = scan_of c net ~p in
      for d = 0 to c.n - 1 do
        if Bytes.unsafe_get c.stale d <> '\000' then begin
          recompute c sc d;
          Bytes.unsafe_set c.stale d '\000';
          c.recomputes <- c.recomputes + 1
        end
      done;
      c.any_stale <- false
    end;
    for i = 0 to k - 1 do
      let s = net.states.(members.(i)) in
      c.seen_slots.(o + i) <- s.State.slots;
      c.seen_routing.(o + i) <- s.State.routing
    done;
    c.seen_request.(p) <- req

  (* Destination [i] places after [rr] in rotation order. *)
  let nth_dest c ~rr i = if rr + i >= c.n then rr + i - c.n else rr + i

  (* The flag bits the offer order draws from: A's when any destination
     has it, else SSMFP's; 0 when nothing is enabled. *)
  let offer_bits c ~p =
    if c.routes.(p) > 0 then bit_route
    else if c.active.(p) > 0 then rule_bits
    else 0

  let rec first_rule fl j =
    if fl land rule_bit j <> 0 then ssmfp_order.(j) else first_rule fl (j + 1)

  let enabled c net ~p =
    sync c net ~p;
    match offer_bits c ~p with
    | 0 -> []
    | bits ->
        (* The offer order, built backwards from its last destination. *)
        let rr = rr_of c.g net p in
        let row = p * c.n in
        let acc = ref [] in
        for i = c.n - 1 downto 0 do
          let d = nth_dest c ~rr i in
          let fl = Char.code (Bytes.unsafe_get c.flags (row + d)) land bits in
          if fl = bit_route then acc := { rule = Route; dest = d } :: !acc
          else if fl <> 0 then
            for j = Array.length ssmfp_order - 1 downto 0 do
              if fl land rule_bit j <> 0 then
                acc := { rule = ssmfp_order.(j); dest = d } :: !acc
            done
        done;
        !acc

  let first_enabled c net ~p =
    sync c net ~p;
    match offer_bits c ~p with
    | 0 -> None
    | bits ->
        let rr = rr_of c.g net p in
        let row = p * c.n in
        (* Some destination has one of [bits], so the walk stops. *)
        let rec walk i =
          let d = nth_dest c ~rr i in
          let fl = Char.code (Bytes.unsafe_get c.flags (row + d)) land bits in
          if fl = 0 then walk (i + 1)
          else if fl = bit_route then Some { rule = Route; dest = d }
          else Some { rule = first_rule fl 0; dest = d }
        in
        walk 0

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
