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

(* N[p] as an array: p, then N_p ascending. *)
let closed_of g p = Array.of_list (p :: Topology.Graph.neighbors g p)

(* The destination [request_p ∧ nextDestination_p] names, -1 if none. *)
let request_dest sp =
  if sp.State.request then
    match sp.State.outbox with (d, _) :: _ -> d | [] -> -1
  else -1

(* --- the guard kernel -------------------------------------------------- *)

(* Every guard of destination d at p — A's rule, R1–R6 and choice_p(d) —
   reads only element d of the slot and routing arrays of N[p] and the
   bit [request_p ∧ nextDestination_p = d]. A view is what p's guards
   read, built once per evaluation of p; {!flags} evaluates one
   destination in one pass over it. *)
type view = {
  g : Topology.Graph.t;
  variant : variant;
  tie : Routing.Selfstab.tie;
  run_routing : bool;
  states : State.t array;
  read : int -> Routing.Selfstab.state;  (** A's accessor *)
  p : int;
  closed : int array;  (** N[p]: p at index 0, then N_p ascending *)
  req : int;  (** [request_dest] of p *)
}

let view g ~variant ~tie ~run_routing (net : State.t Sim.Engine.net) ~closed =
  let p = closed.(0) in
  {
    g;
    variant;
    tie;
    run_routing;
    states = net.states;
    read = routing_of net;
    p;
    closed;
    req = request_dest net.states.(p);
  }

(* [q] is in N[p] at index [i] or later: a corrupted [last] or [via] may
   name any int, and p has only its few neighbors to compare with. *)
let rec member (closed : int array) q i =
  i < Array.length closed
  && (Array.unsafe_get closed i = q || member closed q (i + 1))

let via v q d = v.states.(q).State.routing.(d).Routing.Selfstab.via

(* bufE_q(d) as p reads it: a [q] outside N[p] reads as empty (DESIGN.md
   §5). *)
let buf_e_at v q d =
  if member v.closed q 0 then (State.slot v.states.(q) d).State.buf_e
  else None

(* Neighbor [s] can feed bufR_p(d): bufE_s(d) holds a message and
   nextHop_s(d) = p. *)
let nbr_feeds v ~d s =
  (match (State.slot v.states.(s) d).State.buf_e with
  | Some _ -> true
  | None -> false)
  && via v s d = v.p

(* The candidate predicate of choice_p(d), for any int [s]: p itself
   when it requests d, else a neighbor that can feed. *)
let feeds v ~d s =
  if s = v.p then v.req = d else member v.closed s 1 && nbr_feeds v ~d s

let rec first_nbr_feeder v ~d i =
  if i = Array.length v.closed then -1
  else
    let s = Array.unsafe_get v.closed i in
    if nbr_feeds v ~d s then s else first_nbr_feeder v ~d (i + 1)

let rec first_queued_feeder v ~d = function
  | [] -> -1
  | q :: rest -> if feeds v ~d q then q else first_queued_feeder v ~d rest

(* choice_p(d) as a pid, -1 for none: [Choice.select ~candidate:(feeds v
   ~d)] over the normalized queue, without building it. Only members of
   N[p] can feed, and [Choice.normalize] yields exactly those members:
   the queue's first occurrences, then the missing ones ascending. So
   the answer is -1 when no member feeds — tested first, since an idle
   destination is the common case — else the first feeder in queue
   order, else (every feeder being missing from the queue) the smallest
   feeder. *)
let chosen v ~d (sl : State.slot) =
  let self_feeds = v.req = d in
  let nbr = first_nbr_feeder v ~d 1 in
  if (not self_feeds) && nbr < 0 then -1
  else
    match first_queued_feeder v ~d sl.State.queue with
    | -1 -> if self_feeds && (nbr < 0 || v.p < nbr) then v.p else nbr
    | s -> s

(* One byte per destination: A's flag at bit 0, then the SSMFP rules in
   offer order, R6 R4 R5 R2 R3 R1 at bits 1 to 6. *)
let ssmfp_order = [| R6; R4; R5; R2; R3; R1 |]
let bit_route = 1
let rule_bit j = 2 lsl j
let rule_bits = 0x7e

(* [rule_bit j] for each rule, as constants. *)
let b_r6 = 2
let b_r4 = 4
let b_r5 = 8
let b_r2 = 16
let b_r3 = 32
let b_r1 = 64

let flag = function
  | Route -> bit_route
  | R6 -> b_r6
  | R4 -> b_r4
  | R5 -> b_r5
  | R2 -> b_r2
  | R3 -> b_r3
  | R1 -> b_r1

(* bufR_r(d) = (m, p, c): [r] holds p's copy of [m]. *)
let holds_copy v ~d (m : Message.t) r =
  match (State.slot v.states.(r) d).State.buf_r with
  | Some m' -> m'.info = m.info && m'.last = v.p && m'.color = m.color
  | None -> false

let rec no_stray v ~d m h i =
  i = Array.length v.closed
  ||
  let r = Array.unsafe_get v.closed i in
  (r = h || not (holds_copy v ~d m r)) && no_stray v ~d m h (i + 1)

(* R6 and R4, for bufE_p(d) = m. *)
let emission_flags v ~d m =
  if d = v.p then b_r6
  else
    let h = via v v.p d in
    if member v.closed h 0 && holds_copy v ~d m h && no_stray v ~d m h 1 then
      b_r4
    else 0

(* R1–R6 at destination [d]: the slot is read once; when bufR_p(d) =
   (m, q, c), R5 and R2 share the read of bufE_q(d); when it is empty,
   R3 and R1 share one choice_p(d). *)
let ssmfp_flags v ~d =
  let p = v.p in
  let sl = State.slot v.states.(p) d in
  let emission =
    match sl.State.buf_e with Some m -> emission_flags v ~d m | None -> 0
  in
  match sl.State.buf_r with
  | Some m ->
      let q = m.Message.last in
      let dup =
        match buf_e_at v q d with
        | Some m' ->
            Message.matches_info_color m' ~info:m.info ~color:m.color
        | None -> false
      in
      (* R5 requires q <> p: a message whose [last] field is [p] itself
         was generated at [p] by R1 (rule R3 always stamps the feeding
         neighbor), so it is the head of a type-1 caterpillar
         (Definition 3's [q = p] clause), not a stray copy of [bufE_p].
         Allowing [q = p] would erase a freshly generated message
         whenever an identical invalid message occupies [bufE_p(d)] — a
         violation of SP found by the model checker (see DESIGN.md §5).
         A [dup] found at q implies q is in N[p], so its routing entry is
         readable. *)
      let r5 =
        if
          v.variant.use_r5
          && (v.variant.literal_r5 || q <> p)
          && dup && via v q d <> p
        then b_r5
        else 0
      in
      let r2 =
        if Option.is_none sl.State.buf_e && (q = p || not dup) then b_r2
        else 0
      in
      emission lor r5 lor r2
  | None -> (
      (* A chosen s <> p is a neighbor that feeds, so bufE_s(d) is full
         as R3 requires; the chosen s is p only when p requests d, as R1
         requires. *)
      match chosen v ~d sl with
      | -1 -> emission
      | s -> emission lor if s = p then b_r1 else b_r3)

let route_flag v ~d =
  if
    v.run_routing
    && Routing.Selfstab.enabled ~tie:v.tie v.g ~read:v.read ~p:v.p ~d
  then bit_route
  else 0

let flags_of v ~d = route_flag v ~d lor ssmfp_flags v ~d

(* --- the offer order ------------------------------------------------ *)

let rr_of g net p =
  let n = Topology.Graph.n g in
  let rr = (read net p).State.rr mod n in
  if rr < 0 then rr + n else rr

(* Destination [i] places after [rr] in rotation order. *)
let nth_dest ~n ~rr i = if rr + i >= n then rr + i - n else rr + i

(* The offer order is written once, over p's flag bytes [row.[at + d]]:
   routing's actions, destination by destination in rotation order, when
   any destination has A's flag ([A] has priority); else SSMFP's,
   destination by destination in rotation order and, within one
   destination, R6 R4 R5 R2 R3 R1. [bits] is [bit_route], [rule_bits],
   or 0 when nothing is enabled. *)
let offer_bits ~routes ~active =
  if routes > 0 then bit_route else if active > 0 then rule_bits else 0

let offer_list row ~at ~n ~rr ~bits =
  (* Built backwards from the last destination. *)
  let acc = ref [] in
  if bits <> 0 then
    for i = n - 1 downto 0 do
      let d = nth_dest ~n ~rr i in
      let fl = Char.code (Bytes.unsafe_get row (at + d)) land bits in
      if fl = bit_route then acc := { rule = Route; dest = d } :: !acc
      else if fl <> 0 then
        for j = Array.length ssmfp_order - 1 downto 0 do
          if fl land rule_bit j <> 0 then
            acc := { rule = ssmfp_order.(j); dest = d } :: !acc
        done
    done;
  !acc

let rec first_rule fl j =
  if fl land rule_bit j <> 0 then ssmfp_order.(j) else first_rule fl (j + 1)

let offer_first row ~at ~n ~rr ~bits =
  (* Some destination has one of [bits], so the walk stops. *)
  let rec walk i =
    let d = nth_dest ~n ~rr i in
    let fl = Char.code (Bytes.unsafe_get row (at + d)) land bits in
    if fl = 0 then walk (i + 1)
    else if fl = bit_route then Some { rule = Route; dest = d }
    else Some { rule = first_rule fl 0; dest = d }
  in
  if bits = 0 then None else walk 0

(* The reference: every destination of [v] into an n-byte row, then
   [walk] ([offer_list] or [offer_first]) over it. *)
let offered v net walk =
  let n = Topology.Graph.n v.g in
  let row = Bytes.create n in
  let routes = ref 0 and active = ref 0 in
  for d = 0 to n - 1 do
    let fl = flags_of v ~d in
    Bytes.unsafe_set row d (Char.unsafe_chr fl);
    if fl land bit_route <> 0 then incr routes;
    if fl land rule_bits <> 0 then incr active
  done;
  walk row ~at:0 ~n ~rr:(rr_of v.g net v.p)
    ~bits:(offer_bits ~routes:!routes ~active:!active)

let reference_view g ~variant ~run_routing ~tie net ~p =
  view g ~variant ~tie ~run_routing net ~closed:(closed_of g p)

let flags g ?(variant = faithful) ?(run_routing = true)
    ?(tie = Routing.Selfstab.Smallest_id) net ~p ~d =
  flags_of (reference_view g ~variant ~run_routing ~tie net ~p) ~d

let enabled_rules g ?(variant = faithful) ?(run_routing = true)
    ?(tie = Routing.Selfstab.Smallest_id) net ~p =
  offered (reference_view g ~variant ~run_routing ~tie net ~p) net offer_list

let first_enabled g ?(variant = faithful) ?(run_routing = true)
    ?(tie = Routing.Selfstab.Smallest_id) net ~p =
  offered (reference_view g ~variant ~run_routing ~tie net ~p) net offer_first

(* The probes read no variant, tie or routing flag. *)
let probe_view g net ~p =
  reference_view g ~variant:faithful ~run_routing:false
    ~tie:Routing.Selfstab.Smallest_id net ~p

let choice g net ~p ~d =
  match chosen (probe_view g net ~p) ~d (slot_of net p d) with
  | -1 -> None
  | s -> Some s

let can_feed g net ~p ~d s = feeds (probe_view g net ~p) ~d s

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
      let neighbor_buf_r q = (slot_of net q d).State.buf_r in
      Color.pick g ~delta ~neighbor_buf_r ~p
    else 0
  in
  let m' = Message.with_recolor m ~last:p ~color in
  let sp =
    State.with_slot sp d { sl with State.buf_r = None; buf_e = Some m' }
  in
  (sp, [ Internal_forward (m', d) ])

let apply_r3 ~rotate_queue v net p d =
  let sp = read net p in
  let sl = State.slot sp d in
  let s = chosen v ~d sl in
  let m = Option.get (slot_of net s d).State.buf_e in
  let m' = Message.with_hop m ~last:s in
  let queue = Choice.normalize v.g ~p sl.State.queue in
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

let apply_action g ~variant ~tie ~delta ~closed net p { rule; dest = d } =
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
    | R3 ->
        let v = view g ~variant ~tie ~run_routing:false net ~closed in
        apply_r3 ~rotate_queue:variant.rotate_queue v net p d
    | R4 -> apply_r4 net p d
    | R5 -> apply_r5 net p d
    | R6 -> apply_r6 net p
  in
  (State.with_rr sp' ((d + 1) mod n), events)

(* The composed protocol over a given [enabled]: the reference's walk or
   a cache's. [closed] is every process's N[p]. *)
let protocol_of g ~variant ~tie ~closed enabled =
  let delta = Topology.Graph.max_degree g in
  {
    (* Every guard (R1–R6, choice, color picking and the routing layer's
       enabled_dests/target) reads only p's own state and its neighbors' —
       unreadable dereferences are already treated as "no message" (see
       DESIGN.md §5) — so the composed SSMFP∘routing protocol satisfies
       the engine's closed-neighborhood contract and its dirty-set
       evaluation applies. *)
    Sim.Engine.enabled;
    apply =
      (fun net p a ->
        apply_action g ~variant ~tie ~delta ~closed:closed.(p) net p a);
    rules = Array.copy rule_names;
    rule_of = (fun a -> rule_number a.rule);
  }

let closed_all g = Array.init (Topology.Graph.n g) (closed_of g)

let make ?(variant = faithful) ?(run_routing = true)
    ?(tie = Routing.Selfstab.Smallest_id) g =
  let closed = closed_all g in
  protocol_of g ~variant ~tie ~closed (fun net p ->
      offered
        (view g ~variant ~tie ~run_routing net ~closed:closed.(p))
        net offer_list)

(* --- the guard cache ----------------------------------------------------- *)

(* Every guard of destination d at p reads only element d of the slot
   and routing arrays of N[p], and the bit [request_p ∧
   nextDestination_p = d]; A's rule reads the routing arrays alone.
   States are copy-on-write: a write builds a fresh array, and slot,
   entry and message records are immutable. So an array [==] to the one
   p's previous call read holds the same values, and in a fresh array an
   element [==] to the previous array's element d leaves destination
   d's guards unchanged. The cache keeps the arrays it compares against
   alive, so no address is reused while it refers to it. *)
module Cache = struct
  (* [seen_request]'s value before p's first call. *)
  let never = -2

  (* A destination's mark in [stale]: its SSMFP guards only, or A's too
     (a routing element of N[p] changed, or p's first call). *)
  let stale_rules = 1
  let stale_route = 3

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
    (* Each destination's mark during one call, all zero between
       calls unless [any_stale]. *)
    stale : Bytes.t;
    mutable any_stale : bool;
    mutable checks : int;
    mutable recomputes : int;
    mutable route_recomputes : int;
  }

  let create ?(variant = faithful) ?(run_routing = true)
      ?(tie = Routing.Selfstab.Smallest_id) g =
    let n = Topology.Graph.n g in
    let closed = closed_all g in
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
      route_recomputes = 0;
    }

  let checks c = c.checks
  let recomputes c = c.recomputes
  let route_recomputes c = c.route_recomputes

  let mark c d s =
    let m = Char.code (Bytes.unsafe_get c.stale d) lor s in
    Bytes.unsafe_set c.stale d (Char.unsafe_chr m);
    c.any_stale <- true

  (* The destinations where two arrays of length n differ, one pointer
     comparison each; one copy per element type, so that neither pays
     the generic array's float check. *)
  let diff_slots c (a : State.slot array) b =
    for d = 0 to c.n - 1 do
      if Array.unsafe_get a d != Array.unsafe_get b d then mark c d stale_rules
    done

  let diff_routing c (a : Routing.Selfstab.state) b =
    for d = 0 to c.n - 1 do
      if Array.unsafe_get a d != Array.unsafe_get b d then mark c d stale_route
    done

  let length_n c a =
    if Array.length a <> c.n then
      invalid_arg "Protocol.Cache: a state array's length is not n"

  let has bits fl = Bool.to_int (fl land bits <> 0)

  (* (p, d)'s flags from the kernel, keeping p's counts. A's flag is
     kept unless [route]: no routing element it reads has changed. *)
  let recompute c v d ~route =
    let p = v.p in
    let at = (p * c.n) + d in
    let old = Char.code (Bytes.unsafe_get c.flags at) in
    let a =
      if route && c.run_routing then begin
        c.route_recomputes <- c.route_recomputes + 1;
        route_flag v ~d
      end
      else old land bit_route
    in
    let fl = a lor ssmfp_flags v ~d in
    Bytes.unsafe_set c.flags at (Char.unsafe_chr fl);
    c.routes.(p) <- c.routes.(p) + has bit_route fl - has bit_route old;
    c.active.(p) <- c.active.(p) + has rule_bits fl - has rule_bits old

  (* Bring p's flags up to date with [net]: mark the destinations whose
     inputs changed since p's previous call (all of them at the first),
     run the kernel for those, then remember what was read. Remembering
     last means a guard that raised leaves p's previous view in place,
     so the next call marks the same destinations again. *)
  let sync c (net : State.t Sim.Engine.net) ~p =
    let members = c.closed.(p) in
    let k = Array.length members in
    let o = c.base.(p) in
    let first = c.seen_request.(p) = never in
    if first then for d = 0 to c.n - 1 do mark c d stale_route done;
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
      if req >= 0 && req < c.n then mark c req stale_rules;
      if seen_req >= 0 && seen_req < c.n then mark c seen_req stale_rules
    end;
    if c.any_stale then begin
      let v =
        view c.g ~variant:c.variant ~tie:c.tie ~run_routing:c.run_routing net
          ~closed:members
      in
      for d = 0 to c.n - 1 do
        let s = Char.code (Bytes.unsafe_get c.stale d) in
        if s <> 0 then begin
          recompute c v d ~route:(s = stale_route);
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

  let bits_of c ~p = offer_bits ~routes:c.routes.(p) ~active:c.active.(p)

  let enabled c net ~p =
    sync c net ~p;
    match bits_of c ~p with
    | 0 -> []
    | bits ->
        offer_list c.flags ~at:(p * c.n) ~n:c.n ~rr:(rr_of c.g net p) ~bits

  let first_enabled c net ~p =
    sync c net ~p;
    match bits_of c ~p with
    | 0 -> None
    | bits ->
        offer_first c.flags ~at:(p * c.n) ~n:c.n ~rr:(rr_of c.g net p) ~bits

  let protocol c =
    protocol_of c.g ~variant:c.variant ~tie:c.tie ~closed:c.closed
      (fun net p -> enabled c net ~p)
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
