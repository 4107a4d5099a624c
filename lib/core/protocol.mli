(** SSMFP, the paper's Algorithm 1, composed with the routing protocol [A].

    Rules, for every destination [d] (quoted from the paper):

    - [R1] generation: [request_p ∧ nextDestination_p = d ∧ bufR_p(d) =
      empty ∧ choice_p(d) = p  →  bufR_p(d) := (nextMessage_p, p, 0);
      request_p := false]
    - [R2] internal forwarding: [bufE_p(d) = empty ∧ bufR_p(d) = (m,q,c) ∧
      (q = p ∨ bufE_q(d) ≠ (m,q',c))  →  bufE_p(d) := (m, p, color_p(d));
      bufR_p(d) := empty]
    - [R3] forwarding: [bufR_p(d) = empty ∧ choice_p(d) = s ∧ s ≠ p ∧
      bufE_s(d) = (m,q,c)  →  bufR_p(d) := (m, s, c)]
    - [R4] erasing after forwarding: [bufE_p(d) = (m,q,c) ∧ p ≠ d ∧
      bufR_nextHop_p(d)(d) = (m,p,c) ∧ ∀r ∈ N_p \ {nextHop_p(d)},
      bufR_r(d) ≠ (m,p,c)  →  bufE_p(d) := empty]
    - [R5] erasing after duplication: [bufR_p(d) = (m,q,c) ∧ bufE_q(d) =
      (m,q',c) ∧ nextHop_q(d) ≠ p  →  bufR_p(d) := empty]
    - [R6] consumption: [bufE_p(p) = (m,q,c)  →  deliver_p(m);
      bufE_p(p) := empty]

    Composition and priority (§3.3): whenever [A] has an enabled action at
    [p], only [A]'s actions are offered to the daemon, so [A] has priority
    and the routing tables become correct and constant in finite time
    regardless of SSMFP traffic.

    Destination fairness: a processor runs one independent instance of the
    algorithm per destination. The offered action list is rotated by the
    cursor [State.rr] (advanced past the destination of each executed
    action), so a daemon that executes head actions serves the destination
    instances round-robin — realizing the paper's "all these algorithms run
    simultaneously" with single-action steps. Within one destination,
    rules are offered in the order R6, R4, R5, R2, R3, R1.

    Deviations from the paper's text, all documented in DESIGN.md:
    - [choice_p(d)] treats [p] itself as a candidate only when
      [nextDestination_p = d] (the paper's predicate omits this conjunct
      but its R1 requires it; without it a pending request for [d'] would
      hold the queue head of every other destination's queue forever);
    - rule R5 additionally requires [q ≠ p]: a message whose [last] field
      is [p] itself was generated at [p] (Definition 3 classifies it as a
      type-1 caterpillar for exactly that reason), not copied out of
      [bufE_p]. Under the literal guard, the model checker exhibits a
      reachable loss of a freshly generated valid message when an
      identical invalid message occupies [bufE_p(d)];
    - guards that would dereference a corrupted [nextHop] or [last] field
      falling outside [N_p ∪ {p}] treat the unreadable buffer as "does not
      contain the message" ([p] can only read its neighbors' variables). *)

type rule = Route | R1 | R2 | R3 | R4 | R5 | R6

type action = { rule : rule; dest : int }

type event =
  | Generated of Message.t * int  (** R1 accepted a message for [dest] *)
  | Delivered of Message.t  (** R6 delivered at the emitting processor *)
  | Internal_forward of Message.t * int  (** R2 moved bufR → bufE *)
  | Copied of Message.t * int * int  (** R3 copied from source [s] for [dest] *)
  | Erased_after_forward of Message.t * int  (** R4 *)
  | Erased_duplicate of Message.t * int  (** R5 *)
  | Routing_update of int  (** [A] rewrote the entry for [dest] *)

type variant = {
  use_colors : bool;
      (** when false, [color_p(d)] degenerates to the constant 0
          (ablation: shows why the color flag is needed) *)
  use_r5 : bool;  (** when false, rule R5 is never enabled *)
  rotate_queue : bool;
      (** when false, served processors are not rotated to the back of the
          choice queue (ablation: unfair selection) *)
  literal_r5 : bool;
      (** when true, R5 uses the paper's literal guard (no [q ≠ p]
          restriction) — the reading under which the model checker
          exhibits a reachable loss; kept as a positive control *)
}

val faithful : variant
(** The paper's protocol: all mechanisms on. *)

val rule_name : rule -> string
(** ["RA"], ["R1"] .. ["R6"]. *)

val make :
  ?variant:variant ->
  ?run_routing:bool ->
  ?tie:Routing.Selfstab.tie ->
  Topology.Graph.t ->
  (State.t, action, event) Sim.Engine.protocol
(** The composed protocol on the given network. [run_routing] (default
    [true]) can be switched off to freeze routing tables — used by
    experiments that study SSMFP alone under correct (or adversarially
    fixed) tables. [tie] selects [A]'s shortest-path tie-break (SSMFP
    must work with either family of trees [T_d]).

    This is the stateless reference: every [enabled] call runs the guard
    kernel ({!flags}) once for every destination and builds the offer
    order from the n bytes ({!enabled_rules}). The record holds no
    mutable state, so one value may be shared by any number of engines
    and domains (the model checker's workers do). {!Cache} runs the same
    kernel only where something changed. *)

val flags :
  Topology.Graph.t ->
  ?variant:variant ->
  ?run_routing:bool ->
  ?tie:Routing.Selfstab.tie ->
  State.t Sim.Engine.net ->
  p:int ->
  d:int ->
  int
(** The guard kernel: destination [d]'s enabled rules at [p] as one
    byte, [A]'s rule at bit 0 and R6 R4 R5 R2 R3 R1 at bits 1 to 6 (see
    {!flag}); [A]'s bit is 0 when [run_routing] is false. One pass reads
    [p]'s slot for [d] once, computes [choice_p(d)] at most once for R3
    and R1, and reads [bufE_q(d)] once for R2 and R5, [q] being the
    [last] field of [bufR_p(d)]. Members of N\[p\] are found in [p]'s
    neighbor array, never through {!Topology.Graph.is_edge}. {!make},
    {!enabled_rules}, {!first_enabled} and {!Cache} all evaluate guards
    through it. *)

val flag : rule -> int
(** [rule]'s bit in {!flags}' byte: [Route] 1, [R6] 2, [R4] 4, [R5] 8,
    [R2] 16, [R3] 32, [R1] 64. *)

(** {2 Guard cache}

    A processor runs one SSMFP instance per destination, and every guard
    of instance [d] at [p] — [A]'s rule, R1–R6 and [choice_p(d)] — reads
    only element [d] of the slot and routing arrays of N\[p\] ([p] and
    its neighbors) and the bit [request_p ∧ nextDestination_p = d].
    [A]'s rule reads the routing arrays alone.

    The cache keeps, for each [(p, d)], {!flags}' byte, and for each [p]
    the slot and routing arrays of N\[p\] and the request destination
    that [p]'s previous call read. A call compares each member's two
    arrays with the remembered ones by physical identity; only an array
    that differs is diffed, one [==] per destination. The kernel re-runs
    only for the destinations that differ in some member or whose
    request bit changed, and [A]'s guard re-runs only where a routing
    element differs: a destination changed only in a slot or in the
    request bit keeps [A]'s bit. A process's first call computes every
    destination, [A]'s guard included.

    {b Contract.} States are copy-on-write: a write builds a fresh slot
    or routing array ([State.with_slot], [State.with_routing],
    [Selfstab.apply], every fault injector) and never writes into an
    array a state already holds; slot, routing-entry and {!Message.t}
    records are immutable. So an array [==] to the remembered one holds
    the same elements, and an element [==] to the remembered one is the
    same value. The cache holds the arrays it remembers, so none is
    collected and its address reused while it refers to it. A write into
    an array in place breaks the contract and may go unseen (test_snapshot's
    "shadow catches write" does it on purpose).

    Nothing has to announce a change: a daemon step, [Sim.Engine.set_state],
    a fault injection or a message-passing mirror all show up as a
    changed identity. The results are exactly {!enabled_rules}' and
    {!first_enabled}'s, on any configuration reached under the
    contract.

    A call costs O(|N\[p\]|) identity checks when nothing in N\[p\]
    changed, plus O(n) pointer comparisons per changed array, the SSMFP
    part of the kernel for each changed destination and [A]'s guard for
    each destination whose routing changed. Building {!enabled}'s list
    or finding {!first_enabled}'s action walks [p]'s n flag bytes, and
    neither walks when nothing is enabled at [p]. A cache holds n bytes
    and O(1) words per processor and 2 words per member of N\[p\]; it
    writes into its tables on every call, so it belongs to one engine or
    one message-passing instance on one domain: never share it across
    domains. *)
module Cache : sig
  type t

  val create :
    ?variant:variant ->
    ?run_routing:bool ->
    ?tie:Routing.Selfstab.tie ->
    Topology.Graph.t ->
    t
  (** An empty cache for {!make}'s protocol with the same arguments:
      every process's first call computes every destination. *)

  val enabled : t -> State.t Sim.Engine.net -> p:int -> action list
  (** {!enabled_rules} with the cache's arguments: brings [p]'s
      destinations up to date, then builds the offer order from [rr]. *)

  val first_enabled : t -> State.t Sim.Engine.net -> p:int -> action option
  (** {!first_enabled} with the cache's arguments: the head of
      {!enabled}, without building the list. *)

  val protocol : t -> (State.t, action, event) Sim.Engine.protocol
  (** {!make}'s protocol with [enabled] served by the cache. *)

  val checks : t -> int
  (** Array pairs compared by identity since {!create}: |N\[p\]| per
      call at [p], each pair being a member's slot and routing arrays. *)

  val recomputes : t -> int
  (** Destinations whose guards were re-run since {!create}: all n at a
      process's first call, then only the changed ones. *)

  val route_recomputes : t -> int
  (** Destinations whose [A] guard was re-run since {!create}: all n at
      a process's first call, then only those where a routing element of
      N\[p\] changed; always 0 when [run_routing] is false. *)
end

(** {2 Introspection} — the guard-level probes used by tests, oracles and
    the model checker. All read the engine configuration without side
    effects. *)

val choice : Topology.Graph.t -> State.t Sim.Engine.net -> p:int -> d:int -> int option
(** Current value of [choice_p(d)] ([None] when no candidate): exactly
    [Choice.select ~candidate:(can_feed g net ~p ~d)] over
    [Choice.normalize g ~p] of [p]'s queue for [d], computed as {!flags}
    computes it, without building the normalized queue. *)

val can_feed : Topology.Graph.t -> State.t Sim.Engine.net -> p:int -> d:int -> int -> bool
(** The candidate predicate of [choice_p(d)]. *)

val enabled_rules :
  Topology.Graph.t ->
  ?variant:variant ->
  ?run_routing:bool ->
  ?tie:Routing.Selfstab.tie ->
  State.t Sim.Engine.net ->
  p:int ->
  action list
(** All enabled actions at [p] in offer order (same as the protocol):
    {!flags} for every destination, then [A]'s actions in rotation order
    from [State.rr] if any destination has [A]'s bit, else the SSMFP
    rules, destination by destination in rotation order. *)

val first_enabled :
  Topology.Graph.t ->
  ?variant:variant ->
  ?run_routing:bool ->
  ?tie:Routing.Selfstab.tie ->
  State.t Sim.Engine.net ->
  p:int ->
  action option
(** The head of {!enabled_rules}, found over the same bytes by a walk
    that stops at the first enabled action: what a priority-respecting
    daemon executes. *)

val raise_requests :
  ?on_raise:(int -> unit) -> (State.t, 'a, 'e) Sim.Engine.t -> unit
(** The higher layer's move before a daemon step: at every processor
    where {!State.wants_request} holds, in pid order, set [request_p]
    and call [on_raise p]. *)

val message_count : State.t Sim.Engine.net -> int
(** Number of occupied buffers in the configuration. *)

val has_traffic : State.t Sim.Engine.net -> bool
(** Some buffer is occupied or some request is pending. *)
