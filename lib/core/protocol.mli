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
    must work with either family of trees [T_d]). *)

(** {2 Introspection} — the guard-level probes used by tests, oracles and
    the model checker. All read the engine configuration without side
    effects. *)

val choice : Topology.Graph.t -> State.t Sim.Engine.net -> p:int -> d:int -> int option
(** Current value of [choice_p(d)] ([None] when no candidate): exactly
    [Choice.select ~candidate:(can_feed g net ~p ~d)] over
    [Choice.normalize g ~p] of [p]'s queue for [d], computed without
    building the normalized queue and without allocating when no member
    of [N_p ∪ {p}] can feed. *)

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
(** All enabled actions at [p] in offer order (same as the protocol). *)

val first_enabled :
  Topology.Graph.t ->
  ?variant:variant ->
  ?run_routing:bool ->
  ?tie:Routing.Selfstab.tie ->
  State.t Sim.Engine.net ->
  p:int ->
  action option
(** The head of {!enabled_rules}, found by the same walk stopped at the
    first enabled action: what a priority-respecting daemon executes. *)

val raise_requests :
  ?on_raise:(int -> unit) -> (State.t, 'a, 'e) Sim.Engine.t -> unit
(** The higher layer's move before a daemon step: at every processor
    where {!State.wants_request} holds, in pid order, set [request_p]
    and call [on_raise p]. *)

val message_count : State.t Sim.Engine.net -> int
(** Number of occupied buffers in the configuration. *)

val has_traffic : State.t Sim.Engine.net -> bool
(** Some buffer is occupied or some request is pending. *)
