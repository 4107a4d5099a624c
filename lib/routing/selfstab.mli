(** The self-stabilizing silent routing protocol [A] (paper §3.1).

    The paper assumes a self-stabilizing *silent* protocol computing
    routing tables (citing Huang–Chen, Kosowski–Kuszner, Dolev), inducing
    minimal paths, running simultaneously with SSMFP and with priority over
    it. This module supplies such a protocol: a per-destination min-hop
    distance-vector computation with the smallest-id tie-break, so the
    stabilized tables are exactly the canonical shortest-path trees [T_d]
    of {!Topology.Metrics.shortest_path_tree}.

    The rule, for processor [p] and destination [d]:
    - if [p = d] and [entry <> {dist = 0; via = p}], write it;
    - if [p <> d] and [entry <> target], write [target], where
      [target.dist = min(n, 1 + min over q in N_p of dist_q(d))] and
      [target.via] is the smallest-id neighbor attaining the minimum.

    Distances are capped at [n] (an unreachable sentinel that a connected
    network eliminates). The protocol is silent: once every entry equals
    its target nothing is enabled, and the unique fixpoint on a connected
    graph is the true distance field.

    The functions below are written against a [read] accessor instead of a
    concrete network type so the SSMFP protocol can embed routing state
    inside its own processor state and delegate (the composition of §3.3,
    with priority enforced by the composed protocol). *)

type tie = Smallest_id | Largest_id
(** Which neighbor wins when several attain the minimal distance. The
    paper only requires [A] to induce *some* minimal-path trees [T_d];
    SSMFP must work whatever the deterministic tie-break (checked by the
    test suite). [Smallest_id] is the default everywhere. *)

type entry = { dist : int; via : int }
(** [via] is the next hop: a neighbor of [p], or [p] itself when [p = d]
    (and possibly garbage-within-domain in a corrupted configuration). *)

type state = entry array
(** Indexed by destination; length [n]. *)

val equal_entry : entry -> entry -> bool

val init_correct : ?tie:tie -> Topology.Graph.t -> int -> state
(** [init_correct g p] is [p]'s stabilized table (the fixpoint for the
    given tie-break), from one BFS per vertex of [N_p ∪ {p}]:
    [O(deg(p) (n + m))]. *)

val init_correct_all : ?tie:tie -> Topology.Graph.t -> state array
(** Every processor's {!init_correct} table, sharing one BFS per vertex
    across processors: [O(n(n+m))], where [n] separate {!init_correct}
    calls cost [O((n+m)^2)]. Entry-for-entry equal to
    [Array.init n (init_correct g)], as the test suite pins. *)

val init_random : Prng.Splitmix.t -> Topology.Graph.t -> int -> state
(** Arbitrary table within the type domain: [dist] uniform in [0..n],
    [via] a uniform neighbor (or self). Used by the fault injector; this is
    the full state space the paper quantifies over. *)

val init_worst : Topology.Graph.t -> int -> state
(** Adversarial table: distances all 0 (maximally wrong underestimates) and
    [via] pointers chosen to form cycles (each [p] points to its largest
    neighbor), maximizing the repair work of [A] and the wandering of
    messages in SSMFP. *)

val target :
  ?tie:tie -> Topology.Graph.t -> read:(int -> state) -> p:int -> d:int -> entry
(** The value the rule would write at [(p, d)] in the current
    configuration. *)

val enabled :
  ?tie:tie -> Topology.Graph.t -> read:(int -> state) -> p:int -> d:int -> bool
(** The rule is enabled at [(p, d)]: the entry differs from its {!target}. *)

val enabled_dests :
  ?tie:tie -> Topology.Graph.t -> read:(int -> state) -> p:int -> int list
(** Destinations whose entry at [p] differs from its target, ascending. *)

val apply :
  ?tie:tie -> Topology.Graph.t -> read:(int -> state) -> p:int -> d:int -> state
(** [p]'s next table after executing the rule for destination [d]
    (a fresh array; the input is not mutated). *)

val next_hop : state -> d:int -> int
(** [nextHop_p(d)] of the paper: the current [via] pointer. *)

val is_silent : ?tie:tie -> Topology.Graph.t -> (int -> state) -> bool
(** No rule enabled anywhere. *)

val is_correct : ?tie:tie -> Topology.Graph.t -> (int -> state) -> bool
(** Every processor's table equals {!init_correct} — the configuration the
    paper calls "routing tables are correct". *)

val stabilize :
  ?tie:tie -> Topology.Graph.t -> (int -> state) -> int * (int -> state)
(** [stabilize g read] runs the protocol alone, synchronously, to silence;
    returns the number of synchronous rounds taken ([R_A] under the
    synchronous daemon) and the stabilized tables. Used by experiments that
    need correct tables without simulating [A] step by step. Internally it
    re-checks only processors whose closed neighborhood changed in the
    previous round (the same dirty-set argument as the engine's
    incremental mode); rounds and resulting tables are identical to a
    full per-round rescan. *)
