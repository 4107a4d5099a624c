(** Whole-network views and analyses of routing tables.

    SSMFP's behaviour depends on global properties of the [via] pointer
    field — whether following [nextHop] from [p] actually reaches [d], or
    loops (the corrupted-cycle situation of the paper's Figure 3). These
    analyses drive experiments and oracles. *)

type t = Selfstab.state array
(** One table per processor. *)

val correct_all : Topology.Graph.t -> t
(** All stabilized tables, computed with one BFS per destination (cheaper
    than [n] calls to {!Selfstab.init_correct}). *)

val random_all : Prng.Splitmix.t -> Topology.Graph.t -> t

val worst_all : Topology.Graph.t -> t

val read : t -> int -> Selfstab.state
(** Accessor in the shape expected by {!Selfstab}. *)

type walk = Reaches of int list | Loops of int list
(** Result of following [via] pointers towards a destination: either the
    path reaching it (inclusive of both endpoints), or the prefix walked
    before revisiting a processor. *)

val follow : Topology.Graph.t -> t -> src:int -> dst:int -> walk
(** Chase [nextHop] pointers from [src] towards [dst], at most [n] hops. *)

val routing_loops : Topology.Graph.t -> t -> (int * int) list
(** [(src, dst)] pairs whose pointer chase loops — each is a potential
    livelock for a non-stabilizing forwarding protocol. *)

val corrupted_fraction : Topology.Graph.t -> t -> float
(** Fraction of [(p, d)] entries differing from the canonical fixpoint. *)
