(** Undirected connected networks.

    The paper (§2) models the network as an undirected connected graph
    [G = (V, E)] with identified processors: identities are [0 .. n-1] and
    every processor knows the full identity set. This module is the
    immutable adjacency representation shared by the simulator, the routing
    substrate and the protocol. *)

type t
(** An undirected simple graph on vertices [0 .. n-1]. Values of this type
    are immutable once built. *)

exception Invalid_edge of int * int
(** Raised by {!create} on self-loops or out-of-range endpoints. *)

val create : n:int -> edges:(int * int) list -> t
(** [create ~n ~edges] builds the graph with [n] vertices and the given
    undirected edges. Duplicate edges (in either orientation) are merged.
    @raise Invalid_edge on a self-loop or an endpoint outside [0..n-1].
    @raise Invalid_argument if [n < 1]. *)

val n : t -> int
(** Number of processors. *)

val edges : t -> (int * int) list
(** Edge list with [u < v], sorted lexicographically. *)

val edge_count : t -> int

val neighbors : t -> int -> int list
(** [neighbors g p] is [N_p], sorted increasingly. *)

val degree : t -> int -> int

val max_degree : t -> int
(** [Δ], the maximal degree. *)

val is_edge : t -> int -> int -> bool

val mem_vertex : t -> int -> bool

val is_connected : t -> bool

val fold_vertices : (int -> 'a -> 'a) -> t -> 'a -> 'a

val iter_vertices : (int -> unit) -> t -> unit

val vertices : t -> int list
(** [0; 1; ...; n-1]. *)

val pp : Format.formatter -> t -> unit
(** Prints ["graph(n=..., m=...)"] with the edge list. *)
