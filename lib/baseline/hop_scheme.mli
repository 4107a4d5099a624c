(** The hop-count buffer scheme — the other classic Merlin–Schweitzer
    buffer graph, relevant to the paper's concluding discussion of buffer
    requirements.

    Instead of one buffer per *destination* (Figure 1; n buffers per
    processor; SSMFP doubles that to 2n), the hop scheme gives each
    processor [D + 1] buffers indexed by the number of hops a message has
    travelled: a message generated at [p] enters class 0 and is forwarded
    from class [k] at [p] into class [k + 1] at [nextHop_p(d)]. Since
    minimal routes have at most [D] hops, class indices strictly increase
    along every move and the buffer graph is trivially acyclic — a
    deadlock-free controller with [D + 1] buffers per processor, usually
    far fewer than [n].

    Like {!Forwarding}, this is a *fault-free* scheme in the §2.2
    network-move model (correct constant routing tables, atomic
    copy-and-erase moves): it is a comparator for buffer economics
    (experiment E10), not a stabilizing protocol. With corrupted tables
    its acyclicity argument collapses — a message that has already
    travelled [D] hops but is not at its destination is simply dropped
    (counted in {!stats}), which a snap-stabilizing protocol must never
    do. *)

type message = {
  info : string;
  src : int;
  dest : int;
  hops : int;  (** buffer class currently occupied *)
  ghost : Ssmfp.Message.ghost;
}

type t

type stats = {
  rounds : int;
  moves : int;
  delivered : (int * message) list;  (** (round, message) in order *)
  dropped : int;
      (** messages that exhausted their [D] hop budget — always 0 under
          correct tables, the failure mode under corrupted ones *)
}

val create : ?tables:Routing.Table.t -> Topology.Graph.t -> t
(** Canonical shortest-path tables by default; pass [tables] (possibly
    corrupted) to study the scheme's failure behaviour. *)

val buffers_per_processor : t -> int
(** [D + 1]. *)

val send : t -> src:int -> dest:int -> string -> unit

val step : t -> int
(** One synchronous round (consume, then advance every message whose next
    class-buffer downstream is free, then generate); returns moves made. *)

val is_quiescent : t -> bool

val run_to_quiescence : t -> [ `Quiescent | `Max_rounds ]
(** Iterate {!step}, at most 1_000_000 rounds. *)

val stats : t -> stats
