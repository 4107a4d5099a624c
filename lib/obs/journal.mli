(** Structured event journal: every [Protocol] event with its step,
    round, processor and ghost identity, writable as JSONL.

    The paper's claims are trajectory properties — single delivery (SP),
    the [2n] invalid-delivery bound (Proposition 4), the latency
    envelopes (Propositions 5–7). The journal is the machine-readable
    record of one trajectory: feed it from [Sim.Engine.run ~on_events]
    (the runner wires this when given an {!Sink.t}), then dump it, grep
    it, diff it, or read it back with {!load_jsonl}.

    JSONL schema (one object per line, fields in this order):
    {v
    {"step":4,"round":2,"pid":0,"kind":"copied","dest":1,
     "gid":1,"valid":true,"info":"m","last":2,"color":1,"src":2}
    v}
    [gid], [valid], [info], [last] and [color] are omitted on
    [routing_update] lines (no message involved); [src] — the processor
    R3 copied from — appears only on [copied] lines. [fault_injected]
    lines keep [info] alone (the injection detail), no other ghost
    fields. *)

type kind =
  | Generated
  | Internal_forward
  | Copied
  | Delivered
  | Erased_after_forward
  | Erased_duplicate
  | Routing_update
  | Fault_injected
      (** A chaos-layer injection, not a protocol move: the entry's [info]
          describes the corrupted domain (routing, buffers, queues, flags,
          crash) and [pid] the victim. *)
  | Snapshot_cut
      (** A completed distributed-snapshot cut: [round] is the snapshot
          epoch, [pid] the initiator, [info] the cut fingerprint (hex),
          [step] the engine clock at completion. *)

val kind_to_string : kind -> string
(** Lower-snake names, e.g. ["internal_forward"]. *)

val kind_of_string : string -> (kind, string) result

type entry = {
  step : int;  (** engine step the event was emitted at *)
  round : int;  (** engine round counter at emission *)
  pid : int;  (** processor that executed the rule *)
  kind : kind;
  dest : int;  (** destination component ([pid] itself for deliveries) *)
  gid : int option;  (** ghost id; [None] for routing updates *)
  valid : bool;  (** ghost validity; [false] for routing updates *)
  info : string;  (** useful information [m]; [""] for routing updates *)
  last : int option;  (** visible [last] field at event time *)
  color : int option;  (** visible color at event time *)
  src : int option;  (** R3's source processor, [Copied] only *)
}

val of_protocol_event :
  step:int -> round:int -> pid:int -> Ssmfp.Protocol.event -> entry

type t

val create : ?path:string -> unit -> t
(** In-memory journal; with [?path], every entry is {e also} written to
    [path] as a JSONL line the moment it is recorded, so a run that
    dies keeps its partial journal on disk (call {!flush} or {!close}
    to push OS buffers; {!with_file} does so even on exception). *)

val record : t -> step:int -> round:int -> pid:int -> Ssmfp.Protocol.event -> unit

val record_fault : t -> step:int -> round:int -> pid:int -> detail:string -> unit
(** Append a [Fault_injected] entry ([dest] = -1, no ghost fields) so
    traces show the cause of each recovery episode inline. *)

val record_cut :
  t -> step:int -> epoch:int -> initiator:int -> fingerprint:string -> unit
(** Append a [Snapshot_cut] entry ([round] = epoch, [pid] = initiator,
    [info] = fingerprint, [dest] = -1) so chaos journals carry the cut
    sequence inline with the protocol events. *)

val flush : t -> unit
(** Flush the streaming sink's channel. No-op without [?path] or after
    {!close}. *)

val close : t -> unit
(** Flush and close the streaming sink. Idempotent; recording after
    [close] still accumulates in memory but writes nothing. *)

val with_file : string -> (t -> 'a) -> 'a
(** [with_file path f] runs [f] on a streaming journal and closes it on
    the way out — {e including on exception} ([Fun.protect]), so a
    crashed chaos run keeps every line recorded before the raise. *)

val length : t -> int

val entries : t -> entry list
(** Chronological. *)

(** {2 JSONL} *)

val entry_to_json : entry -> Json.t
val entry_of_json : Json.t -> (entry, string) result

val to_jsonl : t -> string
(** One compact JSON object per line, newline-terminated; [""] when
    empty. *)

val write_jsonl : string -> t -> unit
(** Write {!to_jsonl} to a file path. *)

val load_jsonl : string -> (entry list, string) result
(** Parse a journal back from disk (blank lines skipped). The round
    trip [write_jsonl; load_jsonl] is the identity on {!entries}. *)
