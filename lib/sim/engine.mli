(** Execution engine for the locally shared memory state model (§2.1).

    A protocol is a set of guarded actions per processor; a configuration is
    the vector of all processor states. One step is composite-atomic: the
    daemon chooses a non-empty subset of the enabled processors, every
    chosen processor executes one of its enabled actions, and all actions
    read the *pre-step* configuration while writing only their own
    processor's state — the writes commit simultaneously.

    The engine also implements the round measure of Dolev–Israeli–Moran as
    modified by Bui et al.: a round ends once every processor that was
    enabled at the round's start has either executed an action or been
    neutralized (became disabled without executing).

    Guard evaluation is incremental by default: the model is local by
    construction (a guard reads only its processor's closed neighborhood),
    so a step that moves processors [P] can only flip guards inside
    [⋃_{p∈P} N\[p\]] — the *dirty set* — and only those are re-evaluated.
    A full-sweep reference mode re-evaluates every guard after every write
    and exists for differential testing; both modes produce byte-identical
    traces, stats and rounds (pinned by [test/test_incremental.ml]). *)

type 's net = private {
  graph : Topology.Graph.t;
  states : 's array;  (** [states.(p)] is the local state of processor [p]. *)
}
(** A configuration. Read-only views of it are passed to guards. *)

type ('s, 'a, 'e) protocol = {
  enabled : 's net -> int -> 'a list;
      (** [enabled net p] lists the actions of [p] whose guards hold in
          [net], ordered by decreasing priority. The head is what a
          priority-respecting daemon executes. It must depend only on the
          states of [p] and its graph neighbors (the §2.1 contract): that
          is what lets the engine restrict re-evaluation to the dirty
          set. *)
  apply : 's net -> int -> 'a -> 's * 'e list;
      (** [apply net p a] returns [p]'s next state and the observable
          events the action emits. It must not mutate [net]. *)
  rules : string array;
      (** The stable name of every rule (e.g. ["R3"]), each once: the
          labels of {!stats}' per-rule move counts and of [on_move]. *)
  rule_of : 'a -> int;
      (** The index in [rules] of the rule an action instantiates, so
          that counting a move costs no string or hash lookup. *)
}

type 'a candidate = { cand_pid : int; cand_actions : 'a list }
(** An enabled processor offered to the daemon, with its enabled actions in
    priority order (never empty). *)

type 'a daemon = step:int -> 'a candidate list -> (int * 'a) list
(** A daemon maps the enabled candidates of a step to the chosen
    [(processor, action)] pairs. It must return a non-empty selection of
    distinct processors, each with one of its offered actions (checked
    structurally by the engine, so a daemon may rebuild an action value
    rather than return the offered one). *)

exception Invalid_selection of string
(** Raised when a daemon violates the rules above. *)

type ('s, 'a, 'e) t
(** A running system: protocol + current configuration + counters. *)

type stats = {
  steps : int;  (** daemon steps executed so far *)
  rounds : int;  (** completed rounds *)
  moves : int;  (** total actions executed *)
  moves_by_rule : (string * int) list;  (** per-rule move counts, sorted *)
}

type probe = {
  on_move : pid:int -> rule:string -> unit;
      (** one call per executed action, as it commits *)
  on_step : step:int -> frontier:int -> moves:int -> unit;
      (** after each step: the step's index, the number of enabled
          processors in the *post-step* configuration, and the number of
          moves the step executed *)
  on_round : round:int -> moves:int -> unit;
      (** at each round completion: the new round count and the number
          of moves the completed round took *)
}
(** Lightweight telemetry hooks. Probes observe only — they must not
    write states. They feed the observability layer's metrics registry
    without the engine depending on it. *)

type mode =
  | Full_sweep
      (** Reference semantics: every guard re-evaluated after every state
          write. Kept for differential testing and benchmarking. *)
  | Incremental
      (** Default: a persistent per-processor candidate table, refreshed
          only over the dirty set of each write (the written processors
          and their neighbors). Observable behavior is identical to
          {!Full_sweep}. *)

val synthetic : graph:Topology.Graph.t -> states:'s array -> 's net
(** Build a configuration value outside a running engine — used by the
    model checker (to evaluate guards over enumerated configurations), the
    message-passing port (to evaluate guards over mirrored neighbor
    states) and tests. The array is aliased, not copied.
    @raise Invalid_argument if the array length differs from the graph's
    vertex count. *)

val make :
  ?mode:mode ->
  graph:Topology.Graph.t ->
  protocol:('s, 'a, 'e) protocol ->
  (int -> 's) ->
  ('s, 'a, 'e) t
(** [make ~graph ~protocol init] builds a system in the initial
    configuration given by [init] (default mode
    {!Incremental}). Snap-stabilization means [init] is arbitrary; nothing
    is assumed about it. *)

val net : ('s, 'a, 'e) t -> 's net
(** Current configuration. The returned states array must not be mutated. *)

val graph : ('s, 'a, 'e) t -> Topology.Graph.t

val mode : ('s, 'a, 'e) t -> mode
(** The guard-evaluation mode the system was built with. *)

val state : ('s, 'a, 'e) t -> int -> 's
(** [state t p] is processor [p]'s current local state. *)

val set_state : ('s, 'a, 'e) t -> int -> 's -> unit
(** [set_state t p s] overwrites [p]'s state *outside* protocol execution.
    This models the higher layer's writes to its Input/Output shared
    variables (e.g. raising [request_p]) and the fault injector. In
    incremental mode only the dirty set [N\[p\]] is re-evaluated. *)

val candidates : ('s, 'a, 'e) t -> 'a candidate list
(** Enabled processors in the current configuration (ascending pid).
    Assembled at most once between state writes — from the persistent
    candidate table in incremental mode, by a full guard sweep in
    full-sweep mode — and shared with {!is_terminal} and the next
    {!step}. *)

val is_terminal : ('s, 'a, 'e) t -> bool
(** No processor is enabled. *)

val set_probe : ('s, 'a, 'e) t -> probe option -> unit
(** Install (or remove) the telemetry probe. A probe can also be scoped to
    a single run via {!run}'s [?probe]. *)

val step : ('s, 'a, 'e) t -> 'a daemon -> (int * 'e) list option
(** Execute one step under the daemon. [None] if the configuration is
    terminal; otherwise the list of [(pid, event)] emissions of the step.
    @raise Invalid_selection if the daemon misbehaves. *)

val stats : ('s, 'a, 'e) t -> stats

val rounds : ('s, 'a, 'e) t -> int
(** [(stats t).rounds], without building the per-rule list. *)

val run :
  ?max_steps:int ->
  ?stop:(('s, 'a, 'e) t -> bool) ->
  ?before_step:(('s, 'a, 'e) t -> unit) ->
  ?on_events:(step:int -> (int * 'e) list -> unit) ->
  ?probe:probe ->
  ('s, 'a, 'e) t ->
  'a daemon ->
  [ `Terminal | `Stopped | `Max_steps ]
(** Drive the system until it is terminal, [stop] holds (checked before
    each step), or [max_steps] (default 1_000_000) steps have run.
    [before_step] runs before each step — the hook where the higher layer
    raises request flags. [probe], when given, is installed for the
    duration of this run only: the previously installed probe (if any) is
    restored on exit, even on exception. Omitting [probe] leaves any probe
    installed via {!set_probe} active during the run. *)
