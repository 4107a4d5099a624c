(** Declarative scenario grids.

    The paper's claims are universally quantified over topologies, initial
    configurations and daemons; a single [Harness.Runner.config] samples one
    point of that space. A {!grid} names whole axes instead — lists of
    topologies, corruption levels, daemon kinds, workload shapes and seeds —
    and {!expand} takes their cartesian product into a deterministic,
    stably-ordered scenario list (topology-major, seed-minor) that
    [Campaign.Pool] can shard across domains.

    Every scenario is self-contained: {!materialize} rebuilds its runner
    configuration from the scenario alone (workload and corruption
    randomness are derived from the scenario's own seed), so a scenario
    executes identically whatever worker picks it up, whatever ran before
    it, and whatever the rest of the grid looks like. *)

type topology = {
  t_name : string;  (** canonical spelling, e.g. ["ring:8"] *)
  graph : Topology.Graph.t;
}

val topology_of_string : string -> (topology, string) result
(** Parse [ring:8], [path:5], [star:6], [complete:5], [grid:3x4],
    [torus:3x3], [hypercube:3], [btree:7], [random:12:6], [fig1] or
    [fig2] (case-insensitive). Random topologies are built from a fixed
    internal seed, so equal spellings denote equal graphs. *)

val topology_exn : string -> topology
(** @raise Invalid_argument on a spelling {!topology_of_string} rejects. *)

type corruption =
  | Pristine  (** {!Harness.Fault.pristine} *)
  | Random_point
      (** a seed-derived random point of the corruption space
          ({!Harness.Fault.random_spec}) *)
  | Adversarial  (** {!Harness.Fault.adversarial} *)

val corruption_to_string : corruption -> string
val corruption_of_string : string -> (corruption, string) result

type workload_kind =
  | Uniform of int  (** per-processor count, random destinations *)
  | All_to_one of int  (** convergecast onto processor 0 *)
  | One_to_all of int  (** broadcast-by-unicast rounds from processor 0 *)
  | Permutation of int
  | Neighbors of int
  | Saturating of int  (** colliding payloads (Prop. 5/6 stress) *)

val workload_to_string : workload_kind -> string
(** e.g. ["uniform:2"]. *)

val workload_of_string : string -> (workload_kind, string) result

type model =
  | State_model  (** shared-memory semantics, [Harness.Runner] / [Chaos.Runner] *)
  | Mp_model  (** message-passing port, [Chaos.Mp_run] over [Mp.Ssmfp_mp] *)

val model_to_string : model -> string
(** ["state"] / ["mp"]. *)

val model_of_string : string -> (model, string) result

val chaos_exn : string -> Chaos.Schedule.t
(** Parse a chaos schedule ({!Chaos.Schedule.of_string}).
    @raise Invalid_argument on a spelling it rejects. *)

val seeds_of_string : string -> (int list, string) result
(** Comma-separated seeds and inclusive ranges: ["1,2,5"], ["1..8"],
    ["1..3,7"]. A seed listed twice (["1..3,2"]) is an error. *)

type grid = {
  topologies : topology list;
  corruptions : corruption list;
  daemons : Harness.Runner.daemon_kind list;
  workloads : workload_kind list;
  models : model list;
  chaos : Chaos.Schedule.t list;
      (** fault schedules; [Chaos.Schedule.none] is the plain run *)
  snapshots : int list;
      (** snapshot initiation intervals in channel deliveries; [0] is
          snapshot-off (mp scenarios only — {!chaos_filter} drops
          state-model points with a nonzero interval) *)
  seeds : int list;
  max_steps : int;  (** step budget of every scenario *)
}

val default_grid : unit -> grid
(** 32 scenarios: {ring:6, path:5, star:6, grid:3x3} × {pristine,
    adversarial} × {synchronous, distributed} × uniform:2 × seeds {1, 2}
    — the sweep EXPERIMENTS.md maps onto Propositions 4–7. *)

val smoke_grid : unit -> grid
(** 8 fast scenarios for CI: {ring:5, path:4} × {pristine, adversarial}
    × synchronous × uniform:1 × seeds {1, 2}. *)

val chaos_grid : unit -> grid
(** The robustness sweep: {ring:6, path:5, grid:3x3} × {pristine,
    adversarial} × {synchronous, distributed} × uniform:2 × {state, mp}
    × three fault schedules (an early point burst, an all-victims burst
    followed by a crash on a lossy channel, and a mid-run burst on a
    flaky channel) × snapshot intervals {off, 400} × seeds {1, 2}.
    Expand it with {!chaos_filter} to drop the mp × distributed twins
    and the state × snapshot-on points — 144 scenarios. *)

type scenario = {
  index : int;  (** position in the expanded (filtered) list *)
  id : string;
      (** ["<topology>/<corruption>/<daemon>/<workload>/<model>/<chaos>[/snap<N>]/s<seed>"]
          — unique within a grid and stable across grid reshapes; the
          [/snap<N>] segment appears only when [snapshot > 0], so ids
          from pre-snapshot artifacts are unchanged *)
  topology : topology;
  corruption : corruption;
  daemon : Harness.Runner.daemon_kind;
  workload : workload_kind;
  model : model;
  chaos : Chaos.Schedule.t;
  snapshot : int;  (** snapshot interval in deliveries; [0] = off *)
  seed : int;
  max_steps : int;
}

val chaos_filter : scenario -> bool
(** Keeps every state-model scenario (snapshot-off spelling only — the
    layer is mp-specific) and only the synchronous-daemon spelling of
    each mp scenario (the synchronizer has no daemon, so other
    spellings would be semantically identical twins). *)

val expand : ?filter:(scenario -> bool) -> grid -> scenario list
(** Cartesian product in a stable order: topologies outermost, then
    corruptions, daemons, workloads, models, chaos schedules, and seeds
    innermost. [filter] drops scenarios before indices are assigned, so
    the surviving list is densely numbered.
    @raise Invalid_argument if two scenarios share an id (duplicate axis
    values). *)

val materialize : scenario -> Harness.Runner.config
(** The runner configuration of a scenario. Deterministic: the workload
    stream is seeded with [seed + 7919] (the same convention as
    [ssmfp_cli run]) and a [Random_point] corruption spec with a further
    seed-derived stream, so two calls — on any domain — build identical
    configurations. *)

val materialize_workload : scenario -> Harness.Workload.t
(** Just the workload of {!materialize} (the mp path needs it bare). *)

val materialize_fault_spec : scenario -> Harness.Fault.spec
(** Just the corruption spec of {!materialize}. *)
