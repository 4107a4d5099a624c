(** Merge per-scenario outcomes into one reproducible [Obs.Json] artifact.

    The artifact is a pure function of the outcomes' scenario-indexed
    content: scenarios are emitted in grid order, per-axis groups in first-
    appearance order, pooled percentiles over sorted samples, and nothing
    time- or worker-dependent is serialized — so [--workers 1] and
    [--workers 8] produce byte-identical files, and two campaigns can be
    [diff]ed or gated against each other ([Campaign.Baseline]).

    Layout (schema {!schema}):
    - ["totals"] — counts, delivery rate, pooled latency/delay summaries;
    - ["scenarios"] — one object per scenario: identity, graph parameters
      ([n], [delta], [diameter], [delta_pow_d]), engine totals, oracle
      tallies (with ["invalid_bound"] = [2n], Prop. 4), verdict and latency/
      delay digests (Props. 5–6);
    - ["by_topology"], ["by_corruption"], ["by_daemon"], ["by_workload"],
      ["by_model"], ["by_chaos"], ["by_snapshot"] — per-axis breakdowns:
      delivery rate, invalid-vs-bound worst ratio, pooled
      rounds-to-delivery percentiles with their worst ratio to [Δ^D]
      (the Prop. 5 envelope), and — when the group holds chaos
      scenarios — recovered counts with pooled rounds-to-recovery
      percentiles.

    Mp scenarios additionally carry a ["channel"] object (the network's
    perturbation counters: delivered/lost/duplicated/reordered/
    dropped_while_down) and, with the snapshot layer on, a ["snapshot"]
    object (epochs, cuts, consistency and shadow counts, abandonment,
    marker resends, ["cut_agrees"]); groups and totals roll both up when
    any member carries them. Chaos scenarios additionally carry a
    ["recovery"] object (the {!Chaos.Recovery} report) and crashed ones
    a ["crash_backtrace"] string next to ["crash"]. *)

val schema : string
(** ["ssmfp.campaign/3"]. *)

val to_json : Pool.outcome list -> Obs.Json.t
(** Order-insensitive: outcomes are re-sorted by scenario index. *)

val write : string -> Obs.Json.t -> unit
(** Write the artifact (single line + newline).
    @raise Sys_error on I/O failure. *)

val of_file : string -> (Obs.Json.t, string) result
(** Load and validate an artifact: parse with [Obs.Json.of_string],
    check the ["schema"] field, and require a ["totals"] object and a
    ["scenarios"] list whose entries each carry a string ["id"] and a
    ["status"] of ["ok"], ["violated"] or ["crashed"]. The error names
    the file and the missing field. *)

val scenario_ids : Obs.Json.t -> (string list, string) result
(** Every scenario id, in artifact order. *)

val failed_scenarios : Obs.Json.t -> (string list, string) result
(** Ids whose ["status"] is not ["ok"]. *)

val render_summary : Obs.Json.t -> (string, string) result
(** Human-readable digest of an artifact (totals plus per-axis lines) —
    used by the CLI after a live run and for [--from] revalidation. *)
