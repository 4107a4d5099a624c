(** Parallel scenario execution on OCaml 5 domains.

    {!run} shards an expanded scenario list across a work-stealing pool of
    domains. Each scenario is self-seeded (see {!Spec.materialize}) and
    starts from a fresh domain-local ghost-id counter, so the outcome of a
    scenario is a pure function of the scenario — running with 1 or 16
    workers yields identical results, in the scenario list's own order.

    A scenario that raises is recorded as a {!Crashed} outcome; it never
    takes the campaign (or its worker domain) down. *)

type run_summary = {
  outcome : [ `Quiescent | `Max_steps ];
      (** mp scenarios map [`All_done] to [`Quiescent] and delivery-budget
          exhaustion to [`Max_steps] *)
  steps : int;  (** engine steps; channel deliveries on mp scenarios *)
  rounds : int;  (** engine rounds; synchronizer pulses on mp scenarios *)
  moves : int;
  valid_generated : int;
  valid_delivered : int;
  duplicate_delivered : int;
      (** extra deliveries of valid messages beyond their first (SP allows
          none) *)
  invalid_delivered : int;
  invalid_worst_dest : int;
      (** max invalid deliveries at any single destination (Prop. 4 bounds
          this by [2n]) *)
  invalid_planted : int;
  submitted : int;  (** workload requests plus any chaos aftermath wave *)
  routing_settled_round : int;  (** measured [R_A]; [0] on mp scenarios *)
  verdict_ok : bool;
      (** {!Chaos.Recovery.verdict} ({!Chaos.Mp_run.verdict} on mp
          scenarios): the SP verdict of {!Harness.Oracle.check_sp} on
          burst-free scenarios; on bursty ones, the recovery oracle's
          [report.ok] (bursts may legitimately destroy in-flight valid
          messages, so the whole-run check does not apply) *)
  violations : string list;
  latencies : float list;
      (** per-delivered-message rounds (Prop. 5), sorted ascending *)
  delays : float list;  (** request-to-generation rounds (Prop. 6), sorted *)
  recovery : Chaos.Recovery.report option;
      (** [Some] exactly when the scenario's schedule is not
          [Chaos.Schedule.none] *)
  channel : Mp.Ssmfp_mp.channel_stats option;
      (** the mp network's channel-perturbation counters; [Some] on mp
          scenarios *)
  snapshot : Chaos.Mp_run.snapshot_outcome option;
      (** the in-band Chandy–Lamport layer's outcome; [Some] on mp
          scenarios with a nonzero snapshot interval, where
          {!Chaos.Mp_run.verdict} also clears [verdict_ok] on a
          disagreeing cut verdict or any online cut-oracle flag *)
}

type crash = {
  crash_msg : string;  (** [Printexc.to_string] of the escaping exception *)
  crash_backtrace : string;
      (** the exception's backtrace, [""] when the runtime recorded none *)
}

type status = Done of run_summary | Crashed of crash

type outcome = {
  scenario : Spec.scenario;
  n : int;
  delta : int;  (** max degree Δ *)
  diameter : int;  (** D *)
  status : status;
  seconds : float;
      (** wall clock of this scenario on its worker — informational only,
          never serialized (artifacts must be bit-reproducible) *)
}

val default_workers : unit -> int
(** [Domain.recommended_domain_count], clamped to [1..8]. *)

val run_list :
  ?prof:Obs.Prof.t ->
  ?workers:int ->
  (unit -> 'a) list ->
  ('a, string) result list
(** The bare fan-out primitive: evaluate every thunk, at most [workers]
    (default 1) domains at a time, and return results in input order. A
    thunk that raises yields [Error (Printexc.to_string e)]; the other
    thunks still run.

    With an enabled [?prof] (needs at least [workers] tracks), domain
    [w] records into track [w]: a ["campaign.task"] span per thunk
    (utilization), a ["campaign.task_ns"] latency histogram, and a
    per-track ["campaign.tasks"] counter — the steal count of each
    domain's cursor. Profiling never affects results or their order. *)

val run_one : Spec.scenario -> outcome
(** Execute one scenario on the calling domain (resets the domain's
    ghost-id counter first). Dispatches on the scenario's model: state
    scenarios run through {!Chaos.Runner} (burst-free schedules delegate
    to the plain [Harness.Runner] code path untouched), mp scenarios
    through {!Chaos.Mp_run} with channel garbage scaled from the
    corruption axis (pristine 0, random 10, adversarial [2n]). *)

val run :
  ?workers:int -> ?prof:Obs.Prof.t -> Spec.scenario list -> outcome list
(** Execute every scenario, in input order in the result. [?prof] is
    threaded to {!run_list}. *)
