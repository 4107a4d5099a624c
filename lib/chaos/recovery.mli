(** The recovery oracle: does the system re-satisfy SP after the last
    burst, and how fast?

    Snap-stabilization's promise, restated for a chaos run: whatever the
    faults did, every message {e requested after the re-legitimacy
    point} is delivered once and only once, invalid deliveries stay
    within Proposition 4's [2n]-per-destination budget {e amortized over
    fault events} (through the end of window [k], at most [(k+1)·2n] per
    destination — the purge of one event's forgeries may cross the next
    burst's boundary), and the time back to quiescence after the last
    burst sits inside the [O(max(R_A, Δ^D))] envelope of
    Propositions 5–7. *)

type report = {
  burst_rounds : int list;  (** rounds the bursts actually fired, sorted *)
  relegitimacy_round : int;
      (** [max](last burst round, last invalid delivery round): after
          this round no forged traffic reaches a higher layer *)
  post_generated : int;
      (** valid ghosts generated strictly after the last burst round —
          snap-stabilization binds SP to all of them, even those
          generated while leftover invalid messages are still being
          purged *)
  post_delivered_once : int;
  post_duplicated : int;  (** must be 0 *)
  post_lost : int;  (** must be 0 at quiescence *)
  invalid_total : int;
  invalid_worst_window : int;
      (** worst per-destination invalid count inside one burst window
          (informational — the enforced check is the cumulative one) *)
  invalid_budget : int;  (** [2n], the per-fault-event allowance *)
  invalid_budget_ok : bool;
      (** cumulative Prop. 4: every destination's invalid deliveries
          through window [k] stay within [(k+1)·2n], for all [k] *)
  recovery_rounds : int;
      (** rounds from the last burst back to quiescence; [-1] if the run
          never got there *)
  envelope_rounds : int;
      (** [max(R_A after the last burst, Δ^D)] (capped at 1e9) *)
  within_envelope : bool;
      (** informational — the paper's bound hides constants, so this is
          not part of [ok] *)
  quiescent : bool;
  ok : bool;
  violations : string list;
}

val analyze :
  oracle:Harness.Oracle.t ->
  burst_rounds:int list ->
  n:int ->
  delta:int ->
  diameter:int ->
  final_round:int ->
  quiescent:bool ->
  routing_settled_round:int ->
  unit ->
  report
(** Model-agnostic: feed it the oracle of a state-model run (rounds =
    engine rounds) or an mp run (rounds = pulses, with
    [routing_settled_round = 0]). *)

val to_json : report -> Obs.Json.t

val verdict :
  schedule:Schedule.t ->
  verdict:Harness.Oracle.verdict ->
  report:report ->
  bool * string list * report option
(** The chaos verdict rule, shared by campaigns, the CLI and the tests:
    [Schedule.none] keeps the whole-run SP verdict alone (and no
    report); an unreliable channel without bursts requires both the
    whole-run verdict and the recovery report; bursts hand the verdict
    to the recovery report (the whole-run check may legitimately fail
    once faults destroy in-flight valid messages). Returns the verdict,
    its violations and the report to publish. *)

val aftermath_for : Schedule.t -> int
(** Size of the post-burst probe wave a scenario submits: [0] when the
    schedule has no bursts, else [4]. *)

val aftermath_wave :
  Prng.Splitmix.t ->
  n:int ->
  int ->
  (int -> dest:int -> Ssmfp.Message.info -> unit) ->
  int
(** [aftermath_wave rng ~n k push] draws the post-burst probe wave, the
    same draws for both models: [k] fresh requests, each from a random
    source to a random other process, pushed as [push src ~dest
    "aftermath-i"]. Returns how many it submitted: [k], or [0] on a
    single-process network. *)

val graph_meta : Topology.Graph.t -> int * int * int
(** [(n, Δ, D)], the graph parameters {!analyze} takes. *)
