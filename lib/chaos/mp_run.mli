(** Message-passing chaos runs: the [Mp.Ssmfp_mp] synchronizer port
    driven in segments, with bursts striking between segments and the
    schedule's channel preset wired into the network's
    loss/duplication/reorder knobs.

    Burst rounds are synchronizer pulses here. A burst's state domains
    corrupt the victims' SSMFP cores through [Ssmfp_mp.set_core]; its
    [Crash] domain takes the victims down for a fixed span of scheduler
    steps (they lose mirrors and timers on recovery).

    With [snapshot_every > 0] the run additionally carries the in-band
    Chandy–Lamport layer ({!Snapshot.Ssmfp_link}): a snapshot epoch is
    initiated every that many channel deliveries, completed cuts are
    checked {e online} by the cut oracle between drive chunks, and at
    quiescence one final cut is completed whose replayed ledgers yield
    the cut-side verdict and recovery report — compared against the
    omniscient ones in [cut_agrees]. *)

type snapshot_outcome = {
  snapshot_every : int;
  epochs : int;  (** epochs initiated (completed + abandoned + active) *)
  cuts : int;  (** cuts completed and checked *)
  consistent : int;  (** cuts passing the cause-before-effect check *)
  shadow_ok : int;  (** cuts whose stored/shadow fingerprints agree *)
  abandoned : int;
  markers : Mp.Ssmfp_mp.marker_stats;
  markers_resent : int;  (** marker retransmissions across all epochs *)
  cut_latencies : int list;  (** per cut, in channel deliveries *)
  online_violations : string list;  (** cut-oracle flags, chronological *)
  relegitimacy_bracket : (int * int option) option;
      (** pulse bracket within which invalid deliveries stopped growing *)
  cut_verdict : Harness.Oracle.verdict option;
      (** SP checked on the final cut's replayed ledgers *)
  cut_report : Recovery.report option;
      (** recovery analysis on the same replayed oracle *)
  cut_agrees : bool;
      (** cut-side and omniscient verdicts agree ([verdict.ok] and
          [report.ok] both match); [false] when no cut completed *)
}

type outcome = {
  mp_outcome : [ `All_done | `Max_deliveries ];
  channel_deliveries : int;
  max_pulse : int;
  oracle : Harness.Oracle.t;
  verdict : Harness.Oracle.verdict;
      (** whole-run SP check; bursts may legitimately fail it — the
          chaos verdict is [report.ok] *)
  report : Recovery.report;
  fired : (int * int) list;  (** (pulse fired at, victims), firing order *)
  aftermath_submitted : int;
  submitted : int;
      (** workload requests + aftermath — [verdict]'s expected total *)
  invalid_planted : int;
      (** invalid messages sitting in the corrupted initial cores *)
  channel : Mp.Ssmfp_mp.channel_stats;
  window : int;  (** effective window size the run used *)
  window_retransmits : int;
      (** window-layer RTO/nak/resync retransmissions *)
  schedule : Schedule.t;
  snapshot : snapshot_outcome option;  (** [Some] iff [snapshot_every > 0] *)
}

val run :
  ?spec:Harness.Fault.spec ->
  ?channel_garbage:int ->
  ?seed:int ->
  ?max_deliveries:int ->
  ?aftermath:int ->
  ?snapshot_every:int ->
  ?on_cut:(Snapshot.Ssmfp_link.cut -> unit) ->
  ?prof:Obs.Prof.t ->
  schedule:Schedule.t ->
  Topology.Graph.t ->
  Harness.Workload.t ->
  outcome
(** The schedule's [@win=] and [@ps=] modifiers select the
    sliding-window size and the channel timing model
    ({!Mp.Ssmfp_mp.create}); without them the port's defaults apply.

    [max_deliveries] (default 2_000_000) is a per-segment budget: each
    burst segment and the final drain get the full budget, so a run is
    bounded by [(bursts + 1) * max_deliveries] scheduler steps.
    [aftermath] (default 0) submits that many fresh requests right
    after the last burst (counted into [verdict]'s expected total), so
    the recovery oracle's post-burst SP check is never vacuous.

    [snapshot_every] (default 0 = off) initiates a snapshot epoch every
    that many channel deliveries; [on_cut] is called on each completed
    cut as it is harvested (journal streaming). A snapshot-off run
    never attaches the layer and replays byte-identically to builds
    that predate it.

    [?prof] threads into {!Mp.Ssmfp_mp.create} (Lamport hop log,
    latency/queue-depth histograms, retransmission counts) and records
    the run's skeleton on track 0: one ["chaos.segment"] span per
    between-burst drive, a ["chaos.drain"] span for the final drain and
    a ["chaos.snapshot_drain"] span for the final-cut completion, each
    phase attributing its delivery count to the matching
    ["chaos.*_deliveries"] counter. *)

val verdict : outcome -> bool * string list * Recovery.report option
(** {!Recovery.verdict} on the run's schedule, whole-run verdict and
    report, plus the cut clause when the snapshot layer is on: the cut
    verdict must agree with the omniscient one ([cut_agrees]) and the
    online cut oracle must have raised no flag. A failed clause clears
    the verdict and appends its violations. *)

val channel_to_json : Mp.Ssmfp_mp.channel_stats -> Obs.Json.t
(** [{"delivered", "lost", "duplicated", "reordered",
    "dropped_while_down"}], in that order. *)

val snapshot_to_json : snapshot_outcome -> Obs.Json.t
(** [{"every", "epochs", "cuts", "consistent", "shadow_ok", "abandoned",
    "markers_resent", "cut_agrees", "online_violations"}], in that
    order. *)
