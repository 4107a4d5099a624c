let crash_span = 50

type snapshot_outcome = {
  snapshot_every : int;
  epochs : int;
  cuts : int;
  consistent : int;
  shadow_ok : int;
  abandoned : int;
  markers : Mp.Ssmfp_mp.marker_stats;
  markers_resent : int;
  cut_latencies : int list;
  online_violations : string list;
  relegitimacy_bracket : (int * int option) option;
  cut_verdict : Harness.Oracle.verdict option;
  cut_report : Recovery.report option;
  cut_agrees : bool;
}

type outcome = {
  mp_outcome : [ `All_done | `Max_deliveries ];
  channel_deliveries : int;
  max_pulse : int;
  oracle : Harness.Oracle.t;
  verdict : Harness.Oracle.verdict;
  report : Recovery.report;
  fired : (int * int) list;
  aftermath_submitted : int;
  submitted : int;
  invalid_planted : int;
  channel : Mp.Ssmfp_mp.channel_stats;
  window : int;
  window_retransmits : int;
  barriers : int;
  adoptions : int;
  schedule : Schedule.t;
  snapshot : snapshot_outcome option;
}

let apply_burst chaos_rng t (b : Schedule.burst) =
  let g = Mp.Ssmfp_mp.graph t in
  let victims = Inject.pick_victims chaos_rng g b.Schedule.victims in
  let state_domains =
    List.filter (fun d -> d <> Schedule.Crash) b.Schedule.domains
  in
  let crashes = List.mem Schedule.Crash b.Schedule.domains in
  List.iter
    (fun p ->
      if state_domains <> [] then
        Mp.Ssmfp_mp.set_core t p
          (Inject.corrupt_state chaos_rng g ~p ~domains:state_domains
             (Mp.Ssmfp_mp.core t p));
      if crashes then Mp.Ssmfp_mp.crash_process t p ~down_for:crash_span)
    victims;
  List.length victims

(* How many deliveries between engine ticks (marker-retransmission
   heartbeat) while an epoch is active. *)
let tick_chunk = 128

let run ?(spec = Harness.Fault.pristine) ?(channel_garbage = 0) ?(seed = 1)
    ?(max_deliveries = 2_000_000) ?(aftermath = 0) ?(snapshot_every = 0)
    ?on_cut ?(prof = Obs.Prof.disabled) ~schedule graph workload =
  let knobs = Schedule.knobs schedule in
  let t =
    Mp.Ssmfp_mp.create ~spec ~channel_garbage ~loss:knobs.Schedule.loss
      ~duplication:knobs.Schedule.duplication ~reorder:knobs.Schedule.reorder
      ~seed ~prof ?window:schedule.Schedule.window
      ?synchrony:schedule.Schedule.synchrony graph workload
  in
  let n, delta, diameter = Recovery.graph_meta graph in
  (* Phase spans on track 0: one per drive segment between bursts, one
     for the post-burst drain, one for the final-snapshot completion —
     the chaos run's wall-clock skeleton. Each phase also attributes its
     own delivery count to a counter, so Perfetto lanes show where the
     traffic (not just the wall-clock) went. *)
  let prof_on = Obs.Prof.enabled prof in
  let ptr = Obs.Prof.track prof 0 in
  let sp_segment = Obs.Prof.span prof "chaos.segment" in
  let sp_drain = Obs.Prof.span prof "chaos.drain" in
  let sp_snap_drain = Obs.Prof.span prof "chaos.snapshot_drain" in
  let c_segment_del = Obs.Prof.counter prof "chaos.segment_deliveries" in
  let c_drain_del = Obs.Prof.counter prof "chaos.drain_deliveries" in
  let c_snap_del = Obs.Prof.counter prof "chaos.snapshot_deliveries" in
  let phase_deliveries counter d0 =
    if prof_on then
      Obs.Prof.add ptr counter (Mp.Ssmfp_mp.channel_deliveries t - d0)
  in
  let chaos_rng = Prng.Splitmix.of_int (seed + 6_700_417) in
  let invalid_planted =
    Harness.Fault.invalid_count (Array.init n (Mp.Ssmfp_mp.core t))
  in
  let fired = ref [] in
  let aftermath_submitted = ref 0 in
  (* Post-burst probe wave: fresh requests pushed into cores right after
     the last burst, so the recovery oracle's SP clause has traffic. *)
  let submit_aftermath () =
    aftermath_submitted :=
      Recovery.aftermath_wave chaos_rng ~n aftermath (fun src ~dest info ->
          Mp.Ssmfp_mp.set_core t src
            (Ssmfp.State.push_outbox (Mp.Ssmfp_mp.core t src) ~dest info))
  in
  (* In-band snapshot layer: attached (and initiated every
     [snapshot_every] deliveries) only when asked for; a snapshot-off
     run never touches it and replays byte-identically. Completed cuts
     are folded into the cut oracle online, between drive chunks. *)
  let snap =
    if snapshot_every > 0 then
      Some (Snapshot.Ssmfp_link.attach ~prof ~seed t)
    else None
  in
  let snap_oracle = Snapshot.Oracle.create ~n in
  let last_cut = ref None in
  let harvest link =
    List.iter
      (fun cut ->
        let invalid_budget = (List.length !fired + 1) * 2 * n in
        Snapshot.Oracle.observe_cut snap_oracle ~invalid_budget cut;
        last_cut := Some cut;
        match on_cut with Some f -> f cut | None -> ())
      (Snapshot.Ssmfp_link.take_completed link)
  in
  let next_init = ref snapshot_every in
  let last_tick = ref 0 in
  (* One chaos phase (segment or drain): with snapshots on, the drive is
     chunked at initiation/tick boundaries (measured in deliveries) so
     the engine can retransmit markers and completed cuts are checked
     online; the phase's delivery budget is preserved across chunks. *)
  let drive_phase ~stop =
    match snap with
    | None -> Mp.Ssmfp_mp.drive ~max_deliveries ~stop t
    | Some link ->
        let d0 = Mp.Ssmfp_mp.channel_deliveries t in
        let rec loop () =
          let spent = Mp.Ssmfp_mp.channel_deliveries t - d0 in
          if spent >= max_deliveries then `Max_deliveries
          else begin
            let bound = min !next_init (!last_tick + tick_chunk) in
            let status =
              Mp.Ssmfp_mp.drive
                ~max_deliveries:(max_deliveries - spent)
                ~stop:(fun t ->
                  stop t || Mp.Ssmfp_mp.channel_deliveries t >= bound)
                t
            in
            let d = Mp.Ssmfp_mp.channel_deliveries t in
            if d >= !next_init then begin
              Snapshot.Ssmfp_link.initiate link;
              next_init := d + snapshot_every
            end;
            if d >= !last_tick + tick_chunk then begin
              last_tick := d;
              Snapshot.Ssmfp_link.tick link
            end;
            harvest link;
            match status with
            | `Stopped -> if stop t then `Stopped else loop ()
            | (`Idle | `Max_deliveries) as s -> s
          end
        in
        loop ()
  in
  let exhausted = ref false in
  let bursts =
    List.sort
      (fun a b -> compare a.Schedule.at b.Schedule.at)
      schedule.Schedule.bursts
  in
  (* Segment the schedule: drive until the synchronizer's global pulse
     reaches the burst's round, strike, resume. Pulses advance even when
     the traffic has drained (timers keep the synchronizer running), so
     a burst past quiescence still gets its turn. Each segment gets the
     full delivery budget. *)
  List.iter
    (fun b ->
      if not !exhausted then begin
        let seg_t0 = Obs.Prof.now prof in
        let seg_d0 = Mp.Ssmfp_mp.channel_deliveries t in
        let seg_status =
          drive_phase ~stop:(fun t -> Mp.Ssmfp_mp.max_pulse t >= b.Schedule.at)
        in
        if prof_on then Obs.Prof.record ptr sp_segment ~start:seg_t0;
        phase_deliveries c_segment_del seg_d0;
        match seg_status with
        | `Stopped ->
            let pulse = Mp.Ssmfp_mp.max_pulse t in
            let victims = apply_burst chaos_rng t b in
            fired := (pulse, victims) :: !fired;
            if List.length !fired = List.length bursts then submit_aftermath ()
        | `Idle | `Max_deliveries -> exhausted := true
      end)
    bursts;
  let mp_outcome =
    if !exhausted then `Max_deliveries
    else begin
      let drain_t0 = Obs.Prof.now prof in
      let drain_d0 = Mp.Ssmfp_mp.channel_deliveries t in
      let status = drive_phase ~stop:Mp.Ssmfp_mp.all_drained in
      if prof_on then Obs.Prof.record ptr sp_drain ~start:drain_t0;
      phase_deliveries c_drain_del drain_d0;
      match status with
      | `Stopped -> `All_done
      | `Idle | `Max_deliveries -> `Max_deliveries
    end
  in
  (* Final-snapshot completion: at quiescence, one more cut whose
     ledgers hold the whole history — the cut the final verdict replay
     reads. Driven by timer steps and marker deliveries only (app
     traffic has drained), in its own span so the Perfetto lanes keep
     this work out of the drain's account. *)
  (match snap with
  | Some link when mp_outcome = `All_done ->
      let t0 = Obs.Prof.now prof in
      let d0 = Mp.Ssmfp_mp.channel_deliveries t in
      Snapshot.Ssmfp_link.initiate link;
      let guard = ref 2_000 in
      while Snapshot.Ssmfp_link.active link && !guard > 0 do
        decr guard;
        (match
           Mp.Ssmfp_mp.drive ~max_deliveries:tick_chunk
             ~stop:(fun _ -> not (Snapshot.Ssmfp_link.active link))
             t
         with
        | `Stopped | `Idle | `Max_deliveries -> ());
        Snapshot.Ssmfp_link.tick link
      done;
      harvest link;
      if prof_on then Obs.Prof.record ptr sp_snap_drain ~start:t0;
      phase_deliveries c_snap_del d0
  | _ -> ());
  (* Surface the profiling-ring overwrite accounting as counters, so
     saturated runs show their blind spots in --prof-summary and traces
     (a zero "samples_lost" is what licenses trusting the latency
     histograms). *)
  if prof_on then begin
    let ov = Mp.Ssmfp_mp.prof_overwrites t in
    Obs.Prof.add ptr
      (Obs.Prof.counter prof "mp.stamps_evicted")
      ov.Mp.Network.stamps_evicted;
    Obs.Prof.add ptr
      (Obs.Prof.counter prof "mp.samples_lost")
      ov.Mp.Network.samples_lost;
    Obs.Prof.add ptr
      (Obs.Prof.counter prof "mp.hops_evicted")
      ov.Mp.Network.hops_evicted
  end;
  let oracle = Mp.Ssmfp_mp.oracle t in
  let submitted = Mp.Ssmfp_mp.expected_valid t + !aftermath_submitted in
  let verdict =
    Harness.Oracle.check_sp oracle ~expected_valid:submitted ~n
      ~at_quiescence:(mp_outcome = `All_done)
  in
  let fired = List.rev !fired in
  let burst_rounds = List.map fst fired in
  let final_round = Mp.Ssmfp_mp.max_pulse t in
  let quiescent = mp_outcome = `All_done in
  let report =
    Recovery.analyze ~oracle ~burst_rounds ~n ~delta ~diameter ~final_round
      ~quiescent ~routing_settled_round:0 ()
  in
  let snapshot =
    Option.map
      (fun link ->
        let stats = Snapshot.Ssmfp_link.stats link in
        let cut_verdict, cut_report =
          match !last_cut with
          | None -> (None, None)
          | Some cut ->
              let replayed = Snapshot.Oracle.replay cut in
              let v =
                Harness.Oracle.check_sp replayed ~expected_valid:submitted ~n
                  ~at_quiescence:quiescent
              in
              let r =
                Recovery.analyze ~oracle:replayed ~burst_rounds ~n ~delta
                  ~diameter ~final_round ~quiescent ~routing_settled_round:0 ()
              in
              (Some v, Some r)
        in
        let cut_agrees =
          match (cut_verdict, cut_report) with
          | Some cv, Some cr ->
              cv.Harness.Oracle.ok = verdict.Harness.Oracle.ok
              && cr.Recovery.ok = report.Recovery.ok
          | _ -> false
        in
        {
          snapshot_every;
          epochs = stats.Snapshot.Engine.epochs_started;
          cuts = Snapshot.Oracle.cuts_seen snap_oracle;
          consistent = Snapshot.Oracle.consistent_cuts snap_oracle;
          shadow_ok = Snapshot.Oracle.shadow_ok_cuts snap_oracle;
          abandoned = stats.Snapshot.Engine.abandoned;
          markers = Snapshot.Ssmfp_link.marker_stats link;
          markers_resent = stats.Snapshot.Engine.markers_resent;
          cut_latencies = Snapshot.Oracle.latencies snap_oracle;
          online_violations = Snapshot.Oracle.violations snap_oracle;
          relegitimacy_bracket = Snapshot.Oracle.relegitimacy_bracket snap_oracle;
          cut_verdict;
          cut_report;
          cut_agrees;
        })
      snap
  in
  let sync = Mp.Ssmfp_mp.sync_stats t in
  {
    mp_outcome;
    channel_deliveries = Mp.Ssmfp_mp.channel_deliveries t;
    max_pulse = Mp.Ssmfp_mp.max_pulse t;
    oracle;
    verdict;
    report;
    fired;
    aftermath_submitted = !aftermath_submitted;
    submitted;
    invalid_planted;
    channel = Mp.Ssmfp_mp.channel_stats t;
    window = Mp.Ssmfp_mp.window t;
    window_retransmits = Mp.Ssmfp_mp.window_retransmits t;
    barriers = sync.Mp.Ssmfp_mp.barriers;
    adoptions = sync.Mp.Ssmfp_mp.adoptions;
    schedule;
    snapshot;
  }

(* With the snapshot layer on, the run also vouches for the in-band
   view: the cut-side verdict must agree with the omniscient one, and
   the online cut oracle must stay silent. *)
let verdict (o : outcome) =
  let ok, violations, report =
    Recovery.verdict ~schedule:o.schedule ~verdict:o.verdict ~report:o.report
  in
  match o.snapshot with
  | None -> (ok, violations, report)
  | Some s ->
      let extra =
        (if s.cut_agrees then []
         else [ "cut-oracle verdict disagrees with the omniscient one" ])
        @ s.online_violations
      in
      (ok && extra = [], violations @ extra, report)

let channel_to_json (c : Mp.Ssmfp_mp.channel_stats) =
  Obs.Json.Obj
    [
      ("delivered", Obs.Json.Int c.Mp.Ssmfp_mp.delivered);
      ("lost", Obs.Json.Int c.Mp.Ssmfp_mp.lost);
      ("duplicated", Obs.Json.Int c.Mp.Ssmfp_mp.duplicated);
      ("reordered", Obs.Json.Int c.Mp.Ssmfp_mp.reordered);
      ("dropped_while_down", Obs.Json.Int c.Mp.Ssmfp_mp.dropped_while_down);
    ]

let snapshot_to_json (s : snapshot_outcome) =
  Obs.Json.Obj
    [
      ("every", Obs.Json.Int s.snapshot_every);
      ("epochs", Obs.Json.Int s.epochs);
      ("cuts", Obs.Json.Int s.cuts);
      ("consistent", Obs.Json.Int s.consistent);
      ("shadow_ok", Obs.Json.Int s.shadow_ok);
      ("abandoned", Obs.Json.Int s.abandoned);
      ("markers_resent", Obs.Json.Int s.markers_resent);
      ("cut_agrees", Obs.Json.Bool s.cut_agrees);
      ( "online_violations",
        Obs.Json.List (List.map (fun v -> Obs.Json.String v) s.online_violations) );
    ]
