(* Tests for the distributed-snapshot subsystem: the codec, the generic
   Chandy–Lamport engine on a raw network, the differential suite
   pinning in-band cuts against omniscient engine state, cut-oracle vs
   omniscient verdict agreement over the chaos grid, and marker-storm
   determinism. *)

let sched_exn s =
  match Chaos.Schedule.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.fail (s ^ ": " ^ e)

(* ---------------- codec ---------------- *)

let test_codec_deterministic () =
  let enc () =
    let c = Mc.Codec.create () in
    Mc.Codec.add_int c 0;
    Mc.Codec.add_int c 127;
    Mc.Codec.add_int c 128;
    Mc.Codec.add_int c 300_000;
    Mc.Codec.add_string c "hello";
    Mc.Codec.add_bool c true;
    (Mc.Codec.hash c, Mc.Codec.key c)
  in
  let h1, k1 = enc () and h2, k2 = enc () in
  Alcotest.(check bool) "hash deterministic" true (h1 = h2);
  Alcotest.(check string) "bytes deterministic" k1 k2;
  (* LEB128: 127 is one byte, 128 is two *)
  let c = Mc.Codec.create () in
  Mc.Codec.add_int c 127;
  Alcotest.(check int) "127 one byte" 1 (Mc.Codec.length c);
  Mc.Codec.reset c;
  Mc.Codec.add_int c 128;
  Alcotest.(check int) "128 two bytes" 2 (Mc.Codec.length c)

let test_codec_sensitive () =
  let h xs =
    let c = Mc.Codec.create () in
    List.iter (Mc.Codec.add_int c) xs;
    Mc.Codec.hash c
  in
  Alcotest.(check bool) "order matters" false (h [ 1; 2 ] = h [ 2; 1 ]);
  Alcotest.(check bool) "content matters" false (h [ 1 ] = h [ 2 ]);
  let comb = Mc.Codec.combine in
  let o = Mc.Codec.fnv_offset in
  Alcotest.(check bool) "combine order matters" false
    (comb (comb o 1) 2 = comb (comb o 2) 1);
  Alcotest.(check bool) "combine injective-ish" false (comb o 1 = comb o 2)

let test_codec_core_walk () =
  let g = Topology.Builders.ring 4 in
  let st = Ssmfp.State.clean g 0 in
  let h s =
    let c = Mc.Codec.create () in
    Mc.Codec.add_core c s;
    Mc.Codec.hash c
  in
  Alcotest.(check bool) "clean state stable" true (h st = h st);
  let st' = Ssmfp.State.push_outbox st ~dest:2 "x" in
  Alcotest.(check bool) "outbox length visible" false (h st = h st');
  let st'' = { st with Ssmfp.State.request = true } in
  Alcotest.(check bool) "request flag visible" false (h st = h st'')

(* ---------------- generic engine on a raw network ---------------- *)

(* A trivial host: int states, int payloads, handler swallows messages.
   The engine sees it through closures, exactly like the SSMFP link. *)
let make_raw_net ?(loss = 0.) g =
  Mp.Network.create ~loss
    ~init:(fun p -> p)
    ~handler:(fun ~self:_ ~from:_ s _m -> (s, []))
    g

let attach_raw net rng_seed g =
  let rng = Prng.Splitmix.of_int rng_seed in
  let eng =
    Snapshot.Engine.create
      ~send:(fun ~from ~into ~epoch ->
        Mp.Network.send_marker net rng ~from ~into ~epoch)
      ~capture:(fun p -> Mp.Network.state net p)
      ~freeze_state:Fun.id ~freeze_msg:Fun.id
      ~encode_state:(fun c s -> Mc.Codec.add_int c s)
      ~encode_msg:(fun c m -> Mc.Codec.add_int c m)
      ~clock:(fun () -> Mp.Network.deliveries net)
      g
  in
  Mp.Network.on_marker net (fun ~self ~from ~epoch ->
      Snapshot.Engine.handle_marker eng ~self ~from ~epoch);
  Mp.Network.on_deliver net (fun ~self ~from m ->
      Snapshot.Engine.tap eng ~self ~from m);
  eng

let drive_until_cut eng net sched_rng =
  let guard = ref 10_000 in
  while Snapshot.Engine.active eng && !guard > 0 do
    decr guard;
    ignore (Mp.Network.step net sched_rng);
    Snapshot.Engine.tick eng
  done;
  match Snapshot.Engine.take_completed eng with
  | [ cut ] -> cut
  | cuts -> Alcotest.failf "expected 1 cut, got %d" (List.length cuts)

let test_engine_empty_channels () =
  let g = Topology.Builders.ring 3 in
  let net = make_raw_net g in
  let eng = attach_raw net 42 g in
  Snapshot.Engine.initiate eng;
  let cut = drive_until_cut eng net (Prng.Splitmix.of_int 7) in
  Alcotest.(check bool) "shadow ok" true (Snapshot.Cut.shadow_ok cut);
  Alcotest.(check int) "no in-flight payloads" 0 (Snapshot.Cut.in_flight cut);
  Alcotest.(check int) "all 6 directed channels present" 6
    (List.length cut.Snapshot.Cut.channels);
  Array.iteri
    (fun p s -> Alcotest.(check int) "state captured" p s)
    cut.Snapshot.Cut.states

let test_engine_records_channel_state () =
  (* Messages planted in channels before the markers are exactly the
     channel state the cut must record (reliable FIFO, no traffic). *)
  let g = Topology.Builders.path 2 in
  let net = make_raw_net g in
  let eng = attach_raw net 42 g in
  Mp.Network.inject net ~from:1 ~into:0 11;
  Mp.Network.inject net ~from:1 ~into:0 22;
  Snapshot.Engine.initiate ~initiator:0 eng;
  (* initiator 0 recorded; channel 1→0 is being recorded and holds
     [11; 22] ahead of 1's marker *)
  let cut = drive_until_cut eng net (Prng.Splitmix.of_int 7) in
  Alcotest.(check bool) "shadow ok" true (Snapshot.Cut.shadow_ok cut);
  Alcotest.(check (list int)) "channel 1->0 recorded in order" [ 11; 22 ]
    (List.assoc (1, 0) cut.Snapshot.Cut.channels);
  Alcotest.(check (list int)) "channel 0->1 empty" []
    (List.assoc (0, 1) cut.Snapshot.Cut.channels)

let test_engine_stale_markers_ignored () =
  let g = Topology.Builders.ring 3 in
  let net = make_raw_net g in
  let eng = attach_raw net 42 g in
  let sched = Prng.Splitmix.of_int 7 in
  Snapshot.Engine.initiate eng;
  let cut1 = drive_until_cut eng net sched in
  (* flood stale markers for the finished epoch: they must be ignored *)
  let rng = Prng.Splitmix.of_int 5 in
  Mp.Network.send_marker net rng ~from:0 ~into:1
    ~epoch:cut1.Snapshot.Cut.epoch;
  Snapshot.Engine.initiate eng;
  let cut2 = drive_until_cut eng net sched in
  Alcotest.(check int) "second epoch" (cut1.Snapshot.Cut.epoch + 1)
    cut2.Snapshot.Cut.epoch;
  Alcotest.(check bool) "shadow still ok" true (Snapshot.Cut.shadow_ok cut2);
  let s = Snapshot.Engine.stats eng in
  Alcotest.(check int) "no abandonment" 0 s.Snapshot.Engine.abandoned

let test_engine_survives_loss () =
  (* Heavy marker loss: retransmission must still complete the cut. *)
  let g = Topology.Builders.ring 4 in
  let net = make_raw_net ~loss:0.4 g in
  let eng = attach_raw net 42 g in
  Snapshot.Engine.initiate eng;
  let cut = drive_until_cut eng net (Prng.Splitmix.of_int 7) in
  Alcotest.(check bool) "shadow ok under loss" true
    (Snapshot.Cut.shadow_ok cut)

(* ---------------- differential: in-band cuts vs omniscient ---------- *)

let differential_topologies =
  [
    ("ring:6", Topology.Builders.ring 6);
    ("path:5", Topology.Builders.path 5);
    ("caterpillar:4+1", Topology.Builders.caterpillar_tree ~spine:4 ~legs:1);
  ]

(* Drive an Ssmfp_mp system with the snapshot link attached, initiating
   every [every] deliveries, to quiescence; then complete one final cut.
   Returns (link, system, cuts, final cut). *)
let drive_linked ?(spec = Harness.Fault.pristine) ?(loss = 0.) ?(dup = 0.)
    ?(reorder = 0.) ~seed ~every g wl =
  let sys = Mp.Ssmfp_mp.create ~spec ~loss ~duplication:dup ~reorder ~seed g wl in
  let link = Snapshot.Ssmfp_link.attach ~seed sys in
  let cuts = ref [] in
  let next = ref every in
  let guard = ref 50_000 in
  let drained = ref false in
  (* short chunks so the engine ticks (and can retransmit markers)
     every few dozen deliveries *)
  while (not !drained) && !guard > 0 do
    decr guard;
    (match
       Mp.Ssmfp_mp.drive ~max_deliveries:64
         ~stop:(fun t ->
           Mp.Ssmfp_mp.all_drained t
           || Mp.Ssmfp_mp.channel_deliveries t >= !next)
         sys
     with
    | `Stopped | `Max_deliveries -> ()
    | `Idle -> drained := true);
    if Mp.Ssmfp_mp.channel_deliveries sys >= !next then begin
      Snapshot.Ssmfp_link.initiate link;
      next := Mp.Ssmfp_mp.channel_deliveries sys + every
    end;
    Snapshot.Ssmfp_link.tick link;
    cuts := !cuts @ Snapshot.Ssmfp_link.take_completed link;
    if Mp.Ssmfp_mp.all_drained sys then drained := true
  done;
  Alcotest.(check bool) "reached quiescence" true (Mp.Ssmfp_mp.all_drained sys);
  (* final cut at quiescence *)
  Snapshot.Ssmfp_link.initiate link;
  let guard = ref 5_000 in
  while Snapshot.Ssmfp_link.active link && !guard > 0 do
    decr guard;
    (match
       Mp.Ssmfp_mp.drive ~max_deliveries:64
         ~stop:(fun _ -> not (Snapshot.Ssmfp_link.active link))
         sys
     with
    | `Stopped | `Idle | `Max_deliveries -> ());
    Snapshot.Ssmfp_link.tick link
  done;
  let final =
    match Snapshot.Ssmfp_link.take_completed link with
    | [ c ] -> c
    | l -> Alcotest.failf "final snapshot: %d cuts" (List.length l)
  in
  (link, sys, !cuts @ [ final ], final)

let check_differential name ~loss ~dup ~reorder () =
  Ssmfp.Message.reset_ghost_counter ();
  List.iter
    (fun (tname, g) ->
      let n = Topology.Graph.n g in
      let wl =
        Harness.Workload.uniform_random
          (Prng.Splitmix.of_int 11)
          ~n ~per_processor:2
      in
      let link, sys, cuts, final =
        drive_linked ~loss ~dup ~reorder ~seed:3 ~every:200 g wl
      in
      let ctx = name ^ "/" ^ tname in
      Alcotest.(check bool) (ctx ^ ": got cuts") true (List.length cuts >= 2);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (ctx ^ ": every cut shadow-consistent")
            true (Snapshot.Cut.shadow_ok c))
        cuts;
      (* at quiescence the cores are stable: the final cut's core
         fingerprint must equal the omniscient live one *)
      Alcotest.(check bool)
        (ctx ^ ": final cut cores = live cores")
        true
        (Snapshot.Ssmfp_link.cut_cores_fingerprint final
        = Snapshot.Ssmfp_link.live_cores_fingerprint link);
      (* the final cut's union ledger carries the whole history: its
         replay must agree with the live omniscient oracle *)
      let live = Mp.Ssmfp_mp.oracle sys in
      let replayed = Snapshot.Oracle.replay final in
      Alcotest.(check int)
        (ctx ^ ": generated agree")
        (Harness.Oracle.valid_generated live)
        (Harness.Oracle.valid_generated replayed);
      Alcotest.(check int)
        (ctx ^ ": delivered agree")
        (Harness.Oracle.valid_delivered live)
        (Harness.Oracle.valid_delivered replayed);
      Alcotest.(check int)
        (ctx ^ ": invalid agree")
        (Harness.Oracle.invalid_delivered_total live)
        (Harness.Oracle.invalid_delivered_total replayed);
      (* the final (quiescent, full-history) cut is consistent *)
      Alcotest.(check bool)
        (ctx ^ ": final cut consistent")
        true
        (Snapshot.Ssmfp_link.consistent final))
    differential_topologies

let test_differential_reliable () =
  check_differential "reliable" ~loss:0. ~dup:0. ~reorder:0. ()

let test_differential_lossy () =
  check_differential "lossy" ~loss:0.15 ~dup:0.05 ~reorder:0.10 ()

let test_differential_flaky () =
  check_differential "flaky" ~loss:0.30 ~dup:0.10 ~reorder:0.20 ()

let test_differential_corrupted () =
  Ssmfp.Message.reset_ghost_counter ();
  let g = Topology.Builders.ring 6 in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 5) ~n:6
      ~per_processor:2
  in
  let spec = Harness.Fault.random_spec (Prng.Splitmix.of_int 9) in
  let _, sys, cuts, final =
    drive_linked ~spec ~loss:0.15 ~dup:0.05 ~reorder:0.10 ~seed:4 ~every:200 g
      wl
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) "corrupted start: shadow ok" true
        (Snapshot.Cut.shadow_ok c))
    cuts;
  let live = Mp.Ssmfp_mp.oracle sys in
  let replayed = Snapshot.Oracle.replay final in
  Alcotest.(check int) "corrupted: invalid deliveries agree"
    (Harness.Oracle.invalid_delivered_total live)
    (Harness.Oracle.invalid_delivered_total replayed)

(* The shadow fingerprint hashes copies frozen at each capture instant,
   so a write into a captured core's array after capture (the
   copy-on-write contract broken) shows as a stored/shadow mismatch,
   while the same run without the write stays shadow-ok. *)
let test_shadow_catches_write () =
  let run ~write =
    Ssmfp.Message.reset_ghost_counter ();
    let g = Topology.Builders.ring 4 in
    let wl =
      Harness.Workload.uniform_random (Prng.Splitmix.of_int 3) ~n:4
        ~per_processor:1
    in
    let sys = Mp.Ssmfp_mp.create ~seed:5 g wl in
    let link = Snapshot.Ssmfp_link.attach ~seed:5 sys in
    Snapshot.Ssmfp_link.initiate ~initiator:0 link;
    if write then begin
      let routing = (Mp.Ssmfp_mp.core sys 0).Ssmfp.State.routing in
      let e = routing.(1) in
      routing.(1) <-
        { e with Routing.Selfstab.dist = e.Routing.Selfstab.dist + 7 }
    end;
    let guard = ref 1_000 in
    while Snapshot.Ssmfp_link.active link && !guard > 0 do
      decr guard;
      ignore
        (Mp.Ssmfp_mp.drive ~max_deliveries:16
           ~stop:(fun _ -> not (Snapshot.Ssmfp_link.active link))
           sys);
      Snapshot.Ssmfp_link.tick link
    done;
    match Snapshot.Ssmfp_link.take_completed link with
    | [ c ] -> Snapshot.Cut.shadow_ok c
    | l -> Alcotest.failf "expected 1 cut, got %d" (List.length l)
  in
  Alcotest.(check bool) "untouched: shadow ok" true (run ~write:false);
  Alcotest.(check bool) "written after capture: mismatch" false
    (run ~write:true)

(* ---------------- cut-oracle vs omniscient over the chaos grid ------ *)

let test_verdict_agreement_grid () =
  let topologies =
    [ Topology.Builders.ring 6; Topology.Builders.path 5 ]
  in
  let specs =
    [ ("pristine", None); ("random", Some 17) ]
  in
  let schedules = [ "none"; "none@lossy"; "6:rb:2@lossy" ] in
  List.iter
    (fun g ->
      List.iter
        (fun (sname, sseed) ->
          List.iter
            (fun sched ->
              Ssmfp.Message.reset_ghost_counter ();
              let n = Topology.Graph.n g in
              let wl =
                Harness.Workload.uniform_random
                  (Prng.Splitmix.of_int 21)
                  ~n ~per_processor:2
              in
              let spec =
                match sseed with
                | None -> Harness.Fault.pristine
                | Some s ->
                    Harness.Fault.random_spec (Prng.Splitmix.of_int s)
              in
              let schedule = sched_exn sched in
              let aftermath =
                if schedule.Chaos.Schedule.bursts = [] then 0 else 2
              in
              let o =
                Chaos.Mp_run.run ~spec ~seed:5 ~aftermath ~snapshot_every:60
                  ~schedule g wl
              in
              let ctx =
                Printf.sprintf "%d-nodes/%s/%s" n sname sched
              in
              Alcotest.(check bool) (ctx ^ ": quiescent") true
                (o.Chaos.Mp_run.mp_outcome = `All_done);
              match o.Chaos.Mp_run.snapshot with
              | None -> Alcotest.fail (ctx ^ ": snapshot outcome missing")
              | Some s ->
                  Alcotest.(check bool) (ctx ^ ": cuts completed") true
                    (s.Chaos.Mp_run.cuts >= 1);
                  Alcotest.(check int) (ctx ^ ": all cuts shadow-ok")
                    s.Chaos.Mp_run.cuts s.Chaos.Mp_run.shadow_ok;
                  Alcotest.(check bool)
                    (ctx ^ ": cut verdict agrees with omniscient")
                    true s.Chaos.Mp_run.cut_agrees)
            schedules)
        specs)
    topologies

(* ---------------- marker-storm determinism ---------------- *)

let fingerprints_of_run () =
  Ssmfp.Message.reset_ghost_counter ();
  let g = Topology.Builders.ring 6 in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 2) ~n:6
      ~per_processor:2
  in
  let fps = ref [] in
  let o =
    Chaos.Mp_run.run ~seed:9 ~snapshot_every:50
      ~on_cut:(fun c -> fps := Snapshot.Ssmfp_link.fingerprint_hex c :: !fps)
      ~schedule:(sched_exn "none@flaky") g wl
  in
  (o, List.rev !fps)

let test_marker_storm_determinism () =
  let o1, fps1 = fingerprints_of_run () in
  let o2, fps2 = fingerprints_of_run () in
  Alcotest.(check bool) "some cuts" true (List.length fps1 >= 1);
  Alcotest.(check (list string)) "identical fingerprint sequences" fps1 fps2;
  Alcotest.(check int) "identical delivery counts"
    o1.Chaos.Mp_run.channel_deliveries o2.Chaos.Mp_run.channel_deliveries;
  Alcotest.(check int) "identical pulse horizon" o1.Chaos.Mp_run.max_pulse
    o2.Chaos.Mp_run.max_pulse

(* The CI mp chaos smoke (`chaos --model mp --topology ring:6 --schedule
   8:rb:2@lossy --snapshot-every 500`, CLI defaults: adversarial start, 2
   messages per process, aftermath 4, seed 1) against fingerprints
   recorded from an earlier build. Determinism within one build cannot
   catch a drift in the cut codec; this pin does. *)
let test_fingerprints_pinned () =
  Ssmfp.Message.reset_ghost_counter ();
  let g = Topology.Builders.ring 6 in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int (1 + 7919)) ~n:6
      ~per_processor:2
  in
  let fps = ref [] in
  let o =
    Chaos.Mp_run.run ~spec:Harness.Fault.adversarial ~seed:1 ~aftermath:4
      ~snapshot_every:500
      ~on_cut:(fun c -> fps := Snapshot.Ssmfp_link.fingerprint_hex c :: !fps)
      ~schedule:(sched_exn "8:rb:2@lossy") g wl
  in
  Alcotest.(check int) "channel deliveries" 6896
    o.Chaos.Mp_run.channel_deliveries;
  Alcotest.(check (list string)) "cut fingerprints"
    [
      "6d81ebc869539069"; "14ebec472d35f1a4"; "15f57db6d8e442c2";
      "24bd4f02be46e48f"; "12aa848654cc0d8c"; "66a4778bedaf57f4";
      "6359d3eacfaee121"; "74e14c12ef1d952c"; "1d17e25c1e9b2778";
      "1c65a8ac5d139dd2"; "7f5a88bfdf1b1a79"; "1a471d513708130f";
      "0e50c58768d78c2b"; "6c4c400023b36e7a";
    ]
    (List.rev !fps)

let test_snapshot_off_is_identical () =
  (* Attaching the layer without ever initiating must not perturb the
     run: same deliveries, same verdict, same oracle counts. *)
  let run attach =
    Ssmfp.Message.reset_ghost_counter ();
    let g = Topology.Builders.ring 5 in
    let wl =
      Harness.Workload.uniform_random (Prng.Splitmix.of_int 3) ~n:5
        ~per_processor:2
    in
    let sys =
      Mp.Ssmfp_mp.create ~loss:0.15 ~duplication:0.05 ~reorder:0.10 ~seed:8 g
        wl
    in
    if attach then ignore (Snapshot.Ssmfp_link.attach ~seed:8 sys);
    let r = Mp.Ssmfp_mp.run sys in
    ( r.Mp.Ssmfp_mp.channel_deliveries,
      r.Mp.Ssmfp_mp.max_pulse,
      r.Mp.Ssmfp_mp.verdict.Harness.Oracle.ok )
  in
  let d1, p1, v1 = run false and d2, p2, v2 = run true in
  Alcotest.(check int) "deliveries identical" d1 d2;
  Alcotest.(check int) "pulses identical" p1 p2;
  Alcotest.(check bool) "verdict identical" v1 v2

(* ---------------- online oracle ---------------- *)

let test_online_oracle_clean_run () =
  Ssmfp.Message.reset_ghost_counter ();
  let g = Topology.Builders.ring 6 in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 4) ~n:6
      ~per_processor:2
  in
  let o =
    Chaos.Mp_run.run ~seed:6 ~snapshot_every:60 ~schedule:(sched_exn "none") g
      wl
  in
  match o.Chaos.Mp_run.snapshot with
  | None -> Alcotest.fail "snapshot outcome missing"
  | Some s ->
      Alcotest.(check (list string)) "no online violations" []
        s.Chaos.Mp_run.online_violations;
      Alcotest.(check int) "reliable channels: every cut consistent"
        s.Chaos.Mp_run.cuts s.Chaos.Mp_run.consistent;
      Alcotest.(check bool) "no invalid traffic: no bracket" true
        (s.Chaos.Mp_run.relegitimacy_bracket = None);
      Alcotest.(check bool) "latencies recorded" true
        (List.length s.Chaos.Mp_run.cut_latencies = s.Chaos.Mp_run.cuts)

let test_cut_json () =
  Ssmfp.Message.reset_ghost_counter ();
  let g = Topology.Builders.ring 5 in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 4) ~n:5
      ~per_processor:1
  in
  let _, _, cuts, final = drive_linked ~seed:2 ~every:30 g wl in
  ignore cuts;
  let j = Snapshot.Ssmfp_link.cut_to_json final in
  (match Obs.Json.member "fingerprint" j with
  | Some (Obs.Json.String s) ->
      Alcotest.(check int) "fingerprint is 16 hex chars" 16 (String.length s)
  | _ -> Alcotest.fail "fingerprint field missing");
  match Obs.Json.member "shadow_ok" j with
  | Some (Obs.Json.Bool true) -> ()
  | _ -> Alcotest.fail "shadow_ok should be true"

let () =
  Alcotest.run "snapshot"
    [
      ( "codec",
        [
          Alcotest.test_case "deterministic" `Quick test_codec_deterministic;
          Alcotest.test_case "sensitive" `Quick test_codec_sensitive;
          Alcotest.test_case "core walk" `Quick test_codec_core_walk;
        ] );
      ( "engine",
        [
          Alcotest.test_case "empty channels" `Quick test_engine_empty_channels;
          Alcotest.test_case "records channel state" `Quick
            test_engine_records_channel_state;
          Alcotest.test_case "stale markers ignored" `Quick
            test_engine_stale_markers_ignored;
          Alcotest.test_case "survives loss" `Quick test_engine_survives_loss;
        ] );
      ( "differential",
        [
          Alcotest.test_case "reliable" `Quick test_differential_reliable;
          Alcotest.test_case "lossy" `Quick test_differential_lossy;
          Alcotest.test_case "flaky" `Quick test_differential_flaky;
          Alcotest.test_case "corrupted start" `Quick
            test_differential_corrupted;
          Alcotest.test_case "shadow catches write" `Quick
            test_shadow_catches_write;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "grid agreement" `Quick
            test_verdict_agreement_grid;
          Alcotest.test_case "online clean run" `Quick
            test_online_oracle_clean_run;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "marker storm" `Quick
            test_marker_storm_determinism;
          Alcotest.test_case "fingerprints pinned" `Quick
            test_fingerprints_pinned;
          Alcotest.test_case "snapshot-off identical" `Quick
            test_snapshot_off_is_identical;
        ] );
      ( "json",
        [ Alcotest.test_case "cut json" `Quick test_cut_json ] );
    ]
