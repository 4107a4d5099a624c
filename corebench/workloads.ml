(* The five workloads of the core bench suite.

   A job builds a fresh system from its job seed (set-up), runs it to
   completion (the measured work) and checks its outputs (verdict). Every
   workload is a closed loop: SSMFP raises a process's next request only
   after its previous message was generated, and the relay forwards a
   token only when it arrives. Layers are timed from outside, around the
   calls this file makes into their public functions; the library's own
   [Obs.Prof] instruments are switched on by passing [?prof] in traced
   jobs. *)

let now_s () = float_of_int (Obs.Clock.now_ns ()) *. 1e-9

type job = {
  setup_s : float;
  run_s : float;  (** the measured work: set-up and verdict excluded *)
  snapshot_s : float;  (** snapshot-layer calls made between drive chunks *)
  drain_check_s : float;  (** time in [all_drained]; traced jobs only *)
  verdict_s : float;
  ops : int;
      (** work completed: valid deliveries (mp, state), channel
          deliveries (relay) or explored configurations (mc) *)
  attempted : int;
  failed : int;
  problems : string list;
  minor_words : float;  (** minor-heap words allocated by the run phase *)
  layer : (string * float) list;
      (** per-job counts; every one is a deterministic function of the
          job seed *)
  pooled : (string * float list) list;  (** per-sample series *)
  final : (Topology.Graph.t * Ssmfp.State.t array) option;
      (** a configuration for the guard-evaluation kernel *)
}

(* The bench's own spans, recorded on track 0 next to the library's
   instruments. Against [Obs.Prof.disabled] every call is a no-op. *)
type spans = {
  prof : Obs.Prof.t;
  tr : Obs.Prof.track;
  sp_setup : Obs.Prof.span;
  sp_drive : Obs.Prof.span;
  sp_verdict : Obs.Prof.span;
}

let spans prof =
  {
    prof;
    tr = Obs.Prof.track prof 0;
    sp_setup = Obs.Prof.span prof "bench.setup";
    sp_drive = Obs.Prof.span prof "bench.drive";
    sp_verdict = Obs.Prof.span prof "bench.verdict";
  }

let timed sp span f =
  let p0 = Obs.Prof.now sp.prof in
  let t0 = now_s () in
  let r = f () in
  Obs.Prof.record sp.tr span ~start:p0;
  (r, now_s () -. t0)

(* Valid messages not delivered exactly once: lost, duplicated, or never
   generated. *)
let sp_failures oracle ~expected =
  let once =
    List.fold_left
      (fun acc (_, _, deliveries) ->
        if List.length deliveries = 1 then acc + 1 else acc)
      0
      (Harness.Oracle.ghost_views oracle)
  in
  max 0 (expected - once)

let oracle_layer oracle =
  [
    ("oracle.valid_delivered", float_of_int (Harness.Oracle.valid_delivered oracle));
    ( "oracle.invalid_delivered",
      float_of_int (Harness.Oracle.invalid_delivered_total oracle) );
    ( "oracle.duplicates",
      float_of_int (Harness.Oracle.duplicate_delivered_total oracle) );
  ]

(* ---------------------------------------------------------------- *)
(* SSMFP over the message-passing runtime (Mp.Ssmfp_mp)              *)

type mp = {
  topology : unit -> Topology.Graph.t;
  spec : Harness.Fault.spec;
  channel : Chaos.Schedule.channel;
  window : int;
  per_process : int;
  snapshot_every : int;  (** deliveries between snapshot epochs; 0 = none *)
  max_deliveries : int;
}

(* Deliveries between snapshot-engine ticks, Chaos.Mp_run's cadence. *)
let tick_chunk = 128

let mp_job cfg sp ~traced ~seed =
  let (g, t, link), setup_s =
    timed sp sp.sp_setup (fun () ->
        Ssmfp.Message.reset_ghost_counter ();
        let g = cfg.topology () in
        let n = Topology.Graph.n g in
        let wl =
          Harness.Workload.uniform_random (Prng.Splitmix.of_int seed) ~n
            ~per_processor:cfg.per_process
        in
        let k = Chaos.Schedule.channel_knobs cfg.channel in
        let t =
          Mp.Ssmfp_mp.create ~spec:cfg.spec ~loss:k.Chaos.Schedule.loss
            ~duplication:k.Chaos.Schedule.duplication
            ~reorder:k.Chaos.Schedule.reorder ~seed ~prof:sp.prof
            ~window:cfg.window g wl
        in
        let link =
          if cfg.snapshot_every > 0 then
            Some (Snapshot.Ssmfp_link.attach ~prof:sp.prof ~seed t)
          else None
        in
        (g, t, link))
  in
  let check_ns = ref 0 and snap_ns = ref 0 in
  let cuts = ref [] in
  let drained =
    if traced then fun t ->
      let c0 = Obs.Clock.now_ns () in
      let r = Mp.Ssmfp_mp.all_drained t in
      check_ns := !check_ns + (Obs.Clock.now_ns () - c0);
      r
    else Mp.Ssmfp_mp.all_drained
  in
  let (done_, minor_words), run_s =
    timed sp sp.sp_drive (fun () ->
        let w0 = Gc.minor_words () in
        let done_ =
          match link with
          | None ->
              Mp.Ssmfp_mp.drive ~max_deliveries:cfg.max_deliveries
                ~stop:drained t
              = `Stopped
          | Some link ->
              (* Chunked drive, as Chaos.Mp_run does it: stop every
                 [tick_chunk] deliveries to tick the snapshot engine,
                 start an epoch every [snapshot_every] deliveries and
                 harvest completed cuts. *)
              let next_init = ref cfg.snapshot_every and last_tick = ref 0 in
              let rec loop () =
                let spent = Mp.Ssmfp_mp.channel_deliveries t in
                if spent >= cfg.max_deliveries then false
                else begin
                  let bound = min !next_init (!last_tick + tick_chunk) in
                  let status =
                    Mp.Ssmfp_mp.drive
                      ~max_deliveries:(cfg.max_deliveries - spent)
                      ~stop:(fun t ->
                        drained t || Mp.Ssmfp_mp.channel_deliveries t >= bound)
                      t
                  in
                  let s0 = Obs.Clock.now_ns () in
                  let d = Mp.Ssmfp_mp.channel_deliveries t in
                  if d >= !next_init then begin
                    Snapshot.Ssmfp_link.initiate link;
                    next_init := d + cfg.snapshot_every
                  end;
                  if d >= !last_tick + tick_chunk then begin
                    last_tick := d;
                    Snapshot.Ssmfp_link.tick link
                  end;
                  cuts := List.rev_append (Snapshot.Ssmfp_link.take_completed link) !cuts;
                  snap_ns := !snap_ns + (Obs.Clock.now_ns () - s0);
                  match status with
                  | `Stopped -> drained t || loop ()
                  | `Idle | `Max_deliveries -> false
                end
              in
              loop ()
        in
        (done_, Gc.minor_words () -. w0))
  in
  let (problems, failed, layer, pooled), verdict_s =
    timed sp sp.sp_verdict (fun () ->
        let n = Topology.Graph.n g in
        let oracle = Mp.Ssmfp_mp.oracle t in
        let expected = Mp.Ssmfp_mp.expected_valid t in
        let verdict =
          Harness.Oracle.check_sp oracle ~expected_valid:expected ~n
            ~at_quiescence:done_
        in
        let cuts = List.rev !cuts in
        let torn = List.filter (fun c -> not (Snapshot.Cut.shadow_ok c)) cuts in
        let problems =
          (if done_ then []
           else [ Printf.sprintf "not drained in %d deliveries" cfg.max_deliveries ])
          @ verdict.Harness.Oracle.violations
          @ List.map
              (fun c ->
                Printf.sprintf "cut %d differs from its capture" c.Snapshot.Cut.epoch)
              torn
        in
        let cs = Mp.Ssmfp_mp.channel_stats t in
        let pulse_sum = ref 0 in
        for p = 0 to n - 1 do
          pulse_sum := !pulse_sum + Mp.Ssmfp_mp.pulse_of t p
        done;
        let snapshot_layer =
          match link with
          | None -> []
          | Some link ->
              let st = Snapshot.Ssmfp_link.stats link in
              let ms = Snapshot.Ssmfp_link.marker_stats link in
              [
                ("snapshot.epochs", float_of_int st.Snapshot.Engine.epochs_started);
                ("snapshot.cuts", float_of_int (List.length cuts));
                ( "snapshot.consistent",
                  float_of_int
                    (List.length (List.filter Snapshot.Ssmfp_link.consistent cuts)) );
                ("snapshot.markers_sent", float_of_int ms.Mp.Ssmfp_mp.m_sent);
                ("snapshot.markers_dropped", float_of_int ms.Mp.Ssmfp_mp.m_dropped);
              ]
        in
        let layer =
          [
            ("mp.max_pulse", float_of_int (Mp.Ssmfp_mp.max_pulse t));
            ("mp.pulse_sum", float_of_int !pulse_sum);
            ("oracle.rounds", float_of_int (Mp.Ssmfp_mp.max_pulse t));
            ("topology.diameter", float_of_int (Topology.Metrics.diameter g));
            ("net.deliveries", float_of_int cs.Mp.Ssmfp_mp.delivered);
            ("net.lost", float_of_int cs.Mp.Ssmfp_mp.lost);
            ("net.duplicated", float_of_int cs.Mp.Ssmfp_mp.duplicated);
            ("net.reordered", float_of_int cs.Mp.Ssmfp_mp.reordered);
            ( "net.samples_lost",
              float_of_int (Mp.Ssmfp_mp.prof_overwrites t).Mp.Network.samples_lost );
            ("window.retransmits", float_of_int (Mp.Ssmfp_mp.window_retransmits t));
          ]
          @ oracle_layer oracle @ snapshot_layer
        in
        let pooled =
          [
            ("oracle.latency_rounds", Harness.Oracle.latencies oracle);
            ( "snapshot.cut_latency",
              List.map (fun c -> float_of_int (Snapshot.Cut.latency c)) cuts );
          ]
        in
        (problems, sp_failures oracle ~expected, layer, pooled))
  in
  {
    setup_s;
    run_s;
    snapshot_s = float_of_int !snap_ns *. 1e-9;
    drain_check_s = float_of_int !check_ns *. 1e-9;
    verdict_s;
    ops = Harness.Oracle.valid_delivered (Mp.Ssmfp_mp.oracle t);
    attempted = Mp.Ssmfp_mp.expected_valid t;
    failed;
    problems;
    minor_words;
    layer;
    pooled;
    final =
      Some (g, Array.init (Topology.Graph.n g) (Mp.Ssmfp_mp.core t));
  }

(* ---------------------------------------------------------------- *)
(* Bare Mp.Network: b4's deterministic token relay                   *)

type relay = { ring : int; tokens : int; target : int }

let relay_job cfg sp ~traced:_ ~seed =
  let (net, rng), setup_s =
    timed sp sp.sp_setup (fun () ->
        let g = Topology.Builders.ring cfg.ring in
        let nbrs =
          Array.init cfg.ring (fun p -> Array.of_list (Topology.Graph.neighbors g p))
        in
        (* Forward a token to the ring neighbor it did not come from, so
           tokens orbit without handler draws. *)
        let handler ~self ~from () () =
          let ns = nbrs.(self) in
          ((), [ ((if ns.(0) = from then ns.(1) else ns.(0)), ()) ])
        in
        let net =
          Mp.Network.create ~prof:sp.prof ~init:(fun _ -> ()) ~handler g
        in
        let rng = Prng.Splitmix.of_int seed in
        for p = 0 to cfg.tokens - 1 do
          let ns = nbrs.(p) in
          Mp.Network.inject net ~from:p
            ~into:ns.(Prng.Splitmix.int rng (Array.length ns))
            ()
        done;
        (net, rng))
  in
  let minor_words, run_s =
    timed sp sp.sp_drive (fun () ->
        let w0 = Gc.minor_words () in
        while
          Mp.Network.deliveries net < cfg.target && Mp.Network.step net rng
        do
          ()
        done;
        Gc.minor_words () -. w0)
  in
  let (problems, layer), verdict_s =
    timed sp sp.sp_verdict (fun () ->
        let d = Mp.Network.deliveries net in
        let problems =
          (if d = cfg.target then []
           else [ Printf.sprintf "%d of %d deliveries" d cfg.target ])
          @
          if Mp.Network.in_flight net = cfg.tokens then []
          else
            [
              Printf.sprintf "%d tokens in flight, expected %d"
                (Mp.Network.in_flight net) cfg.tokens;
            ]
        in
        ( problems,
          [
            ("net.deliveries", float_of_int d);
            ( "net.samples_lost",
              float_of_int (Mp.Network.prof_overwrites net).Mp.Network.samples_lost );
          ] ))
  in
  {
    setup_s;
    run_s;
    snapshot_s = 0.;
    drain_check_s = 0.;
    verdict_s;
    ops = Mp.Network.deliveries net;
    attempted = cfg.target;
    failed = max 0 (cfg.target - Mp.Network.deliveries net);
    problems;
    minor_words;
    layer;
    pooled = [];
    final = None;
  }

(* ---------------------------------------------------------------- *)
(* The state model: Harness.Runner over Sim.Engine                   *)

type state = { rows : int; per_process : int }

let state_job cfg sp ~traced:_ ~seed =
  let cfg', setup_s =
    timed sp sp.sp_setup (fun () ->
        Ssmfp.Message.reset_ghost_counter ();
        let g = Topology.Builders.torus ~rows:cfg.rows ~cols:cfg.rows in
        let wl =
          Harness.Workload.uniform_random (Prng.Splitmix.of_int seed)
            ~n:(Topology.Graph.n g) ~per_processor:cfg.per_process
        in
        Harness.Runner.config ~spec:Harness.Fault.adversarial
          ~daemon:Harness.Runner.Synchronous ~seed ~max_steps:5_000_000 g wl)
  in
  let res, run_s = timed sp sp.sp_drive (fun () -> Harness.Runner.run cfg') in
  let (problems, failed, layer), verdict_s =
    timed sp sp.sp_verdict (fun () ->
        let g = cfg'.Harness.Runner.graph in
        let oracle = res.Harness.Runner.oracle in
        let stats = res.Harness.Runner.stats in
        let problems =
          (if res.Harness.Runner.outcome = `Quiescent then []
           else [ "not quiescent within the step budget" ])
          @ res.Harness.Runner.verdict.Harness.Oracle.violations
        in
        let frontier =
          match
            Obs.Metrics.histogram_summary res.Harness.Runner.metrics
              "engine.frontier_size"
          with
          | Some s -> s.Obs.Metrics.mean
          | None -> 0.
        in
        ( problems,
          sp_failures oracle ~expected:res.Harness.Runner.submitted,
          [
            ("engine.steps", float_of_int stats.Sim.Engine.steps);
            ("engine.rounds", float_of_int stats.Sim.Engine.rounds);
            ("engine.moves", float_of_int stats.Sim.Engine.moves);
            ("engine.frontier_mean", frontier);
            ("oracle.rounds", float_of_int stats.Sim.Engine.rounds);
            ("topology.diameter", float_of_int (Topology.Metrics.diameter g));
          ]
          @ oracle_layer oracle ))
  in
  let oracle = res.Harness.Runner.oracle in
  {
    setup_s;
    run_s;
    snapshot_s = 0.;
    drain_check_s = 0.;
    verdict_s;
    ops = Harness.Oracle.valid_delivered oracle;
    attempted = res.Harness.Runner.submitted;
    failed;
    problems;
    minor_words = 0.;
    layer;
    pooled = [ ("oracle.latency_rounds", Harness.Oracle.latencies oracle) ];
    final =
      Some
        ( cfg'.Harness.Runner.graph,
          Array.copy res.Harness.Runner.final_net.Sim.Engine.states );
  }

(* ---------------------------------------------------------------- *)
(* The model checker: Mc.Explore over Mc.Par and Mc.Store            *)

type mc = { scenario : Mc.Explore.scenario; samples : int; warmup : int }

let mc_check ?(prof = Obs.Prof.disabled) cfg ~workers inits =
  Mc.Explore.check_safety ~workers ~por:true ~prof cfg.scenario inits

(* The pinned verdict: SP holds on every sampled start. *)
let mc_verdict (r : Mc.Explore.safety_report) =
  (if r.Mc.Explore.duplicate_delivery then [ "duplicate delivery reachable" ] else [])
  @ (match r.Mc.Explore.lost_valid with
    | Some c -> [ "valid message lost: " ^ c ]
    | None -> [])
  @
  match r.Mc.Explore.deadlock with Some c -> [ "deadlock: " ^ c ] | None -> []

let mc_inits cfg ~seed =
  Mc.Explore.sample_initials (Prng.Splitmix.of_int seed) ~count:cfg.samples
    cfg.scenario

let mc_job cfg sp ~traced:_ ~seed =
  let inits, setup_s = timed sp sp.sp_setup (fun () -> mc_inits cfg ~seed) in
  let r, run_s =
    timed sp sp.sp_drive (fun () -> mc_check ~prof:sp.prof cfg ~workers:1 inits)
  in
  let problems, verdict_s = timed sp sp.sp_verdict (fun () -> mc_verdict r) in
  let v = r.Mc.Explore.visited in
  {
    setup_s;
    run_s;
    snapshot_s = 0.;
    drain_check_s = 0.;
    verdict_s;
    ops = r.Mc.Explore.explored;
    attempted = 1;
    failed = (if problems = [] then 0 else 1);
    problems;
    minor_words = 0.;
    layer =
      [
        ("mc.explored", float_of_int r.Mc.Explore.explored);
        ("mc.transitions", float_of_int r.Mc.Explore.transitions);
        ( "mc.resident_bytes",
          float_of_int (v.Mc.Store.key_bytes + v.Mc.Store.table_bytes) );
        ("mc.store_load", v.Mc.Store.load);
      ];
    pooled = [];
    final =
      (match inits with
      | first :: _ -> Some (cfg.scenario.Mc.Explore.graph, first)
      | [] -> None);
  }

(* Traced runs repeat the job's search at two workers: its throughput,
   its work-stealing counters, the share of its wall-clock the checker's
   own spans cover, and the determinism rule (the report must not
   depend on the worker count). *)
let mc_w2 cfg sp ~seed (w1 : job) =
  let inits = mc_inits cfg ~seed in
  let counter name = Obs.Prof.counter_total sp.prof (Obs.Prof.counter sp.prof name) in
  let own () =
    List.fold_left
      (fun acc s ->
        acc + Obs.Prof.span_total sp.prof ~track:0 (Obs.Prof.span sp.prof s))
      0
      [ "mc.roots"; "mc.run"; "mc.reduce" ]
  in
  let names = [ "mc.steals"; "mc.steal_fail"; "mc.idle_ns" ] in
  let before = List.map counter names and own0 = own () in
  let r, s = timed sp sp.sp_drive (fun () -> mc_check ~prof:sp.prof cfg ~workers:2 inits) in
  let delta = List.map2 (fun name b -> counter name - b) names before in
  let get name = float_of_int (List.assoc name (List.combine names delta)) in
  let explored = float_of_int r.Mc.Explore.explored in
  let problems =
    mc_verdict r
    @
    if
      r.Mc.Explore.explored = w1.ops
      && float_of_int r.Mc.Explore.transitions
         = List.assoc "mc.transitions" w1.layer
    then []
    else [ "the 2-worker report differs from the 1-worker report" ]
  in
  ( [
      ("mc.w2_configs_per_s", explored /. s);
      ("mc.steals", get "mc.steals");
      ("mc.steal_fail", get "mc.steal_fail");
      ("mc.idle_ms", get "mc.idle_ns" *. 1e-6);
      ("mc.attribution_pct", 100. *. float_of_int (own () - own0) *. 1e-9 /. s);
    ],
    problems )

(* ---------------------------------------------------------------- *)
(* The suite                                                         *)

type t = {
  name : string;
  tracks : int;  (** profiler tracks a traced run needs *)
  warmup : unit -> unit;  (** untimed, once per process *)
  job : spans -> traced:bool -> seed:int -> job;
  extra : (spans -> seed:int -> job -> (string * float) list * string list) option;
      (** traced runs only: one more measurement per job seed *)
  window_kernel : bool;
  suite_jobs : int;  (** jobs per workload in a [core] suite run *)
}

let all ~quick =
  let pick full small = if quick then small else full in
  let mp_ring =
    {
      topology = (fun () -> Topology.Builders.ring (pick 32 6));
      spec = Harness.Fault.pristine;
      channel = Chaos.Schedule.Reliable;
      window = 8;
      per_process = pick 8 1;
      snapshot_every = 0;
      max_deliveries = 20_000_000;
    }
  in
  let mp_torus =
    {
      topology =
        (fun () ->
          let r = pick 4 3 in
          Topology.Builders.torus ~rows:r ~cols:r);
      spec = Harness.Fault.adversarial;
      channel = Chaos.Schedule.Lossy;
      window = 8;
      per_process = pick 4 1;
      snapshot_every = pick 100_000 5_000;
      max_deliveries = 20_000_000;
    }
  in
  let relay =
    { ring = pick 1000 20; tokens = pick 1000 20; target = pick 2_000_000 20_000 }
  in
  let state = { rows = pick 6 3; per_process = pick 2 1 } in
  let mc =
    {
      scenario = Mc.Explore.three_chain;
      samples = pick 6_000 60;
      warmup = pick 600 0;
    }
  in
  let mp_workload name cfg suite_jobs =
    {
      name;
      tracks = 1;
      warmup = ignore;
      job = mp_job cfg;
      extra = None;
      window_kernel = true;
      suite_jobs;
    }
  in
  [
    mp_workload "mp-ring32-reliable" mp_ring (pick 16 1);
    mp_workload "mp-torus4-lossy-adversarial" mp_torus (pick 12 1);
    {
      name = "net-relay-ring1000";
      tracks = 1;
      warmup = ignore;
      job = relay_job relay;
      extra = None;
      window_kernel = false;
      suite_jobs = pick 8 1;
    };
    {
      name = "state-torus6-adversarial";
      tracks = 1;
      warmup = ignore;
      job = state_job state;
      extra = None;
      window_kernel = false;
      suite_jobs = pick 6 1;
    };
    {
      name = "mc-3chain-sampled";
      tracks = 2;
      warmup =
        (fun () ->
          if mc.warmup > 0 then
            ignore
              (mc_check mc ~workers:1
                 (Mc.Explore.sample_initials (Prng.Splitmix.of_int 0)
                    ~count:mc.warmup mc.scenario)));
      job = mc_job mc;
      extra = Some (mc_w2 mc);
      window_kernel = false;
      suite_jobs = pick 6 1;
    };
  ]

(* ---------------------------------------------------------------- *)
(* Kernels: one layer function timed in isolation                    *)

let repeat_for ~min_s f =
  let t0 = now_s () in
  let calls = ref 0 in
  while now_s () -. t0 < min_s do
    calls := !calls + f ()
  done;
  (now_s () -. t0) /. float_of_int !calls

(* One [Ssmfp.Protocol] guard evaluation on a synthetic net of the
   workload's size, in microseconds. *)
let enabled_us ~min_s (g, states) =
  let proto = Ssmfp.Protocol.make g in
  let net = Sim.Engine.synthetic ~graph:g ~states in
  let n = Array.length states in
  1e6
  *. repeat_for ~min_s (fun () ->
         for p = 0 to n - 1 do
           ignore (Sys.opaque_identity (proto.Sim.Engine.enabled net p))
         done;
         n)

(* One Mp.Window frame round trip at window 8 — send, on_data, on_ack —
   in nanoseconds. *)
let window_frame_ns ~min_s =
  let s = Mp.Window.sender 8 and r = Mp.Window.receiver 8 in
  let i = ref 0 in
  1e9
  *. repeat_for ~min_s (fun () ->
         for _ = 1 to 1000 do
           incr i;
           List.iter
             (function
               | Mp.Window.Data { epoch; seq; body } -> (
                   match snd (Mp.Window.on_data r ~epoch ~seq body) with
                   | Mp.Window.Ack { epoch; cum; nak } ->
                       ignore (Mp.Window.on_ack s ~epoch ~cum ~nak)
                   | Mp.Window.Data _ -> ())
               | Mp.Window.Ack _ -> ())
             (Mp.Window.send s !i)
         done;
         1000)
