type public = {
  pub_routing : Routing.Selfstab.state;
  pub_bufs : Ssmfp.State.slot array;
}

type payload = Snapshot of int * public * public option

(* [prev] is the public state p's last barrier read, the state its
   neighbors need for pulse [pulse - 1]; [None] when p reached [pulse]
   by adoption or has not left its starting pulse. *)
type proc = { core : Ssmfp.State.t; pulse : int; prev : public option }

type event_hook = pid:int -> pulse:int -> Ssmfp.Protocol.event -> unit

type barrier_hook =
  pid:int ->
  Ssmfp.State.t Sim.Engine.net ->
  Ssmfp.Protocol.action option ->
  unit

type sync_stats = { barriers : int; adoptions : int; max_jump : int }

(* The synchronizer's accounting; only the handler writes it. *)
type sync = {
  mutable s_max_pulse : int;
  mutable s_barriers : int;
  mutable s_adoptions : int;
  mutable s_max_jump : int;
}

type t = {
  graph : Topology.Graph.t;
  (* Payloads ride sliding-window Data frames; acks share the channels. *)
  net : (proc, payload Window.frame) Network.t;
  rng : Prng.Splitmix.t;
  oracle : Harness.Oracle.t;
  expected_valid : int;
  sync : sync;
  on_event : event_hook option ref;
  on_barrier : barrier_hook option ref;
  drain_witness : int ref; (* last process seen busy by [all_drained] *)
  window : int;
  (* Sender/receiver state per directed channel, indexed [p].[slot] with
     slot the index of the neighbor in [nbrs.(p)]. *)
  nbrs : int array array;
  win_send : payload Window.sender array array;
  win_recv : payload Window.receiver array array;
}

type channel_stats = {
  delivered : int;
  lost : int;
  duplicated : int;
  reordered : int;
  dropped_while_down : int;
}

type result = {
  outcome : [ `All_done | `Max_deliveries ];
  channel_deliveries : int;
  max_pulse : int;
  oracle : Harness.Oracle.t;
  verdict : Harness.Oracle.verdict;
}

(* Cores are copy-on-write ([State.with_slot], [Selfstab.apply] and every
   fault injector build fresh arrays), so a snapshot shares them. *)
let public_of (core : Ssmfp.State.t) =
  { pub_routing = core.Ssmfp.State.routing; pub_bufs = core.Ssmfp.State.slots }

let publish proc = Snapshot (proc.pulse, public_of proc.core, proc.prev)

(* Stands in for every state a barrier at p never reads: non-neighbors in
   the guard view, and neighbors p holds no snapshot from. Its arrays are
   empty, so a read outside p's closed neighborhood fails loudly. *)
let unread =
  {
    Ssmfp.State.routing = [||];
    slots = [||];
    rr = 0;
    request = false;
    outbox = [];
  }

(* The State.t a guard reads for a neighbor, over its published arrays.
   Fields p never reads from a neighbor (rr, request, outbox) are
   placeholders. *)
let mirror pub =
  { unread with Ssmfp.State.routing = pub.pub_routing; slots = pub.pub_bufs }

let no_snapshot = (-1, unread)

(* [mirrors.(p)] holds, at index [slot], what p knows of neighbor
   [nbrs.(p).(slot)] as (pulse, mirror) pairs: [now] for p's own pulse
   c, [ahead] for c + 1. A neighbor is never more than one pulse ahead
   unless it adopted, so these are the only two states a barrier at p
   can still use; a pair whose pulse is not the one its place stands
   for is empty. A barrier or an adoption promotes [ahead] into [now]. *)
type mirrors = {
  now : (int * Ssmfp.State.t) array;
  ahead : (int * Ssmfp.State.t) array;
}

let no_mirrors nbrs =
  let none () = Array.map (fun _ -> no_snapshot) nbrs in
  { now = none (); ahead = none () }

let promote m =
  Array.blit m.ahead 0 m.now 0 (Array.length m.now);
  Array.fill m.ahead 0 (Array.length m.ahead) no_snapshot

let barrier_ready m proc = Array.for_all (fun (k, _) -> k = proc.pulse) m.now

let make_handler g nbrs mirrors oracle sync prof hook_ref barrier_hook_ref =
  let n = Topology.Graph.n g in
  (* One guard cache per instance, never shared across domains. *)
  let cache = Ssmfp.Protocol.Cache.create g in
  let proto = Ssmfp.Protocol.make g in
  let prof_on = Obs.Prof.enabled prof in
  let ptr = Obs.Prof.track prof 0 in
  let c_barriers = Obs.Prof.counter prof "mp.barriers" in
  let c_adoptions = Obs.Prof.counter prof "mp.adoptions" in
  let c_checks = Obs.Prof.counter prof "mp.guard_checks" in
  let c_recomputes = Obs.Prof.counter prof "mp.guard_recomputes" in
  (* The guard view, one per instance (campaigns run instances on
     parallel domains): p's core and its neighbors' mirrors are written
     in for one barrier and reset afterwards, O(deg) writes. *)
  let view = Array.make n unread in
  let net = Sim.Engine.synthetic ~graph:g ~states:view in
  let execute_barrier ~self proc =
    (* Raise request_p if the higher layer has pending traffic. *)
    let core =
      if Ssmfp.State.wants_request proc.core then begin
        Harness.Oracle.observe_request_raised oracle ~round:proc.pulse ~pid:self;
        { proc.core with Ssmfp.State.request = true }
      end
      else proc.core
    in
    view.(self) <- core;
    Array.iteri
      (fun slot q -> view.(q) <- snd mirrors.(self).now.(slot))
      nbrs.(self);
    let checks = Ssmfp.Protocol.Cache.checks cache in
    let recomputes = Ssmfp.Protocol.Cache.recomputes cache in
    let choice = Ssmfp.Protocol.Cache.first_enabled cache net ~p:self in
    if prof_on then begin
      Obs.Prof.add ptr c_checks (Ssmfp.Protocol.Cache.checks cache - checks);
      Obs.Prof.add ptr c_recomputes
        (Ssmfp.Protocol.Cache.recomputes cache - recomputes)
    end;
    (match !barrier_hook_ref with
    | None -> ()
    | Some f -> f ~pid:self net choice);
    let core' =
      match choice with
      | None -> core
      | Some action ->
          let core', events = proto.Sim.Engine.apply net self action in
          List.iter
            (fun ev ->
              Harness.Oracle.observe oracle ~round:proc.pulse ~pid:self ev;
              (* The in-band observer: each process's local event ledger
                 (the snapshot layer's) sees exactly what the omniscient
                 oracle sees, but attributed to the acting process. *)
              match !hook_ref with
              | None -> ()
              | Some f -> f ~pid:self ~pulse:proc.pulse ev)
            events;
          core'
    in
    view.(self) <- unread;
    Array.iter (fun q -> view.(q) <- unread) nbrs.(self);
    promote mirrors.(self);
    sync.s_barriers <- sync.s_barriers + 1;
    if prof_on then Obs.Prof.add ptr c_barriers 1;
    let proc =
      { core = core'; pulse = proc.pulse + 1; prev = Some (public_of core) }
    in
    if proc.pulse > sync.s_max_pulse then sync.s_max_pulse <- proc.pulse;
    proc
  in
  (* Jump to pulse [k], skipping p's barriers up to it: only when p can
     no longer obtain some neighbor's state at its own pulse. *)
  let adopt ~self proc k =
    promote mirrors.(self);
    sync.s_adoptions <- sync.s_adoptions + 1;
    sync.s_max_jump <- max sync.s_max_jump (k - proc.pulse);
    if prof_on then Obs.Prof.add ptr c_adoptions 1;
    { proc with pulse = k; prev = None }
  in
  let handler ~self ~slot proc (Snapshot (k, pub, prev)) =
    let m = mirrors.(self) in
    let sends = ref [] in
    let broadcast proc =
      let msg = publish proc in
      sends :=
        !sends @ List.map (fun q -> (q, msg)) (Topology.Graph.neighbors g self)
    in
    (* A gap of 2 or more, or a one-pulse lead with no way left to learn
       the neighbor's state at p's pulse, is a real gap: adopt. *)
    let proc =
      let c = proc.pulse in
      if
        k > c + 1 || (k = c + 1 && Option.is_none prev && fst m.now.(slot) <> c)
      then begin
        let proc = adopt ~self proc k in
        broadcast proc;
        proc
      end
      else proc
    in
    let c = proc.pulse in
    if k = c then m.now.(slot) <- (k, mirror pub)
    else if k = c + 1 then begin
      m.ahead.(slot) <- (k, mirror pub);
      (* The state the sender's own barrier read is its pulse-c state. *)
      match prev with Some pr -> m.now.(slot) <- (c, mirror pr) | None -> ()
    end;
    (* Complete as many barriers as the stored snapshots allow. *)
    let rec drain proc =
      if barrier_ready m proc then begin
        let proc = execute_barrier ~self proc in
        broadcast proc;
        drain proc
      end
      else proc
    in
    let proc = drain proc in
    (proc, !sends)
  in
  handler

(* Slot of neighbor [q] in [ns]: a closed top-level probe, so the lookup
   on every frame sent or received allocates no closure. *)
let rec slot_in ns q i =
  if i >= Array.length ns then invalid_arg "Ssmfp_mp: not a neighbor"
  else if ns.(i) = q then i
  else slot_in ns q (i + 1)

let create ?(spec = Harness.Fault.pristine) ?(channel_garbage = 0)
    ?(loss = 0.) ?(duplication = 0.) ?(reorder = 0.) ?(seed = 1)
    ?(prof = Obs.Prof.disabled) ?(window = 8) ?synchrony graph workload =
  if window < 1 then invalid_arg "Ssmfp_mp.create: window must be >= 1";
  let master = Prng.Splitmix.of_int seed in
  let fault_rng = Prng.Splitmix.split master in
  let sched_rng = Prng.Splitmix.split master in
  let garbage_rng = Prng.Splitmix.split master in
  let oracle = Harness.Oracle.create () in
  let on_event = ref None in
  let on_barrier = ref None in
  let n = Topology.Graph.n graph in
  let nbrs =
    Array.init n (fun p -> Array.of_list (Topology.Graph.neighbors graph p))
  in
  let mirrors = Array.map no_mirrors nbrs in
  let sync =
    { s_max_pulse = 0; s_barriers = 0; s_adoptions = 0; s_max_jump = 0 }
  in
  let inner =
    make_handler graph nbrs mirrors oracle sync prof on_event on_barrier
  in
  let slot_of self q = slot_in nbrs.(self) q 0 in
  let win_send =
    Array.init n (fun p -> Array.map (fun _ -> Window.sender window) nbrs.(p))
  in
  let win_recv =
    Array.init n (fun p -> Array.map (fun _ -> Window.receiver window) nbrs.(p))
  in
  let init p =
    {
      core = Harness.Fault.initial_states ~rng:fault_rng spec graph ~workload p;
      pulse = 0;
      prev = None;
    }
  in
  let prof_on = Obs.Prof.enabled prof in
  let ptr = Obs.Prof.track prof 0 in
  let c_retrans = Obs.Prof.counter prof "mp.retransmissions" in
  let drain_witness = ref 0 in
  (* RTO from the synchrony model: after GST any frame (and its ack) is
     delivered within delta + C steps, so 2 * (delta + C) between
     retransmissions guarantees each RTO round trips — see the liveness
     note in window.mli. Asynchronously there is no delivery bound, but
     the scheduler delivers one message per step, so the round trip is
     at least the in-flight count: an RTO below the channel count
     retransmits into its own queue and the resends snowball. The base
     RTO therefore scales with the channel count, and on top of it each
     channel backs off exponentially — consecutive fires without an
     intervening ack double the channel's RTO (an ack resets it) — so
     even a mis-sized base converges instead of storming. *)
  let channels = 2 * List.length (Topology.Graph.edges graph) in
  let rto =
    match synchrony with
    | Some sy -> 2 * (Synchrony.delta sy + channels)
    | None -> max 64 channels
  in
  let rto_cap = rto * 1024 in
  (* The refresh floor keeps the steady-state republish load (two
     frames per channel per period) well under the one-delivery-per-step
     the scheduler can serve, leaving idle gaps where channels actually
     drain. *)
  let refresh_every = max (8 * rto) (16 * channels) in
  (* Liveness comes from per-channel RTO timers and a slow per-process
     refresh timer on the network's wheel, both deterministic.
     Snapshots ride Data frames; acks flow back on the reverse
     channels. *)
  let refresh_key p = Array.length nbrs.(p) in
  let net_ref = ref None in
  let the_net () = match !net_ref with Some n -> n | None -> assert false in
  let count_retrans k = if prof_on && k > 0 then Obs.Prof.add ptr c_retrans k in
  (* Per-channel adaptive RTO: doubles on every fire that found the
     window still busy, resets to the base on any ack from the peer. *)
  let rto_cur = Array.init n (fun p -> Array.map (fun _ -> rto) nbrs.(p)) in
  (* Ensure the RTO timer for channel self -> nbrs.(self).(slot) is
     armed iff the sender has frames in flight or backlog. The armed
     delay is load-adaptive: the scheduler delivers one message per
     step, so a frame's round trip is at least the network's current
     in-flight count — arming below that would retransmit a frame
     that is still queued. *)
  let sync_rto self slot =
    let net = the_net () in
    if Window.busy win_send.(self).(slot) then begin
      if not (Network.timer_armed net ~self ~key:slot) then
        Network.arm_timer net ~self ~key:slot
          ~after:(max rto_cur.(self).(slot) (2 * Network.in_flight net))
    end
    else Network.cancel_timer net ~self ~key:slot
  in
  (* Route one payload into the window of channel self -> q.
     Snapshots are full-state, so the backlog is conflated to the
     newest payload: a congested channel then carries the peer's
     *current* state with bounded lag instead of an ever-growing
     queue of stale pulses, which starves the receiver's barriers.
     A conflated snapshot a neighbor still needs rides along in the
     next one as its [prev]. *)
  let win_push self q pay =
    let slot = slot_of self q in
    let before = Window.retransmits win_send.(self).(slot) in
    let frames = Window.send_latest win_send.(self).(slot) pay in
    count_retrans (Window.retransmits win_send.(self).(slot) - before);
    sync_rto self slot;
    List.map (fun fr -> (q, fr)) frames
  in
  let route_sends self sends =
    List.concat_map (fun (q, pay) -> win_push self q pay) sends
  in
  let handler ~self ~from proc msg =
    match msg with
    | Window.Ack { epoch; cum; nak } ->
        let slot = slot_of self from in
        let snd = win_send.(self).(slot) in
        let before = Window.retransmits snd in
        let frames = Window.on_ack snd ~epoch ~cum ~nak in
        count_retrans (Window.retransmits snd - before);
        (* the peer acks, so the channel round-trips at the base RTO *)
        rto_cur.(self).(slot) <- rto;
        sync_rto self slot;
        (proc, List.map (fun fr -> (from, fr)) frames)
    | Window.Data { epoch; seq; body } ->
        let slot = slot_of self from in
        let accepted, reply =
          Window.on_data win_recv.(self).(slot) ~epoch ~seq body
        in
        let proc, sends =
          List.fold_left
            (fun (proc, acc) pay ->
              let proc, s = inner ~self ~slot proc pay in
              (proc, acc @ s))
            (proc, []) accepted
        in
        (proc, (from, reply) :: route_sends self sends)
  in
  (* Crash–recovery amnesia: the synchronizer's volatile state (neighbor
     mirrors, window state, RTOs) is lost; the SSMFP core and the pulse
     counter are on stable storage. The timers republish and the
     barriers rebuild the mirrors. The recovery also repoints the
     drain-witness cache at the recovered process: recovery rebuilds
     traffic there, so [all_drained]'s O(1) check keeps hitting a busy
     process instead of rescanning from 0 after every crash burst. *)
  let on_recover ~self proc =
    Array.iter Window.reset_sender win_send.(self);
    Array.iter Window.reset_receiver win_recv.(self);
    Array.iteri (fun slot _ -> rto_cur.(self).(slot) <- rto) rto_cur.(self);
    Array.iteri (fun slot _ -> sync_rto self slot) win_send.(self);
    mirrors.(self) <- no_mirrors nbrs.(self);
    drain_witness := self;
    proc
  in
  let net =
    Network.create ~loss ~duplication ~reorder ~prof ?synchrony ~on_recover
      ~init ~handler graph
  in
  net_ref := Some net;
  (* Timer fires: per-channel RTO (key = slot) and the slow refresh
     (key = degree): republish the current snapshot on channels with no
     repair already in progress — the belt-and-braces that rebuilds
     neighbor mirrors from arbitrary initial window state or after crash
     amnesia. *)
  Network.set_timer_handler net
    ~keys:(Topology.Graph.max_degree graph + 1)
    (fun ~self ~key proc ->
      if key = refresh_key self then begin
        Network.arm_timer net ~self ~key ~after:refresh_every;
        let pay = publish proc in
        let out = ref [] in
        Array.iteri
          (fun slot q ->
            if not (Window.busy win_send.(self).(slot)) then begin
              count_retrans 1;
              out := !out @ win_push self q pay
            end)
          nbrs.(self);
        (proc, !out)
      end
      else if key < Array.length nbrs.(self) then begin
        let snd = win_send.(self).(key) in
        let before = Window.retransmits snd in
        let frames = Window.on_rto snd in
        count_retrans (Window.retransmits snd - before);
        rto_cur.(self).(key) <- min (2 * rto_cur.(self).(key)) rto_cap;
        sync_rto self key;
        (proc, List.map (fun fr -> (nbrs.(self).(key), fr)) frames)
      end
      else (proc, []));
  (* Bootstrap: everyone publishes its pulse-0 snapshot. *)
  Topology.Graph.iter_vertices
    (fun p ->
      let proc = Network.state net p in
      let pay = publish proc in
      Array.iteri
        (fun slot q ->
          List.iter
            (fun fr -> Network.send_one net ~from:p ~into:q fr)
            (Window.send win_send.(p).(slot) pay);
          if Window.busy win_send.(p).(slot) then
            Network.arm_timer net ~self:p ~key:slot
              ~after:(max rto (2 * Network.in_flight net)))
        nbrs.(p);
      (* Stagger the refresh timers across a whole period so the
         republish waves don't cluster; the offset is deterministic in
         the pid. *)
      Network.arm_timer net ~self:p
        ~key:(Array.length nbrs.(p))
        ~after:(refresh_every + (p mod refresh_every)))
    graph;
  (* Garbage in flight: random snapshots with random pulses and buffers,
     wrapped in Data frames with random epochs and seqs, so the initial
     garbage attacks the window state too. *)
  let edges = Topology.Graph.edges graph in
  for _ = 1 to channel_garbage do
    let u, v = Prng.Splitmix.choose garbage_rng edges in
    let from, into = if Prng.Splitmix.bool garbage_rng then (u, v) else (v, u) in
    let garbage_core =
      Harness.Fault.initial_states ~rng:garbage_rng
        { Harness.Fault.adversarial with buffer_fill = 0.5 }
        graph
        ~workload:(Harness.Workload.empty ~n:(Topology.Graph.n graph))
        from
    in
    let pulse = Prng.Splitmix.int garbage_rng 50 in
    let pay = Snapshot (pulse, public_of garbage_core, None) in
    let msg =
      Window.Data
        {
          epoch = Prng.Splitmix.int garbage_rng 1000;
          seq = Prng.Splitmix.int garbage_rng (4 * window);
          body = pay;
        }
    in
    Network.inject net ~from ~into msg
  done;
  {
    graph;
    net;
    rng = sched_rng;
    oracle;
    expected_valid = Harness.Workload.total workload;
    sync;
    on_event;
    on_barrier;
    drain_witness;
    window;
    nbrs;
    win_send;
    win_recv;
  }

let graph (t : t) = t.graph
let oracle (t : t) = t.oracle
let expected_valid (t : t) = t.expected_valid
let max_pulse (t : t) = t.sync.s_max_pulse

let sync_stats (t : t) =
  {
    barriers = t.sync.s_barriers;
    adoptions = t.sync.s_adoptions;
    max_jump = t.sync.s_max_jump;
  }

let channel_deliveries (t : t) = Network.deliveries t.net
let core (t : t) p = (Network.state t.net p).core

let set_core t p core =
  let proc = Network.state t.net p in
  Network.set_state t.net p { proc with core }

let crash_process t p ~down_for = Network.crash t.net p ~down_for
let pulse_of t p = (Network.state t.net p).pulse
let window (t : t) = t.window

let window_retransmits t =
  Array.fold_left
    (fun acc snds ->
      Array.fold_left (fun acc s -> acc + Window.retransmits s) acc snds)
    0 t.win_send

let set_event_hook t f = t.on_event := Some f
let set_barrier_hook t f = t.on_barrier := Some f

(* Snapshot-layer plumbing: the Chandy–Lamport engine in lib/snapshot
   attaches through these without ever seeing the network record. The
   tap and the channel view unwrap window frames: Data bodies are
   application traffic, acks are link-control and elided. *)
let on_marker t f = Network.on_marker t.net f

let on_deliver t f =
  Network.on_deliver t.net (fun ~self ~from msg ->
      match msg with
      | Window.Data { body; _ } -> f ~self ~from body
      | Window.Ack _ -> ())

let send_marker t rng ~from ~into ~epoch =
  Network.send_marker t.net rng ~from ~into ~epoch

type marker_stats = { m_sent : int; m_delivered : int; m_dropped : int }

let marker_stats t =
  {
    m_sent = Network.markers_sent t.net;
    m_delivered = Network.markers_delivered t.net;
    m_dropped = Network.markers_dropped t.net;
  }

let channel_stats t =
  {
    delivered = Network.deliveries t.net;
    lost = Network.dropped t.net;
    duplicated = Network.duplicated t.net;
    reordered = Network.reordered t.net;
    dropped_while_down = Network.dropped_while_down t.net;
  }

let prof_overwrites t = Network.prof_overwrites t.net
let hops t = Network.hops t.net
let causal_chain t ~id = Network.causal_chain t.net ~id
let lamport t p = Network.lamport t.net p

(* [all_drained] is evaluated after every engine step as the stop
   condition, so at large [n] a naive all-processes scan is the dominant
   cost of the whole run (O(n) processes x O(n) buffer slots, per step).
   Two fixes: [State.has_occupied] checks slots without building a list,
   and we cache the last busy process as a witness — a busy network
   almost always stays busy at the same place, so the common case is a
   single O(n)-slot check instead of a full scan. The witness is also
   repointed by the crash-recovery path (the wheel's on_recover): after
   a crash burst the recovered processes are where the traffic rebuilds,
   so the cache keeps its O(1) hit rate instead of degrading to rescans. *)
let quiet t p =
  let proc = Network.state t.net p in
  proc.core.Ssmfp.State.outbox = []
  && not (Ssmfp.State.has_occupied proc.core)

let all_drained t =
  quiet t !(t.drain_witness)
  &&
  let n = Topology.Graph.n t.graph in
  let rec scan p =
    p >= n
    ||
    if quiet t p then scan (p + 1)
    else begin
      t.drain_witness := p;
      false
    end
  in
  scan 0

let drive ?(max_deliveries = 2_000_000) ?stop t =
  let stop = match stop with Some f -> fun _ -> f t | None -> fun _ -> false in
  Network.run ~max_deliveries ~stop t.net t.rng

let run ?(max_deliveries = 2_000_000) t =
  let status = drive ~max_deliveries ~stop:all_drained t in
  let outcome =
    match status with
    | `Stopped -> `All_done
    | `Idle | `Max_deliveries -> `Max_deliveries
  in
  let verdict =
    Harness.Oracle.check_sp t.oracle ~expected_valid:t.expected_valid
      ~n:(Topology.Graph.n t.graph)
      ~at_quiescence:(outcome = `All_done)
  in
  {
    outcome;
    channel_deliveries = Network.deliveries t.net;
    max_pulse = t.sync.s_max_pulse;
    oracle = t.oracle;
    verdict;
  }
