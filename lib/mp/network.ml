type ('s, 'm) handler = self:int -> from:int -> 's -> 'm -> 's * (int * 'm) list

(* Channel items: application payloads (with their stamp id) share the
   FIFO rings with snapshot markers — the Chandy–Lamport layer rides
   *under* the application protocol, so markers suffer the same loss,
   duplication, reordering and crash-evaporation as everything else.
   A network without an attached snapshot layer never enqueues markers
   and behaves byte-for-byte as before. *)
type 'm item = App of 'm * int | Marker of int (* snapshot epoch *)

(* What a delivery leaves in the ring slot it frees: a constant, so the
   delivered item is garbage once its handler returns. *)
let vacant = Marker (-1)

(* Profiling state: Lamport stamps and hop logging.

   Every handler- or timer-originated send is stamped with a fresh
   message id and the sender's incremented Lamport clock; the stamp
   travels with the message through loss, duplication and reordering (a
   duplicate carries the same id — seeing an id delivered twice IS the
   duplication). Stamps live in a ring keyed by [id land s_mask] with
   the id stored for overwrite detection, so a long-delayed message
   whose slot was reused simply loses its latency sample instead of
   producing a bogus one — and the loss is counted ([samples_lost])
   instead of silent, so saturated runs can report how many samples
   their histograms are missing. *)
type prof_state = {
  prof : Obs.Prof.t;
  ptr : Obs.Prof.track; (* the scheduler domain's track *)
  h_latency : Obs.Prof.histo; (* mp.send_deliver_ns *)
  h_depth : Obs.Prof.histo; (* mp.in_flight, sampled every 64 steps *)
  h_chan : Obs.Prof.histo; (* mp.channel_depth, nonempty channels only *)
  c_stamped : Obs.Prof.counter; (* mp.sends *)
  lamport : int array;
  s_mask : int;
  s_id : int array;
  s_send_ns : int array;
  s_lamport : int array;
  s_from : int array;
  mutable next_stamp : int;
  mutable samples_lost : int; (* deliveries whose stamp slot was reused *)
  hop_mask : int;
  hop_id : int array;
  hop_from : int array;
  hop_into : int array;
  hop_send_l : int array;
  hop_recv_l : int array;
  hop_lat : int array;
  mutable hop_next : int;
  mutable hop_total : int;
  mutable steps : int;
}

type prof_overwrites = {
  stamps_evicted : int;
  samples_lost : int;
  hops_evicted : int;
}

type hop = {
  hop_id : int;
  hop_from : int;
  hop_into : int;
  hop_send_lamport : int;
  hop_recv_lamport : int;
  hop_latency_ns : int;
}

type ('s, 'm) t = {
  graph : Topology.Graph.t;
  states : 's array;
  (* Directed channels in canonical sorted (from, into) order, stored as
     flat ring buffers indexed densely — the hot path never touches a
     hash table or allocates a key tuple. App stamps: -1 = untracked. *)
  chan_keys : (int * int) array;
  chan_from : int array; (* unpacked keys, parallel to [chan_keys] *)
  chan_into : int array;
  rings : 'm item Ring.t array;
  chan_ix : (int * int, int) Hashtbl.t; (* cold-path (from,into) lookup *)
  nbr_pid : int array array; (* neighbors of p, Graph.neighbors order *)
  nbr_ci : int array array; (* channel index of p -> nbr_pid.(p).(k) *)
  (* Channel scheduler: one uniform [int] draw bounded by the nonempty
     count selects a nonempty channel in canonical order through the
     rank/select bitset (O(1) flag transitions, a count-guided scan to
     select); test_mp_runtime's "differential" pins hold this stream. *)
  nonempty : Bitset.t;
  mutable flight : int; (* total items in rings, maintained *)
  handler : ('s, 'm) handler;
  loss : float;
  duplication : float;
  reorder : float;
  (* Partial synchrony: before [gst] the knobs above apply; from [gst]
     on, fault draws are suppressed and a round-robin age probe forces
     delivery from channels nonempty for more than [delta] steps. *)
  synchrony : Synchrony.t option;
  mutable sync_cursor : int;
  chan_since : int array; (* step a channel last became nonempty *)
  on_recover : (self:int -> 's -> 's) option;
  (* Crash spans as absolute deadlines: [down_until.(p) > now] = down.
     Expiries live on a timer wheel, so a step pays O(recoveries due)
     instead of the old O(n) down-counter scan. *)
  down_until : int array;
  crash_wheel : Wheel.t;
  due : int array; (* reused buffer: the recoveries one step makes, by pid *)
  (* User timers (the window layer's RTO/refresh), keyed per process:
     id = self * timer_keys + key. *)
  mutable timer_keys : int;
  mutable timer_wheel : Wheel.t option;
  mutable timer_handler : (self:int -> key:int -> 's -> 's * (int * 'm) list) option;
  mutable now : int; (* acted steps so far — the wheels' tick clock *)
  np : prof_state option;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable dropped_down : int;
  (* Snapshot-layer hooks; both stay [None] in snapshot-free networks. *)
  mutable marker_handler : (self:int -> from:int -> epoch:int -> unit) option;
  mutable delivery_tap : (self:int -> from:int -> 'm -> unit) option;
  mutable markers_sent : int;
  mutable markers_delivered : int;
  mutable markers_dropped : int; (* lost, or evaporated at a crashed process *)
}

(* Cold-path channel lookup (inject, channel_contents). *)
let chan t ~from ~into =
  if not (Topology.Graph.is_edge t.graph from into) then
    invalid_arg "Network: not an edge";
  Hashtbl.find t.chan_ix (from, into)

(* Hot-path channel lookup by destination pid: a linear probe of the
   sender's neighbor table — degree-bounded and allocation-free, unlike
   a hash lookup keyed by a fresh tuple. The probe is a closed top-level
   function, so a lookup allocates no closure either. *)
let rec ci_in ns cs q i =
  if i >= Array.length ns then invalid_arg "Network: not an edge"
  else if ns.(i) = q then cs.(i)
  else ci_in ns cs q (i + 1)

let ci_of t from q = ci_in t.nbr_pid.(from) t.nbr_ci.(from) q 0

(* Flag transitions: [note_filled] after any push (idempotent),
   [note_popped] after any take. *)
let note_filled t ci =
  if not (Bitset.mem t.nonempty ci) then begin
    Bitset.set t.nonempty ci;
    t.chan_since.(ci) <- t.now
  end

let note_popped t ci =
  if Ring.is_empty t.rings.(ci) then Bitset.clear t.nonempty ci

let make_prof_state prof n =
  if not (Obs.Prof.enabled prof) then None
  else begin
    let s_cap = 1 lsl 15 and hop_cap = 1 lsl 14 in
    Some
      {
        prof;
        ptr = Obs.Prof.track prof 0;
        h_latency = Obs.Prof.histo prof "mp.send_deliver_ns";
        h_depth = Obs.Prof.histo prof "mp.in_flight";
        h_chan = Obs.Prof.histo prof "mp.channel_depth";
        c_stamped = Obs.Prof.counter prof "mp.sends";
        lamport = Array.make n 0;
        s_mask = s_cap - 1;
        s_id = Array.make s_cap (-1);
        s_send_ns = Array.make s_cap 0;
        s_lamport = Array.make s_cap 0;
        s_from = Array.make s_cap 0;
        next_stamp = 0;
        samples_lost = 0;
        hop_mask = hop_cap - 1;
        hop_id = Array.make hop_cap 0;
        hop_from = Array.make hop_cap 0;
        hop_into = Array.make hop_cap 0;
        hop_send_l = Array.make hop_cap 0;
        hop_recv_l = Array.make hop_cap 0;
        hop_lat = Array.make hop_cap 0;
        hop_next = 0;
        hop_total = 0;
        steps = 0;
      }
  end

let create ?(loss = 0.) ?(duplication = 0.) ?(reorder = 0.)
    ?(prof = Obs.Prof.disabled) ?synchrony ?on_recover ~init ~handler graph =
  let n = Topology.Graph.n graph in
  (* Materialize every directed channel up front, in canonical sorted
     order: the order the channel draw ranks them in. *)
  let chan_keys =
    List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) (Topology.Graph.edges graph)
    |> List.sort_uniq compare |> Array.of_list
  in
  let c = Array.length chan_keys in
  let chan_ix = Hashtbl.create (2 * c) in
  Array.iteri (fun i k -> Hashtbl.replace chan_ix k i) chan_keys;
  let nbr_pid =
    Array.init n (fun p -> Array.of_list (Topology.Graph.neighbors graph p))
  in
  let nbr_ci =
    Array.init n (fun p ->
        Array.map (fun q -> Hashtbl.find chan_ix (p, q)) nbr_pid.(p))
  in
  {
    graph;
    states = Array.init n init;
    chan_keys;
    chan_from = Array.map fst chan_keys;
    chan_into = Array.map snd chan_keys;
    rings = Array.init c (fun _ -> Ring.create ());
    chan_ix;
    nbr_pid;
    nbr_ci;
    nonempty = Bitset.create c;
    flight = 0;
    handler;
    loss;
    duplication;
    reorder;
    synchrony;
    sync_cursor = 0;
    chan_since = Array.make (max c 1) 0;
    on_recover;
    down_until = Array.make n 0;
    crash_wheel = Wheel.create ~ids:n;
    due = Array.make n 0;
    timer_keys = 0;
    timer_wheel = None;
    timer_handler = None;
    now = 0;
    np = make_prof_state prof n;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    dropped_down = 0;
    marker_handler = None;
    delivery_tap = None;
    markers_sent = 0;
    markers_delivered = 0;
    markers_dropped = 0;
  }

(* Are the unreliability knobs live? Under partial synchrony they are
   suppressed (without consuming draws) once the clock passes GST. *)
let unreliable t =
  match t.synchrony with
  | None -> true
  | Some sy -> t.now < Synchrony.gst sy

(* One stamp per logical send: duplicated copies and broadcast fan-out
   share the id (seeing one id delivered twice IS the duplication; once
   per neighbor, the broadcast). Stamping never touches the scheduler's
   PRNG, so draw sequences are identical with profiling on or off. *)
let stamp t ~from =
  match t.np with
  | None -> -1
  | Some p ->
      p.lamport.(from) <- p.lamport.(from) + 1;
      let sid = p.next_stamp in
      p.next_stamp <- sid + 1;
      let slot = sid land p.s_mask in
      p.s_id.(slot) <- sid;
      p.s_send_ns.(slot) <- Obs.Prof.now p.prof;
      p.s_lamport.(slot) <- p.lamport.(from);
      p.s_from.(slot) <- from;
      Obs.Prof.add p.ptr p.c_stamped 1;
      sid

(* Injected messages are unstamped (-1): garbage in flight has no send
   event, so it can have no latency or causal past. *)
let inject t ~from ~into m =
  let ci = chan t ~from ~into in
  Ring.push t.rings.(ci) (App (m, -1));
  t.flight <- t.flight + 1;
  note_filled t ci

(* A single stamped send outside the unreliable link: bootstrap traffic,
   one frame per channel since window frames carry per-channel sequence
   numbers. *)
let send_one t ~from ~into m =
  let ci = ci_of t from into in
  let sid = stamp t ~from in
  Ring.push t.rings.(ci) (App (m, sid));
  t.flight <- t.flight + 1;
  note_filled t ci

let state t p = t.states.(p)
let set_state t p s = t.states.(p) <- s
let in_flight t = t.flight
let deliveries t = t.delivered
let dropped t = t.dropped
let duplicated t = t.duplicated
let reordered t = t.reordered
let dropped_while_down t = t.dropped_down
let markers_sent t = t.markers_sent
let markers_delivered t = t.markers_delivered
let markers_dropped t = t.markers_dropped

let on_marker t f = t.marker_handler <- Some f
let on_deliver t f = t.delivery_tap <- Some f

let channel_contents t ~from ~into =
  List.filter_map
    (function App (m, _) -> Some m | Marker _ -> None)
    (Ring.to_list t.rings.(chan t ~from ~into))

let is_down t p = t.down_until.(p) > t.now

let crash t p ~down_for =
  if down_for < 1 then invalid_arg "Network.crash: down_for must be >= 1";
  if p < 0 || p >= Array.length t.down_until then
    invalid_arg "Network.crash: no such process";
  let until = max t.down_until.(p) (t.now + down_for) in
  t.down_until.(p) <- until;
  Wheel.arm t.crash_wheel p ~at:until

(* Adversarial FIFO violation: the new message overtakes at least one
   already-queued one. Drawn only when the knob is on and there is
   something to overtake, so the draw sequence of reorder-free networks
   is untouched. *)
let enqueue t rng ci m =
  let r = t.rings.(ci) in
  (if
     t.reorder > 0.
     && (not (Ring.is_empty r))
     && unreliable t
     && Prng.Splitmix.bernoulli rng t.reorder
   then begin
     let pos = Prng.Splitmix.int rng (Ring.length r) in
     Ring.insert r pos m;
     t.reordered <- t.reordered + 1
   end
   else Ring.push r m);
  t.flight <- t.flight + 1;
  note_filled t ci

(* Handler-originated sends go through the unreliable link: an optional
   duplicate copy first, then an independent loss draw per copy, then
   possibly out-of-order placement. Every draw is guarded by its knob
   being > 0 (and by the clock being pre-GST under partial synchrony)
   so networks created without a knob see the exact historical draw
   sequence. [post] walks the list by its own recursion, not through
   [List.iter] and a closure, so a send allocates only its channel item. *)
let rec post t rng ~from = function
  | [] -> ()
  | (q, msg) :: rest ->
      let sid = stamp t ~from in
      let ci = ci_of t from q in
      let copies =
        if
          t.duplication > 0. && unreliable t
          && Prng.Splitmix.bernoulli rng t.duplication
        then begin
          t.duplicated <- t.duplicated + 1;
          2
        end
        else 1
      in
      for _ = 1 to copies do
        if t.loss > 0. && unreliable t && Prng.Splitmix.bernoulli rng t.loss
        then t.dropped <- t.dropped + 1
        else enqueue t rng ci (App (msg, sid))
      done;
      post t rng ~from rest

(* Markers take the same unreliable link as handler sends, but their
   draws come from the caller's (snapshot layer's) own PRNG stream: the
   scheduler stream never sees a snapshot-dependent draw, so the only
   perturbation snapshots cause is the markers actually in the queues.
   Marker duplication needs no counter bump — a duplicate marker is
   idempotent at the receiver (the channel is already closed). *)
let send_marker t rng ~from ~into ~epoch =
  if not (Topology.Graph.is_edge t.graph from into) then
    invalid_arg "Network.send_marker: not an edge";
  t.markers_sent <- t.markers_sent + 1;
  let ci = Hashtbl.find t.chan_ix (from, into) in
  let copies =
    if t.duplication > 0. && unreliable t
       && Prng.Splitmix.bernoulli rng t.duplication
    then 2
    else 1
  in
  for _ = 1 to copies do
    if t.loss > 0. && unreliable t && Prng.Splitmix.bernoulli rng t.loss then
      t.markers_dropped <- t.markers_dropped + 1
    else enqueue t rng ci (Marker epoch)
  done

(* {2 User timers} — the wheel-driven spontaneous actions the window
   layer runs its RTO and refresh on. Ids are [self * keys + key]. *)

let set_timer_handler t ~keys f =
  if keys < 1 then invalid_arg "Network.set_timer_handler: keys must be >= 1";
  t.timer_keys <- keys;
  t.timer_handler <- Some f;
  t.timer_wheel <- Some (Wheel.create ~ids:(Topology.Graph.n t.graph * keys))

let timer_id t ~self ~key =
  if key < 0 || key >= t.timer_keys then invalid_arg "Network: bad timer key";
  (self * t.timer_keys) + key

let arm_timer t ~self ~key ~after =
  match t.timer_wheel with
  | None -> invalid_arg "Network.arm_timer: no timer handler installed"
  | Some w -> Wheel.arm w (timer_id t ~self ~key) ~at:(t.now + max 1 after)

let cancel_timer t ~self ~key =
  match t.timer_wheel with
  | None -> ()
  | Some w -> Wheel.cancel w (timer_id t ~self ~key)

let timer_armed t ~self ~key =
  match t.timer_wheel with
  | None -> false
  | Some w -> Wheel.armed w (timer_id t ~self ~key)

let fire_timer t rng id =
  match t.timer_handler with
  | None -> ()
  | Some f ->
      let self = id / t.timer_keys and key = id mod t.timer_keys in
      if is_down t self then
        (* Timers survive a crash: re-armed to fire right after the
           recovery instead of firing into a dead process. *)
        (match t.timer_wheel with
        | Some w -> Wheel.arm w id ~at:(t.down_until.(self) + 1)
        | None -> ())
      else begin
        let s', sends = f ~self ~key t.states.(self) in
        t.states.(self) <- s';
        post t rng ~from:self sends
      end

(* Delivery-side profiling: advance the receiver's Lamport clock, take
   the send→deliver latency if the stamp slot still holds this id, and
   append the hop record. *)
let observe_delivery t ~into sid =
  match t.np with
  | None -> ()
  | Some p ->
      if sid >= 0 && p.s_id.(sid land p.s_mask) = sid then begin
        let slot = sid land p.s_mask in
        let send_l = p.s_lamport.(slot) in
        let recv_l = max (p.lamport.(into) + 1) (send_l + 1) in
        p.lamport.(into) <- recv_l;
        let lat = Obs.Prof.now p.prof - p.s_send_ns.(slot) in
        Obs.Prof.observe p.ptr p.h_latency lat;
        let h = p.hop_next in
        p.hop_id.(h) <- sid;
        p.hop_from.(h) <- p.s_from.(slot);
        p.hop_into.(h) <- into;
        p.hop_send_l.(h) <- send_l;
        p.hop_recv_l.(h) <- recv_l;
        p.hop_lat.(h) <- lat;
        p.hop_next <- (h + 1) land p.hop_mask;
        p.hop_total <- p.hop_total + 1
      end
      else begin
        if sid >= 0 then p.samples_lost <- p.samples_lost + 1;
        p.lamport.(into) <- p.lamport.(into) + 1
      end

let prof_overwrites t =
  match t.np with
  | None -> { stamps_evicted = 0; samples_lost = 0; hops_evicted = 0 }
  | Some p ->
      {
        stamps_evicted = max 0 (p.next_stamp - (p.s_mask + 1));
        samples_lost = p.samples_lost;
        hops_evicted = max 0 (p.hop_total - (p.hop_mask + 1));
      }

(* Queue depths sampled on a tick (every 64th step): total in-flight
   (an O(1) maintained counter now) plus each nonempty channel's depth. *)
let sample_depths t =
  match t.np with
  | None -> ()
  | Some p ->
      p.steps <- p.steps + 1;
      if p.steps land 63 = 0 then begin
        Obs.Prof.observe p.ptr p.h_depth t.flight;
        Array.iter
          (fun r ->
            let d = Ring.length r in
            if d > 0 then Obs.Prof.observe p.ptr p.h_chan d)
          t.rings
      end

(* Post-GST age probe: one channel per step, round robin; a hit forces
   delivery from a channel whose head has waited more than Δ steps.
   Consumes no draws, and is skipped entirely without [synchrony]. *)
let forced_channel t =
  match t.synchrony with
  | None -> -1
  | Some sy ->
      if t.now < Synchrony.gst sy then -1
      else begin
        let c = Array.length t.chan_keys in
        t.sync_cursor <- (t.sync_cursor + 1) mod c;
        let ci = t.sync_cursor in
        if Bitset.mem t.nonempty ci && t.now - t.chan_since.(ci) > Synchrony.delta sy
        then ci
        else -1
      end

(* Deliver the head item of channel [ci]. *)
let deliver_from t rng ci =
  let r = t.rings.(ci) in
  let from = t.chan_from.(ci) and into = t.chan_into.(ci) in
  let item = Ring.take r ~vacant in
  t.flight <- t.flight - 1;
  note_popped t ci;
  match item with
  | Marker epoch ->
      (* Markers evaporate at a crashed interface exactly like
         application traffic — the snapshot layer's retransmission
         is what recovers the epoch. *)
      if is_down t into then t.markers_dropped <- t.markers_dropped + 1
      else begin
        t.markers_delivered <- t.markers_delivered + 1;
        match t.marker_handler with
        | None -> () (* stale marker from a detached layer *)
        | Some f -> f ~self:into ~from ~epoch
      end
  | App (m, sid) ->
      if is_down t into then
        (* Crashed recipient: the message evaporates at the interface. *)
        t.dropped_down <- t.dropped_down + 1
      else begin
        t.delivered <- t.delivered + 1;
        observe_delivery t ~into sid;
        (* The tap sees the delivery before the handler mutates
           anything: channel-state recording captures the payload
           exactly as it crossed the interface. *)
        (match t.delivery_tap with
        | None -> ()
        | Some f -> f ~self:into ~from m);
        let s', sends = t.handler ~self:into ~from t.states.(into) m in
        t.states.(into) <- s';
        post t rng ~from:into sends
      end

(* Gather the crash recoveries due by [t.now] into [t.due], sorted by
   pid (insertion: a step rarely recovers two); returns how many. *)
let rec gather_due t k =
  let p = Wheel.next_due t.crash_wheel in
  if p < 0 then k
  else begin
    let i = ref k in
    while !i > 0 && t.due.(!i - 1) > p do
      t.due.(!i) <- t.due.(!i - 1);
      decr i
    done;
    t.due.(!i) <- p;
    gather_due t (k + 1)
  end

let rec fire_due t rng w =
  let id = Wheel.next_due w in
  if id >= 0 then begin
    fire_timer t rng id;
    fire_due t rng w
  end

(* End of an acted step: advance the clock and both wheels. Crash
   recoveries fire first (in pid order, like the old down-counter scan),
   then user timers (in deadline order) — so a timer due the tick a
   process recovers sees the recovered state. Top-level recursions over
   [Wheel.next_due], so a step allocates no closure and no list. *)
let epilogue t rng =
  t.now <- t.now + 1;
  Wheel.advance t.crash_wheel ~upto:t.now;
  for i = 0 to gather_due t 0 - 1 do
    let p = t.due.(i) in
    if t.down_until.(p) <= t.now then
      match t.on_recover with
      | None -> ()
      | Some f -> t.states.(p) <- f ~self:p t.states.(p)
  done;
  match t.timer_wheel with
  | None -> ()
  | Some w ->
      Wheel.advance w ~upto:t.now;
      fire_due t rng w

(* All channels empty: with wheel timers pending the clock jumps to the
   next deadline (that fire is the step); otherwise the network is
   genuinely idle. *)
let idle_timers t =
  match t.timer_wheel with
  | None -> false
  | Some w -> (
      match Wheel.next w with
      | None -> false
      | Some at ->
          t.now <- max t.now (at - 1);
          true)

let step t rng =
  sample_depths t;
  let acted =
    if Bitset.count t.nonempty = 0 then idle_timers t
    else begin
      let fci = forced_channel t in
      let ci =
        if fci >= 0 then fci
        else
          Bitset.select t.nonempty
            (Prng.Splitmix.int rng (Bitset.count t.nonempty))
      in
      deliver_from t rng ci;
      true
    end
  in
  if acted then epilogue t rng;
  acted

let lamport t p =
  match t.np with None -> 0 | Some ps -> ps.lamport.(p)

let hops t =
  match t.np with
  | None -> []
  | Some p ->
      let cap = p.hop_mask + 1 in
      let n = min p.hop_total cap in
      let first = if p.hop_total <= cap then 0 else p.hop_next in
      List.init n (fun k ->
          let i = (first + k) land p.hop_mask in
          {
            hop_id = p.hop_id.(i);
            hop_from = p.hop_from.(i);
            hop_into = p.hop_into.(i);
            hop_send_lamport = p.hop_send_l.(i);
            hop_recv_lamport = p.hop_recv_l.(i);
            hop_latency_ns = p.hop_lat.(i);
          })

(* Causal past of one delivery, reconstructed purely from the hop log:
   hop [c] precedes hop [h] when [c] delivered into [h]'s sender with a
   receive Lamport no greater than [h]'s send Lamport — information
   from [c] could have flowed into the send. Among candidates we take
   the latest (max receive Lamport): the tightest causal predecessor.
   Lost and still-in-flight messages simply produce no hop, so the
   chain degrades gracefully under loss/reorder instead of lying. *)
let causal_chain t ~id =
  let all = hops t in
  match List.rev (List.filter (fun h -> h.hop_id = id) all) with
  | [] -> []
  | h :: _ ->
      let rec back h acc =
        let pred =
          List.fold_left
            (fun best c ->
              if
                c.hop_into = h.hop_from
                && c.hop_recv_lamport <= h.hop_send_lamport
              then
                match best with
                | Some b when b.hop_recv_lamport >= c.hop_recv_lamport -> best
                | _ -> Some c
              else best)
            None all
        in
        match pred with
        | Some c when not (List.memq c acc) -> back c (c :: acc)
        | _ -> acc
      in
      back h [ h ]

let run ?(max_deliveries = 5_000_000) ?stop t rng =
  let stop_now () = match stop with Some f -> f t | None -> false in
  let rec loop budget =
    if budget = 0 then `Max_deliveries
    else if stop_now () then `Stopped
    else if step t rng then loop (budget - 1)
    else `Idle
  in
  loop max_deliveries
