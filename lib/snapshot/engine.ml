(* The Chandy–Lamport marker protocol, adapted to unreliable channels.

   Classical core: an initiator records its own state and sends a marker
   on every outgoing channel; a process receiving its first marker of
   the epoch records its state, closes the marker's channel as empty,
   starts recording every other incoming channel, and floods markers in
   turn; a marker arriving on a channel already being recorded closes
   that channel with the payloads recorded so far. When every process
   has recorded and every channel is closed, the cut is assembled.

   Adaptations for the faulty substrate:
   - {e epochs}: every marker carries the epoch; markers from other
     epochs (stale retransmissions, or floods of an abandoned epoch)
     are ignored, making duplicate and reordered markers idempotent;
   - {e retransmission}: the driver calls [tick] periodically; after
     [resend_patience] ticks with no state-recording progress, markers
     are retransmitted (through the same lossy link) — but only where
     the epoch is actually stuck: one marker per still-open channel
     (whose original close marker was lost or evaporated at a crashed
     process) and one per recorded→unrecorded edge (re-seeding a flood
     frontier a lost marker severed). Channel closes deliberately do
     not reset the patience counter: at scale, closes trickle in for a
     long time, and counting them as progress starves the lost-marker
     channels of their retransmissions. Records may reset it at most
     [n] times, so retransmission is never starved forever;
   - {e abandonment}: [initiate] while an epoch is still active abandons
     it (counted), bounding the damage of a partition or a long crash.

   Recording is O(degree) plus the host's [freeze]: the engine stores
   the captured value itself and a frozen copy of it (for the SSMFP link,
   two array copies), and hashes both when the cut assembles: hashing a
   1k-node core takes 100–300 µs, the time of hundreds of synchronizer
   deliveries, and an abandoned epoch then hashes nothing. The
   retransmission tick walks only the recorded frontier and the open
   channels, sending what a full scan would send in the same order.

   Caveat, documented rather than solved: a marker overtaking earlier
   application payloads (the [reorder] knob violating FIFO) can close a
   channel before those payloads cross it — exactly the FIFO assumption
   Chandy–Lamport needs. The resulting cut may be inconsistent; the cut
   oracle measures this instead of assuming it away. *)

type ('p, 'm) t = {
  n : int;
  neighbors : int array array;
  send : from:int -> into:int -> epoch:int -> unit;
  capture : int -> 'p;
  freeze_state : 'p -> 'p;
  freeze_msg : 'm -> 'm;
  encode_state : Codec.t -> 'p -> unit;
  encode_msg : Codec.t -> 'm -> unit;
  clock : unit -> int;
  scratch : Codec.t;
  resend_patience : int;
  (* current epoch *)
  mutable epoch : int;
  mutable active : bool;
  mutable initiator : int;
  mutable started_at : int;
  mutable pending_states : int;
  mutable epoch_resent : int;
  mutable idle_ticks : int;
  recorded : bool array;
  states : ('p * 'p) option array;  (* (captured, frozen at capture) *)
  chan_open : (int * int, ('m * 'm) list ref) Hashtbl.t;
      (* (from, into) -> (payload, frozen at delivery), newest first *)
  chan_closed : (int * int, ('m * 'm) list) Hashtbl.t;  (* oldest first *)
  mutable open_keys : (int * int) list option;
      (* [chan_open]'s keys in its iteration order, or [None] once a
         record opened channels; a close leaves a stale key behind *)
  mutable frontier : int list;
      (* unrecorded neighbors of recorded processes, with duplicates and
         since-recorded entries until the next [tick] compacts it *)
  (* lifetime stats *)
  mutable epochs_started : int;
  mutable cuts_completed : int;
  mutable abandoned : int;
  mutable markers_resent : int;
  mutable completed : ('p, 'm) Cut.t list;  (* newest first *)
  (* profiling (no-ops when disabled) *)
  prof : Obs.Prof.t;
  ptrack : Obs.Prof.track;
  sp_epoch : Obs.Prof.span;
  c_cuts : Obs.Prof.counter;
  c_abandoned : Obs.Prof.counter;
  c_resent : Obs.Prof.counter;
  h_latency : Obs.Prof.histo;
  mutable epoch_t0 : int;  (* Prof.now at initiation *)
}

type stats = {
  epochs_started : int;
  cuts_completed : int;
  abandoned : int;
  markers_resent : int;
}

let create ?(prof = Obs.Prof.disabled) ?(resend_patience = 1) ~send ~capture
    ~freeze_state ~freeze_msg ~encode_state ~encode_msg ~clock graph =
  let n = Topology.Graph.n graph in
  {
    n;
    neighbors =
      Array.init n (fun p -> Array.of_list (Topology.Graph.neighbors graph p));
    send;
    capture;
    freeze_state;
    freeze_msg;
    encode_state;
    encode_msg;
    clock;
    scratch = Codec.create ();
    resend_patience = max 1 resend_patience;
    epoch = 0;
    active = false;
    initiator = 0;
    started_at = 0;
    pending_states = 0;
    epoch_resent = 0;
    idle_ticks = 0;
    recorded = Array.make n false;
    states = Array.make n None;
    chan_open = Hashtbl.create (4 * n);
    chan_closed = Hashtbl.create (4 * n);
    open_keys = Some [];
    frontier = [];
    epochs_started = 0;
    cuts_completed = 0;
    abandoned = 0;
    markers_resent = 0;
    completed = [];
    prof;
    ptrack = Obs.Prof.track prof 0;
    sp_epoch = Obs.Prof.span prof "snap.epoch";
    c_cuts = Obs.Prof.counter prof "snap.cuts";
    c_abandoned = Obs.Prof.counter prof "snap.abandoned";
    c_resent = Obs.Prof.counter prof "snap.marker_resends";
    h_latency = Obs.Prof.histo prof "snap.cut_latency";
    epoch_t0 = 0;
  }

let active t = t.active
let epoch t = t.epoch

let stats (t : _ t) : stats =
  {
    epochs_started = t.epochs_started;
    cuts_completed = t.cuts_completed;
    abandoned = t.abandoned;
    markers_resent = t.markers_resent;
  }

let take_completed t =
  let cuts = List.rev t.completed in
  t.completed <- [];
  cuts

let state_piece t v =
  Codec.reset t.scratch;
  t.encode_state t.scratch v;
  Codec.hash t.scratch

let msg_piece t m =
  Codec.reset t.scratch;
  t.encode_msg t.scratch m;
  Codec.hash t.scratch

(* A channel piece hash is the FNV fold of its payloads' piece hashes,
   finalized by folding in the payload count — order- and
   length-sensitive. *)
let channel_piece t msgs =
  let h =
    List.fold_left
      (fun h m -> Codec.combine h (msg_piece t m))
      Codec.fnv_offset msgs
  in
  Codec.combine h (List.length msgs)

let close_channel t key cell =
  Hashtbl.remove t.chan_open key;
  Hashtbl.replace t.chan_closed key (List.rev !cell)

let flood_markers t p =
  Array.iter (fun q -> t.send ~from:p ~into:q ~epoch:t.epoch) t.neighbors.(p)

(* Assemble the finished cut: walk processes then channels in canonical
   order, folding the stored data's piece hashes into [fingerprint] and
   the frozen copies' into the shadow. A frozen copy reads exactly what
   the live value held at its capture instant, so the two agree unless
   something mutated a captured value in place. *)
let assemble t =
  let captured = Array.init t.n (fun p -> Option.get t.states.(p)) in
  let states = Array.map fst captured in
  let channels =
    Hashtbl.fold (fun k pairs acc -> (k, pairs) :: acc) t.chan_closed []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let fp = ref (Codec.combine Codec.fnv_offset t.n)
  and shadow = ref (Codec.combine Codec.fnv_offset t.n) in
  Array.iter
    (fun (v, frozen) ->
      fp := Codec.combine !fp (state_piece t v);
      shadow := Codec.combine !shadow (state_piece t frozen))
    captured;
  let channels =
    List.map
      (fun (((from, into) as k), pairs) ->
        let msgs = List.map fst pairs in
        let fold_key x = Codec.combine (Codec.combine x from) into in
        fp := Codec.combine (fold_key !fp) (channel_piece t msgs);
        shadow :=
          Codec.combine (fold_key !shadow)
            (channel_piece t (List.map snd pairs));
        (k, msgs))
      channels
  in
  let cut =
    {
      Cut.epoch = t.epoch;
      initiator = t.initiator;
      states;
      channels;
      started_at = t.started_at;
      completed_at = t.clock ();
      markers_resent = t.epoch_resent;
      fingerprint = !fp;
      shadow_fingerprint = !shadow;
    }
  in
  t.completed <- cut :: t.completed;
  t.cuts_completed <- t.cuts_completed + 1;
  t.active <- false;
  (* drop the frozen copies now rather than at the next initiation *)
  Array.fill t.states 0 t.n None;
  Hashtbl.reset t.chan_closed;
  Obs.Prof.add t.ptrack t.c_cuts 1;
  Obs.Prof.observe t.ptrack t.h_latency (max 1 (Cut.latency cut));
  Obs.Prof.record t.ptrack t.sp_epoch ~start:t.epoch_t0

let check_done t =
  if t.pending_states = 0 && Hashtbl.length t.chan_open = 0 then assemble t

(* Record process [p]'s state. [via = Some q] when triggered by a marker
   on channel (q, p): that channel closes empty; every other incoming
   channel starts recording. *)
let record t p ~via =
  t.recorded.(p) <- true;
  t.pending_states <- t.pending_states - 1;
  t.idle_ticks <- 0;
  let v = t.capture p in
  t.states.(p) <- Some (v, t.freeze_state v);
  Array.iter
    (fun q ->
      if via = Some q then Hashtbl.replace t.chan_closed (q, p) []
      else Hashtbl.replace t.chan_open (q, p) (ref []);
      if not t.recorded.(q) then t.frontier <- q :: t.frontier)
    t.neighbors.(p);
  t.open_keys <- None;
  flood_markers t p

let clear_epoch t =
  Array.fill t.recorded 0 t.n false;
  Array.fill t.states 0 t.n None;
  Hashtbl.reset t.chan_open;
  Hashtbl.reset t.chan_closed;
  t.open_keys <- Some [];
  t.frontier <- [];
  t.pending_states <- t.n;
  t.epoch_resent <- 0;
  t.idle_ticks <- 0

let initiate ?initiator t =
  if t.active then begin
    t.abandoned <- t.abandoned + 1;
    t.active <- false;
    Obs.Prof.add t.ptrack t.c_abandoned 1
  end;
  clear_epoch t;
  t.epoch <- t.epoch + 1;
  t.epochs_started <- t.epochs_started + 1;
  let p0 =
    match initiator with
    | Some p ->
        if p < 0 || p >= t.n then invalid_arg "Engine.initiate: bad initiator";
        p
    | None -> (t.epochs_started - 1) mod t.n
  in
  t.initiator <- p0;
  t.started_at <- t.clock ();
  t.epoch_t0 <- Obs.Prof.now t.prof;
  t.active <- true;
  record t p0 ~via:None;
  check_done t

let handle_marker t ~self ~from ~epoch =
  if t.active && epoch = t.epoch then
    if not t.recorded.(self) then begin
      record t self ~via:(Some from);
      check_done t
    end
    else
      match Hashtbl.find_opt t.chan_open (from, self) with
      | Some cell ->
          close_channel t (from, self) cell;
          check_done t
      | None -> ()  (* duplicate / reordered marker: channel already closed *)

let tap t ~self ~from m =
  if t.active && t.recorded.(self) then
    match Hashtbl.find_opt t.chan_open (from, self) with
    | Some cell -> cell := (m, t.freeze_msg m) :: !cell
    | None -> ()

let tick t =
  if t.active then begin
    t.idle_ticks <- t.idle_ticks + 1;
    if t.idle_ticks >= t.resend_patience then begin
      t.idle_ticks <- 0;
      let resent = ref 0 in
      (* Still-open channel (q, p): p waits for q's close marker, which
         was lost (or is stuck behind queued traffic — the duplicate is
         idempotent). Resend it alone, not q's whole flood. Channels go
         in [chan_open]'s iteration order, cached between the records
         that add to it. *)
      let keys =
        match t.open_keys with
        | Some keys -> keys
        | None ->
            List.rev (Hashtbl.fold (fun k _ acc -> k :: acc) t.chan_open [])
      in
      let keys = List.filter (Hashtbl.mem t.chan_open) keys in
      t.open_keys <- Some keys;
      List.iter
        (fun (q, p) ->
          if t.recorded.(q) then begin
            t.send ~from:q ~into:p ~epoch:t.epoch;
            incr resent
          end)
        keys;
      (* Unrecorded process p next to a recorded q: the flood frontier
         stalled on edge (q, p); re-seed it, p ascending. *)
      t.frontier <-
        List.sort_uniq compare
          (List.filter (fun p -> not t.recorded.(p)) t.frontier);
      List.iter
        (fun p ->
          Array.iter
            (fun q ->
              if t.recorded.(q) then begin
                t.send ~from:q ~into:p ~epoch:t.epoch;
                incr resent
              end)
            t.neighbors.(p))
        t.frontier;
      t.epoch_resent <- t.epoch_resent + !resent;
      t.markers_resent <- t.markers_resent + !resent;
      Obs.Prof.add t.ptrack t.c_resent !resent
    end
  end
