(* Sliding-window retransmission over one directed channel, in the
   data-link style of SNIPPETS Snippet 2: sequence-numbered Data frames,
   cumulative acks, a nak for the first gap (selective retransmit), and
   a sender-side retransmission timer driven by the network's timer
   wheel (the caller arms/fires it; this module is pure state machine).

   Epochs make the pair self-stabilizing under crash-recovery and
   channel garbage: a receiver adopts *any* epoch different from its
   current one (resetting its window), so finite stray frames — garbage,
   or leftovers of a previous incarnation — perturb it only finitely
   often; a sender ignores acks from foreign epochs, and when a valid
   ack proves the receiver is behind the send base (the receiver lost
   its state), the sender resyncs: it bumps its epoch and renumbers the
   still-unacked frames from zero. Payloads already acked before a
   receiver crash are not replayed — the synchronizer above tolerates
   this because snapshots are full-state and periodically refreshed. *)

type 'a frame =
  | Data of { epoch : int; seq : int; body : 'a }
  | Ack of { epoch : int; cum : int; nak : int } (* nak = -1: no gap *)

type 'a sender = {
  w : int;
  mutable s_epoch : int;
  mutable base : int; (* lowest unacked seq *)
  mutable next : int; (* next seq to assign; in-flight = [base, next) *)
  mutable buf : 'a option array; (* slot [seq mod w] *)
  pending : 'a Ring.t; (* overflow beyond the window, FIFO *)
  mutable retransmits : int;
}

type 'a receiver = {
  rw : int;
  mutable r_epoch : int;
  mutable expected : int; (* next in-order seq to deliver *)
  mutable rbuf : 'a option array; (* out-of-order slots [seq mod w] *)
}

let max_size = 1024

let check_size who w =
  if w < 1 || w > max_size then
    invalid_arg
      (Printf.sprintf "Window.%s: window must be in 1..%d" who max_size)

let sender ?(epoch = 0) w =
  check_size "sender" w;
  {
    w;
    s_epoch = epoch;
    base = 0;
    next = 0;
    buf = Array.make w None;
    pending = Ring.create ();
    retransmits = 0;
  }

let receiver ?(epoch = 0) w =
  check_size "receiver" w;
  { rw = w; r_epoch = epoch; expected = 0; rbuf = Array.make w None }

let sender_epoch s = s.s_epoch
let in_flight s = s.next - s.base
let backlog s = Ring.length s.pending
let busy s = s.next > s.base || not (Ring.is_empty s.pending)
let retransmits s = s.retransmits
let receiver_epoch r = r.r_epoch
let expected r = r.expected

let frame_at s seq =
  match s.buf.(seq mod s.w) with
  | Some body -> Data { epoch = s.s_epoch; seq; body }
  | None -> invalid_arg "Window: no frame at seq"

(* Assign sequence numbers to as much of [pending] as fits, emitting the
   fresh Data frames. *)
let fill s acc =
  let out = ref acc in
  while s.next - s.base < s.w && not (Ring.is_empty s.pending) do
    let body = Ring.pop s.pending in
    s.buf.(s.next mod s.w) <- Some body;
    out := Data { epoch = s.s_epoch; seq = s.next; body } :: !out;
    s.next <- s.next + 1
  done;
  List.rev !out

let send s body =
  if s.next - s.base < s.w then begin
    s.buf.(s.next mod s.w) <- Some body;
    let fr = Data { epoch = s.s_epoch; seq = s.next; body } in
    s.next <- s.next + 1;
    [ fr ]
  end
  else begin
    Ring.push s.pending body;
    []
  end

(* Full-state payloads: a queued payload that has not yet been assigned
   a sequence number is superseded by any newer one, so replace the
   backlog instead of appending. This bounds the channel's lag at [w]
   frames in flight plus one pending payload no matter how fast the
   caller publishes — without it a sender publishing faster than the
   channel round-trips grows the backlog without bound and its peer
   only ever sees stale state. *)
let send_latest s body =
  Ring.clear s.pending;
  send s body

(* Receiver state loss detected (valid-epoch ack behind our base): bump
   the epoch and renumber the unacked window from zero — at most [w]
   frames, all retransmitted under the new epoch. *)
let resync s =
  let inflight = ref [] in
  for seq = s.next - 1 downto s.base do
    inflight := s.buf.(seq mod s.w) :: !inflight
  done;
  s.s_epoch <- s.s_epoch + 1;
  s.base <- 0;
  s.next <- 0;
  Array.fill s.buf 0 s.w None;
  List.fold_left
    (fun acc body ->
      match body with
      | None -> acc
      | Some body ->
          s.buf.(s.next mod s.w) <- Some body;
          let fr = Data { epoch = s.s_epoch; seq = s.next; body } in
          s.next <- s.next + 1;
          s.retransmits <- s.retransmits + 1;
          fr :: acc)
    [] !inflight
  |> List.rev

let on_ack s ~epoch ~cum ~nak =
  if epoch <> s.s_epoch then []
  else if cum + 1 < s.base then resync s
  else begin
    (* Cumulative ack: release [base .. cum]. *)
    let upto = min cum (s.next - 1) in
    while s.base <= upto do
      s.buf.(s.base mod s.w) <- None;
      s.base <- s.base + 1
    done;
    let fresh = fill s [] in
    (* Selective retransmit of the reported gap, if still unacked. *)
    if nak >= s.base && nak < s.next then begin
      s.retransmits <- s.retransmits + 1;
      fresh @ [ frame_at s nak ]
    end
    else fresh
  end

(* Retransmission timeout: resend the base frame — the cumulative-ack
   repair; one frame per fire keeps timer chatter bounded. *)
let on_rto s =
  if s.next > s.base then begin
    s.retransmits <- s.retransmits + 1;
    [ frame_at s s.base ]
  end
  else []

let reset_sender s =
  s.s_epoch <- s.s_epoch + 1;
  s.base <- 0;
  s.next <- 0;
  Array.fill s.buf 0 s.w None;
  Ring.clear s.pending

let reset_receiver r =
  (* A recovered receiver must not resume its old epoch (the sender
     would keep old seq numbering against an emptied window): moving to
     a fresh epoch forces adoption on the next Data frame. *)
  r.r_epoch <- r.r_epoch + 1;
  r.expected <- 0;
  Array.fill r.rbuf 0 r.rw None

let on_data r ~epoch ~seq body =
  if epoch <> r.r_epoch then begin
    (* Adopt any foreign epoch: reset the window to it. Stray frames of
       dead epochs are finite, so flapping is finite; the live sender's
       epoch wins in the end. *)
    r.r_epoch <- epoch;
    r.expected <- 0;
    Array.fill r.rbuf 0 r.rw None
  end;
  if seq < r.expected then
    (* Duplicate of something already delivered: re-ack so a lost ack
       cannot wedge the sender. *)
    ([], Ack { epoch = r.r_epoch; cum = r.expected - 1; nak = -1 })
  else if seq >= r.expected + r.rw then
    (* Beyond the window (receiver reset, or garbage): drop and point
       the sender at what we actually need. *)
    ([], Ack { epoch = r.r_epoch; cum = r.expected - 1; nak = r.expected })
  else begin
    r.rbuf.(seq mod r.rw) <- Some body;
    (* Drain the in-order prefix. *)
    let delivered = ref [] in
    let continue = ref true in
    while !continue do
      match r.rbuf.(r.expected mod r.rw) with
      | Some b ->
          r.rbuf.(r.expected mod r.rw) <- None;
          delivered := b :: !delivered;
          r.expected <- r.expected + 1
      | None -> continue := false
    done;
    (* Report the first gap (if any frame is buffered past it). *)
    let buffered_ahead = Array.exists Option.is_some r.rbuf in
    let nak = if buffered_ahead then r.expected else -1 in
    (List.rev !delivered, Ack { epoch = r.r_epoch; cum = r.expected - 1; nak })
  end
