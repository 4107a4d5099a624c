(* Glue between the generic Chandy–Lamport engine and the SSMFP
   message-passing synchronizer (Mp.Ssmfp_mp).

   The recordable view of a process is its pulse counter, its SSMFP core
   and its event ledger; the channel payloads are the synchronizer's
   pulse snapshots. Ledgers are fed from the synchronizer's event hook —
   the hook fires synchronously inside the process's own barrier
   execution, so a ledger append is a local step of that process and
   capturing the (immutable) ledger value at marker time is a legitimate
   local-state record.

   The link owns its own PRNG for marker fault draws: the scheduler's
   stream is never touched, so a run with the snapshot layer attached
   but never initiated is byte-identical to a run without it. *)

type view = { v_pulse : int; v_core : Ssmfp.State.t; v_ledger : Ledger.t }
type cut = (view, Mp.Ssmfp_mp.payload) Cut.t

type t = {
  sys : Mp.Ssmfp_mp.t;
  eng : (view, Mp.Ssmfp_mp.payload) Engine.t;
  ledgers : Ledger.t array;
  n : int;
}

let encode_view c v =
  Mc.Codec.add_int c v.v_pulse;
  Mc.Codec.add_core c v.v_core;
  Ledger.encode c v.v_ledger

let encode_payload c (Mp.Ssmfp_mp.Snapshot (k, pub)) =
  Mc.Codec.add_int c k;
  Array.iter
    (fun (e : Routing.Selfstab.entry) ->
      Mc.Codec.add_int c e.Routing.Selfstab.dist;
      Mc.Codec.add_int c e.Routing.Selfstab.via)
    pub.Mp.Ssmfp_mp.pub_routing;
  Array.iter
    (fun (sl : Ssmfp.State.slot) ->
      Mc.Codec.add_msg c sl.Ssmfp.State.buf_r;
      Mc.Codec.add_msg c sl.Ssmfp.State.buf_e)
    pub.Mp.Ssmfp_mp.pub_bufs

(* Cores and payloads share their routing and slot arrays with the live
   processes (copy-on-write, see Ssmfp_mp); every element is immutable,
   so copying the two array spines freezes them. *)
let freeze_core (c : Ssmfp.State.t) =
  {
    c with
    Ssmfp.State.routing = Array.copy c.Ssmfp.State.routing;
    slots = Array.copy c.Ssmfp.State.slots;
  }

let freeze_view v = { v with v_core = freeze_core v.v_core }

let freeze_payload (Mp.Ssmfp_mp.Snapshot (k, pub)) =
  Mp.Ssmfp_mp.Snapshot
    ( k,
      {
        Mp.Ssmfp_mp.pub_routing = Array.copy pub.Mp.Ssmfp_mp.pub_routing;
        pub_bufs = Array.copy pub.Mp.Ssmfp_mp.pub_bufs;
      } )

let attach ?prof ~seed sys =
  let g = Mp.Ssmfp_mp.graph sys in
  let n = Topology.Graph.n g in
  let ledgers = Array.make n Ledger.empty in
  Mp.Ssmfp_mp.set_event_hook sys (fun ~pid ~pulse ev ->
      ledgers.(pid) <- Ledger.observe ledgers.(pid) ~pulse ev);
  (* Own stream, derived from the run seed but offset so it never
     collides with the scheduler's or the workload's derivations. *)
  let rng = Prng.Splitmix.of_int ((seed * 0x9e3779b9) + 0x5ead) in
  let eng =
    Engine.create ?prof
      ~send:(fun ~from ~into ~epoch ->
        Mp.Ssmfp_mp.send_marker sys rng ~from ~into ~epoch)
      ~capture:(fun p ->
        {
          v_pulse = Mp.Ssmfp_mp.pulse_of sys p;
          v_core = Mp.Ssmfp_mp.core sys p;
          v_ledger = ledgers.(p);
        })
      ~freeze_state:freeze_view ~freeze_msg:freeze_payload
      ~encode_state:encode_view ~encode_msg:encode_payload
      ~clock:(fun () -> Mp.Ssmfp_mp.channel_deliveries sys)
      g
  in
  Mp.Ssmfp_mp.on_marker sys (fun ~self ~from ~epoch ->
      Engine.handle_marker eng ~self ~from ~epoch);
  Mp.Ssmfp_mp.on_deliver sys (fun ~self ~from m -> Engine.tap eng ~self ~from m);
  { sys; eng; ledgers; n }

let tap t ~self ~from m = Engine.tap t.eng ~self ~from m
let initiate ?initiator t = Engine.initiate ?initiator t.eng
let tick t = Engine.tick t.eng
let active t = Engine.active t.eng
let epoch t = Engine.epoch t.eng
let take_completed t = Engine.take_completed t.eng
let stats t = Engine.stats t.eng
let ledger t p = t.ledgers.(p)
let marker_stats t = Mp.Ssmfp_mp.marker_stats t.sys

(* Fingerprint over SSMFP cores only, via the canonical walk. Used by
   the differential tests: at quiescence the cores are stable (pulses
   keep advancing), so a final cut's core fingerprint must equal the
   live one read from the engine internals. *)
let cores_fingerprint_of list_n states_core =
  let c = Mc.Codec.create () in
  let fp = ref (Mc.Codec.combine Mc.Codec.fnv_offset list_n) in
  for p = 0 to list_n - 1 do
    Mc.Codec.reset c;
    Mc.Codec.add_core c (states_core p);
    fp := Mc.Codec.combine !fp (Mc.Codec.hash c)
  done;
  !fp

let cut_cores_fingerprint (cut : cut) =
  cores_fingerprint_of (Array.length cut.Cut.states) (fun p ->
      cut.Cut.states.(p).v_core)

let live_cores_fingerprint t =
  cores_fingerprint_of t.n (fun p -> Mp.Ssmfp_mp.core t.sys p)

(* A cut is consistent when it captures no effect without its cause:
   every valid delivery recorded in the cut's ledgers has its generation
   recorded too. Reorder-induced FIFO violations can break this (the
   engine documents why); the oracle counts rather than assumes. *)
let consistent (cut : cut) =
  let generated = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      List.iter
        (fun (gid, _, _) -> Hashtbl.replace generated gid ())
        v.v_ledger.Ledger.generated)
    cut.Cut.states;
  Array.for_all
    (fun v ->
      List.for_all
        (fun (gid, _) -> Hashtbl.mem generated gid)
        v.v_ledger.Ledger.delivered)
    cut.Cut.states

let fingerprint_hex (cut : cut) = Printf.sprintf "%016x" cut.Cut.fingerprint

let cut_to_json (cut : cut) : Obs.Json.t =
  let states =
    Array.to_list cut.Cut.states
    |> List.mapi (fun pid v ->
           Obs.Json.Obj
             [
               ("pid", Obs.Json.Int pid);
               ("pulse", Obs.Json.Int v.v_pulse);
               ("generated", Obs.Json.Int v.v_ledger.Ledger.n_generated);
               ("delivered", Obs.Json.Int v.v_ledger.Ledger.n_delivered);
               ("invalid", Obs.Json.Int v.v_ledger.Ledger.n_invalid);
             ])
  in
  let channels =
    List.filter_map
      (fun ((from, into), msgs) ->
        if msgs = [] then None
        else
          Some
            (Obs.Json.Obj
               [
                 ("from", Obs.Json.Int from);
                 ("into", Obs.Json.Int into);
                 ("in_flight", Obs.Json.Int (List.length msgs));
               ]))
      cut.Cut.channels
  in
  Obs.Json.Obj
    [
      ("epoch", Obs.Json.Int cut.Cut.epoch);
      ("initiator", Obs.Json.Int cut.Cut.initiator);
      ("started_at", Obs.Json.Int cut.Cut.started_at);
      ("completed_at", Obs.Json.Int cut.Cut.completed_at);
      ("latency", Obs.Json.Int (Cut.latency cut));
      ("in_flight", Obs.Json.Int (Cut.in_flight cut));
      ("markers_resent", Obs.Json.Int cut.Cut.markers_resent);
      ("fingerprint", Obs.Json.String (fingerprint_hex cut));
      ("shadow_ok", Obs.Json.Bool (Cut.shadow_ok cut));
      ("consistent", Obs.Json.Bool (consistent cut));
      ("states", Obs.Json.List states);
      ("channels", Obs.Json.List channels);
    ]
