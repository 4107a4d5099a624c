(** The snapshot engine attached to the SSMFP synchronizer.

    {!attach} wires a {!Engine} under an [Mp.Ssmfp_mp.t]: markers
    multiplex through the synchronizer's unreliable channels, the
    recordable view of a process is its pulse + SSMFP core + event
    {!Ledger}, and channel state is the in-flight pulse snapshots. The
    link owns its own PRNG (derived from [seed]) for marker fault
    draws, so attaching — or even running — the snapshot layer never
    perturbs the scheduler's stream: snapshot-off runs are byte-
    identical to pre-snapshot builds. *)

type view = {
  v_pulse : int;  (** the process's pulse counter at capture *)
  v_core : Ssmfp.State.t;
  v_ledger : Ledger.t;
}

type cut = (view, Mp.Ssmfp_mp.payload) Cut.t

type t

val attach :
  ?prof:Obs.Prof.t -> ?resend_patience:int -> seed:int -> Mp.Ssmfp_mp.t -> t
(** Install the event hook (feeding per-process ledgers), the marker
    handler and the delivery tap. Call once per system; before any
    {!initiate} the layer is pure bookkeeping. *)

val tap : t -> self:int -> from:int -> Mp.Ssmfp_mp.payload -> unit
(** The delivery tap {!attach} installs, for a caller that installs its
    own tap on the system and still wants channel recording. *)

val initiate : ?initiator:int -> t -> unit
val tick : t -> unit
val active : t -> bool
val epoch : t -> int
val take_completed : t -> cut list
val stats : t -> Engine.stats
val marker_stats : t -> Mp.Ssmfp_mp.marker_stats
val ledger : t -> int -> Ledger.t

val cut_cores_fingerprint : cut -> int
(** Fingerprint of the cut's SSMFP cores alone (pulses and ledgers
    excluded) — comparable with {!live_cores_fingerprint} at
    quiescence, when cores are stable but pulses still advance. *)

val live_cores_fingerprint : t -> int
(** Same walk over the engine's current cores, read omnisciently. *)

val consistent : cut -> bool
(** No effect without cause: every valid delivery in the cut's ledgers
    has its generation in the cut too. Can be [false] under the
    [reorder] knob (markers themselves can overtake payloads). *)

val fingerprint_hex : cut -> string
(** 16-hex-digit rendering of the stored fingerprint (journal lines,
    artifacts). *)

val cut_to_json : cut -> Obs.Json.t
(** Cut summary: identity, latency, fingerprints, consistency, per-
    process ledger counts, non-empty channels. Full states are omitted
    (the fingerprint pins them). *)
