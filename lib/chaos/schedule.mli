(** Timed, seeded fault schedules.

    A schedule says {e when} transient faults strike a running execution
    ({!burst}s, timed in rounds — engine rounds in the state model,
    synchronizer pulses in the mp model), {e what} they corrupt (the
    {!domain}s, drawn from the same variable domains as
    [Harness.Fault]'s initial corruption) and {e whom} (the
    {!victims}), plus the reliability of the channels underneath an mp
    run (the {!channel} preset).

    Schedules have a compact string form usable inside campaign scenario
    ids (no ['/'] or [','] — bursts are joined with ['+'] and fields
    with [':']):

    {v
    none                      no faults, reliable channels
    40:rbqf:all               one burst at round 40, all four state
                              domains, every processor
    40:rb:2+90:b:1@lossy      routing+buffer burst on 2 victims at round
                              40, buffer burst on 1 victim at round 90,
                              lossy channels
    none@lossy@win=8          lossy channels, sliding window of
                              size 8
    40:c:2@flaky@ps=8:2000    crash burst under flaky channels that turn
                              synchronous (delta = 8) at step 2000
    v}

    ['@']-separated modifiers after the burst list: a channel preset
    ([reliable] / [lossy] / [flaky]), [win=<k>] (the mp port's
    sliding-window size, [1 <= k <= ]{!Mp.Window.max_size}; absent =
    the port's default, {!Mp.Ssmfp_mp.create}) and [ps=<delta>:<gst>]
    (partial-synchrony channels, {!Mp.Synchrony}), in any order.
    [to_string] omits absent modifiers, so every schedule string (and
    the campaign scenario ids built from them) round-trips unchanged.

    [of_string] accepts domains in any order with duplicates and
    normalizes to the canonical [rbqfc] order, so
    [to_string (of_string s)] is a fixpoint. *)

type domain =
  | Routing  (** routing entries re-randomized within domain *)
  | Buffers  (** invalid ghosts planted into bufR/bufE *)
  | Queues  (** fairness queues re-shuffled *)
  | Flags  (** request flag and rr cursor randomized *)
  | Crash
      (** state model: amnesia restart (protocol state reset, outbox
          kept); mp model: the process goes down for a span of scheduler
          steps and loses its synchronizer state on recovery *)

val all_domains : domain list
val domain_letter : domain -> char

type victims = All | Count of int  (** sampled without replacement *)

type burst = { at : int; domains : domain list; victims : victims }

type channel = Reliable | Lossy | Flaky

type knobs = { loss : float; duplication : float; reorder : float }

val channel_knobs : channel -> knobs
(** Presets: reliable = all 0; lossy = 0.15/0.05/0.10;
    flaky = 0.30/0.10/0.20. *)

val channel_to_string : channel -> string

type t = {
  bursts : burst list;
  channel : channel;
  window : int option;
      (** sliding-window size under an mp run ({!Mp.Window}); [None] =
          the default of {!Mp.Ssmfp_mp.create} *)
  synchrony : Mp.Synchrony.t option;
      (** partial-synchrony channel model; [None] = fully asynchronous *)
}

val none : t
(** No bursts, reliable channels — the schedule whose runs must be
    byte-identical to plain runner runs. *)

val is_none : t -> bool

val knobs : t -> knobs

val to_string : t -> string
val of_string : string -> (t, string) result
(** Bursts come back sorted by round; [of_string (to_string t)] is the
    identity on sorted-normalized schedules. *)
