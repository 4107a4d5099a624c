(** Metrics registry: named counters, gauges and histograms.

    The engine and runner feed it through lightweight probe hooks
    (per-rule move counts, round durations in moves, enabled-frontier
    size, buffer occupancy, oracle latency/delay samples); a {!snapshot}
    freezes everything into plain data for reports, assertions and JSON
    export.

    Names are flat strings; the runner uses dotted prefixes by
    convention ([moves.R3], [oracle.valid_delivered]). Unknown names
    spring into existence on first use — a registry is a sink, not a
    schema. *)

type t

val create : unit -> t

(** {2 Instruments} *)

val incr : ?by:int -> t -> string -> unit
(** Bump a counter (monotonic, starts at 0). *)

val set_gauge : t -> string -> float -> unit
(** Set a gauge (last-write-wins sampled value). *)

val observe : t -> string -> float -> unit
(** Add a sample to a histogram. A histogram keeps one count per
    distinct value (by float bits), so its memory grows with the number
    of distinct samples, not with the number of observations. *)

(** {2 Snapshots} *)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}
(** [Harness.Stats]-style digest of a histogram's samples (nearest-rank
    percentiles, [nan] on the empty sample). Equal to the digest of the
    sorted sample list whenever no sample is [nan] or [-0.]. *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histograms : (string * summary) list;  (** sorted by name *)
}

val snapshot : t -> snapshot
(** Freeze the current contents. The registry keeps accumulating. *)

val counter_value : snapshot -> string -> int
(** 0 when the counter never fired. *)

val gauge_value : snapshot -> string -> float option
val histogram_summary : snapshot -> string -> summary option

val snapshot_to_json : snapshot -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {count,mean,min,max,p50,p90,p99}}}]. *)
