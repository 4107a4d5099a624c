(** Partial-synchrony channel configuration: known message-delay bound
    [delta], unknown-to-the-protocol global stabilization time [gst]
    (Dwork–Lynch–Stockmeyer). Threaded into {!Network.create}: before
    step [gst] the unreliability knobs apply unchanged; from [gst] on,
    fault draws are suppressed and an O(1)-per-step round-robin age
    probe forces delivery from any channel continuously nonempty for
    more than [delta] steps — so post-GST every channel head delivers
    within [delta + C] steps ([C] = directed channel count). *)

type t

val make : delta:int -> gst:int -> t
(** @raise Invalid_argument unless [delta >= 1] and [gst >= 0]. *)

val delta : t -> int
val gst : t -> int

val to_string : t -> string
(** ["DELTA/GST"], for diagnostics (schedules spell the setting
    [ps=<delta>:<gst>]). *)
