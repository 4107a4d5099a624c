(* Partial synchrony a la Dwork–Lynch–Stockmeyer (SNIPPETS Snippet 3):
   the message delay bound Δ is known, the global stabilization time GST
   is unknown to the protocol but fixed by the adversary. The network
   realizes the pair as: before [gst] the loss/duplication/reorder knobs
   apply unchanged; from step [gst] on, fault draws are suppressed and a
   round-robin age probe forces delivery from any channel that has been
   continuously nonempty for more than [delta] steps — so after GST every
   channel head is delivered within [delta + C] steps, C the number of
   directed channels (the probe visits each channel once per C steps).
   The window layer's RTO is derived from [delta]; its liveness claim is
   stated against exactly this model. *)

type t = { delta : int; gst : int }

let make ~delta ~gst =
  if delta < 1 then invalid_arg "Synchrony.make: delta must be >= 1";
  if gst < 0 then invalid_arg "Synchrony.make: gst must be >= 0";
  { delta; gst }

let delta t = t.delta
let gst t = t.gst

let to_string t = Printf.sprintf "%d/%d" t.delta t.gst
