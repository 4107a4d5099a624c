(* Shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

(* Minor-heap words [f ()] allocates, less what an empty measurement
   reads. *)
let minor_words f =
  let measure g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  let base = measure ignore in
  measure f -. base

(* Build a synthetic SSMFP configuration on [g] from per-processor edits. *)
let config g edits =
  let states = Array.init (Topology.Graph.n g) (fun p -> Ssmfp.State.clean g p) in
  List.iter (fun f -> f states) edits;
  states

let set_buf states p d which msg =
  let sl = Ssmfp.State.slot states.(p) d in
  states.(p) <-
    (match which with
    | `R -> Ssmfp.State.with_slot states.(p) d { sl with Ssmfp.State.buf_r = msg }
    | `E -> Ssmfp.State.with_slot states.(p) d { sl with Ssmfp.State.buf_e = msg })

let net_of g states = Sim.Engine.synthetic ~graph:g ~states
