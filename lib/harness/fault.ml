type routing_mode = Correct | Random | Worst

type spec = {
  routing : routing_mode;
  buffer_fill : float;
  scramble_queues : bool;
  random_requests : bool;
  random_rr : bool;
  payload_pool : string list;
}

let pristine =
  {
    routing = Correct;
    buffer_fill = 0.;
    scramble_queues = false;
    random_requests = false;
    random_rr = false;
    payload_pool = [];
  }

let default_pool = [ "msg"; "x"; "s0-0"; "hot" ]

let adversarial =
  {
    routing = Worst;
    buffer_fill = 1.;
    scramble_queues = true;
    random_requests = true;
    random_rr = true;
    payload_pool = default_pool;
  }

let random_spec rng =
  {
    routing =
      (match Prng.Splitmix.int rng 3 with
      | 0 -> Correct
      | 1 -> Random
      | _ -> Worst);
    buffer_fill = Prng.Splitmix.float rng 1.0;
    scramble_queues = Prng.Splitmix.bool rng;
    random_requests = Prng.Splitmix.bool rng;
    random_rr = Prng.Splitmix.bool rng;
    payload_pool = default_pool;
  }

let needs_rng spec =
  spec.routing = Random || spec.buffer_fill > 0. || spec.scramble_queues
  || spec.random_requests || spec.random_rr

let invalid_message rng g ~at ~delta pool =
  let last = Prng.Splitmix.choose rng (at :: Topology.Graph.neighbors g at) in
  let color = Prng.Splitmix.int rng (delta + 1) in
  let info = Prng.Splitmix.choose rng pool in
  Ssmfp.Message.fresh_invalid ~at ~last ~color info

let initial_states ?rng spec g ~workload p =
  let rng =
    match rng with
    | Some r -> r
    | None ->
        if needs_rng spec then
          invalid_arg "Fault.initial_states: spec needs a rng"
        else Prng.Splitmix.of_int 0
  in
  let n = Topology.Graph.n g in
  let delta = Topology.Graph.max_degree g in
  let routing =
    match spec.routing with
    | Correct -> Routing.Selfstab.init_correct g p
    | Random -> Routing.Selfstab.init_random rng g p
    | Worst -> Routing.Selfstab.init_worst g p
  in
  let pool = if spec.payload_pool = [] then default_pool else spec.payload_pool in
  let slot _d =
    let buf () =
      if Prng.Splitmix.bernoulli rng spec.buffer_fill then
        Some (invalid_message rng g ~at:p ~delta pool)
      else None
    in
    let queue =
      let base = p :: Topology.Graph.neighbors g p in
      if spec.scramble_queues then Prng.Splitmix.shuffle rng base else base
    in
    { Ssmfp.State.buf_r = buf (); buf_e = buf (); queue }
  in
  {
    Ssmfp.State.routing;
    slots = Array.init n slot;
    rr = (if spec.random_rr then Prng.Splitmix.int rng n else 0);
    request = (if spec.random_requests then Prng.Splitmix.bool rng else false);
    outbox = workload.(p);
  }

let fill_component g ~dest states =
  let delta = Topology.Graph.max_degree g in
  let planted = ref 0 in
  Array.iteri
    (fun p st ->
      let last =
        match Topology.Graph.neighbors g p with q :: _ -> q | [] -> p
      in
      let mk () =
        incr planted;
        Some
          (Ssmfp.Message.fresh_invalid ~at:p ~last
             ~color:((!planted - 1) mod (delta + 1))
             (Printf.sprintf "inv%d" !planted))
      in
      let sl = Ssmfp.State.slot st dest in
      states.(p) <-
        Ssmfp.State.with_slot st dest
          { sl with Ssmfp.State.buf_r = mk (); buf_e = mk () })
    states;
  !planted

let invalid_count states =
  Array.fold_left
    (fun acc st ->
      List.fold_left
        (fun acc (_, _, m) ->
          if Ssmfp.Message.is_valid m then acc else acc + 1)
        acc
        (Ssmfp.State.occupied_buffers st))
    0 states
