type message = {
  info : string;
  src : int;
  dest : int;
  hops : int;
  ghost : Ssmfp.Message.ghost;
}

type stats = {
  rounds : int;
  moves : int;
  delivered : (int * message) list;
  dropped : int;
}

type t = {
  graph : Topology.Graph.t;
  tables : Routing.Table.t;
  classes : int; (* D + 1 *)
  bufs : message option array array; (* bufs.(p).(k) *)
  queues : int list array array; (* queues.(p).(k): feeder fairness into class k at p *)
  outbox : (int * string) Queue.t array;
  mutable rounds : int;
  mutable moves : int;
  mutable delivered : (int * message) list;
  mutable dropped : int;
}

let create ?tables graph =
  let n = Topology.Graph.n graph in
  let tables =
    match tables with Some t -> t | None -> Routing.Table.correct_all graph
  in
  let classes = Topology.Metrics.diameter graph + 1 in
  {
    graph;
    tables;
    classes;
    bufs = Array.init n (fun _ -> Array.make classes None);
    queues =
      Array.init n (fun p ->
          Array.init classes (fun _ -> Topology.Graph.neighbors graph p));
    outbox = Array.init n (fun _ -> Queue.create ());
    rounds = 0;
    moves = 0;
    delivered = [];
    dropped = 0;
  }

let buffers_per_processor t = t.classes

let send t ~src ~dest info = Queue.add (dest, info) t.outbox.(src)

let next_hop t p dest = Routing.Selfstab.next_hop t.tables.(p) ~d:dest

let serve queue s = List.filter (fun x -> x <> s) queue @ [ s ]

let step t =
  let n = Topology.Graph.n t.graph in
  let moves_before = t.moves in
  t.rounds <- t.rounds + 1;
  (* Consumption: any class buffer at the destination is delivered. *)
  for p = 0 to n - 1 do
    for k = 0 to t.classes - 1 do
      match t.bufs.(p).(k) with
      | Some m when m.dest = p ->
          t.bufs.(p).(k) <- None;
          t.delivered <- (t.rounds, m) :: t.delivered;
          t.moves <- t.moves + 1
      | Some _ | None -> ()
    done
  done;
  (* Forwarding, highest class first so each message advances at most one
     class per round. Receiver-driven: every free class-(k+1) buffer
     fairly selects a neighbor with a class-k message routed through it. *)
  for k = t.classes - 2 downto 0 do
    for h = 0 to n - 1 do
      if t.bufs.(h).(k + 1) = None then begin
        let feeds s =
          match t.bufs.(s).(k) with
          | Some m -> m.dest <> s && next_hop t s m.dest = h
          | None -> false
        in
        match List.find_opt feeds t.queues.(h).(k + 1) with
        | Some s ->
            t.queues.(h).(k + 1) <- serve t.queues.(h).(k + 1) s;
            (match t.bufs.(s).(k) with
            | Some m ->
                t.bufs.(h).(k + 1) <- Some { m with hops = k + 1 };
                t.bufs.(s).(k) <- None;
                t.moves <- t.moves + 1
            | None -> ())
        | None -> ()
      end
    done
  done;
  (* Hop-budget exhaustion: a non-delivered message stuck in the last
     class can never advance. Impossible under correct minimal-path
     tables; under corrupted ones, count and drop it. *)
  for p = 0 to n - 1 do
    match t.bufs.(p).(t.classes - 1) with
    | Some m when m.dest <> p ->
        t.bufs.(p).(t.classes - 1) <- None;
        t.dropped <- t.dropped + 1;
        t.moves <- t.moves + 1
    | Some _ | None -> ()
  done;
  (* Generation into class 0. *)
  for p = 0 to n - 1 do
    if t.bufs.(p).(0) = None then
      match Queue.take_opt t.outbox.(p) with
      | Some (dest, info) ->
          let ghost = (Ssmfp.Message.fresh_valid ~src:p info).Ssmfp.Message.ghost in
          t.bufs.(p).(0) <- Some { info; src = p; dest; hops = 0; ghost };
          t.moves <- t.moves + 1
      | None -> ()
  done;
  t.moves - moves_before

let is_quiescent t =
  Array.for_all (fun row -> Array.for_all (( = ) None) row) t.bufs
  && Array.for_all Queue.is_empty t.outbox

let run_to_quiescence t =
  let rec loop budget =
    if is_quiescent t then `Quiescent
    else if budget = 0 then `Max_rounds
    else begin
      ignore (step t);
      loop (budget - 1)
    end
  in
  loop 1_000_000

let stats t =
  {
    rounds = t.rounds;
    moves = t.moves;
    delivered = List.rev t.delivered;
    dropped = t.dropped;
  }
