type message = {
  info : string;
  src : int;
  seq : int;
  ghost : Ssmfp.Message.ghost;
}

type t = {
  graph : Topology.Graph.t;
  tree : int array array; (* tree.(d).(p) = next hop from p towards d *)
  bufs : message option array array; (* bufs.(p).(d) *)
  queues : int list array array; (* queues.(p).(d): feeder fairness *)
  outbox : (int * string) Queue.t array;
  seq_next : int array;
  mutable rounds : int;
  mutable moves : int;
  mutable delivered : (int * message) list; (* reverse order *)
}

type stats = {
  rounds : int;
  moves : int;
  delivered : (int * message) list;
}

let create graph =
  let n = Topology.Graph.n graph in
  {
    graph;
    tree = Array.init n (fun d -> Topology.Metrics.shortest_path_tree graph d);
    bufs = Array.init n (fun _ -> Array.make n None);
    queues =
      Array.init n (fun p ->
          Array.init n (fun _ -> p :: Topology.Graph.neighbors graph p));
    outbox = Array.init n (fun _ -> Queue.create ());
    seq_next = Array.make n 0;
    rounds = 0;
    moves = 0;
    delivered = [];
  }

let send t ~src ~dest info = Queue.add (dest, info) t.outbox.(src)

let buffer t ~p ~d = t.bufs.(p).(d)

(* Can s feed b_p(d) right now? Either s is a neighbor whose buffered
   message for d is routed through p, or s = p itself with a pending
   outbox message for d. *)
let can_feed t ~p ~d s =
  if s = p then
    match Queue.peek_opt t.outbox.(p) with
    | Some (dest, _) -> dest = d
    | None -> false
  else
    match t.bufs.(s).(d) with
    | Some _ -> t.tree.(d).(s) = p
    | None -> false

let serve queue s = List.filter (fun x -> x <> s) queue @ [ s ]

let step t =
  let n = Topology.Graph.n t.graph in
  let moves_before = t.moves in
  t.rounds <- t.rounds + 1;
  (* Consumption: every message sitting at its destination is delivered. *)
  for d = 0 to n - 1 do
    match t.bufs.(d).(d) with
    | Some m ->
        t.bufs.(d).(d) <- None;
        t.delivered <- (t.rounds, m) :: t.delivered;
        t.moves <- t.moves + 1
    | None -> ()
  done;
  (* Receiver-driven pulls: every empty buffer fairly selects a feeder.
     Decisions are taken against the pre-pull configuration (collected
     first, then applied), so one step moves each message at most once. *)
  let pulls = ref [] in
  for p = 0 to n - 1 do
    for d = 0 to n - 1 do
      if t.bufs.(p).(d) = None then
        match List.find_opt (can_feed t ~p ~d) t.queues.(p).(d) with
        | Some s -> pulls := (p, d, s) :: !pulls
        | None -> ()
    done
  done;
  let apply (p, d, s) =
    t.queues.(p).(d) <- serve t.queues.(p).(d) s;
    t.moves <- t.moves + 1;
    if s = p then begin
      let _, info = Queue.pop t.outbox.(p) in
      let seq = t.seq_next.(p) in
      t.seq_next.(p) <- seq + 1;
      let msg = Ssmfp.Message.fresh_valid ~src:p info in
      t.bufs.(p).(d) <-
        Some { info; src = p; seq; ghost = msg.Ssmfp.Message.ghost }
    end
    else begin
      (* Atomic copy-and-erase: the §2.2 forwarding move. *)
      t.bufs.(p).(d) <- t.bufs.(s).(d);
      t.bufs.(s).(d) <- None
    end
  in
  List.iter apply !pulls;
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

let stats (t : t) =
  { rounds = t.rounds; moves = t.moves; delivered = List.rev t.delivered }
