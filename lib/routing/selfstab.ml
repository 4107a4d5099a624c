type tie = Smallest_id | Largest_id

type entry = { dist : int; via : int }
type state = entry array

let equal_entry a b = a.dist = b.dist && a.via = b.via

(* The canonical tree for a tie-break: among the neighbors strictly
   closer to d, the smallest or largest id. [dist q] is dist(q, d); it is
   read only for p and its neighbors. *)
let canonical_via ?(tie = Smallest_id) g ~dist p =
  let closer q = dist q = dist p - 1 in
  match List.filter closer (Topology.Graph.neighbors g p) with
  | [] -> invalid_arg "Selfstab.canonical_via: disconnected graph"
  | q :: _ as qs -> (
      match tie with
      | Smallest_id -> q
      | Largest_id -> List.fold_left max q qs)

(* The graph is undirected, so dist(q, d) is the BFS distance from q: a
   BFS from p and one from each neighbor give every distance p's table
   reads. *)
let init_correct ?(tie = Smallest_id) g p =
  let n = Topology.Graph.n g in
  let from = Array.make n [||] in
  List.iter
    (fun q -> from.(q) <- Topology.Metrics.bfs_distances g q)
    (p :: Topology.Graph.neighbors g p);
  Array.init n (fun d ->
      if d = p then { dist = 0; via = p }
      else
        {
          dist = from.(p).(d);
          via = canonical_via ~tie g ~dist:(fun q -> from.(q).(d)) p;
        })

let init_correct_all ?(tie = Smallest_id) g =
  let n = Topology.Graph.n g in
  let dist_to = Array.init n (fun d -> Topology.Metrics.bfs_distances g d) in
  Array.init n (fun p ->
      Array.init n (fun d ->
          if d = p then { dist = 0; via = p }
          else
            {
              dist = dist_to.(p).(d);
              via = canonical_via ~tie g ~dist:(Array.get dist_to.(d)) p;
            }))

let init_random rng g p =
  let n = Topology.Graph.n g in
  let candidates = p :: Topology.Graph.neighbors g p in
  Array.init n (fun _ ->
      { dist = Prng.Splitmix.int rng (n + 1);
        via = Prng.Splitmix.choose rng candidates })

let init_worst g p =
  let n = Topology.Graph.n g in
  let largest_neighbor =
    List.fold_left max 0 (Topology.Graph.neighbors g p)
  in
  Array.init n (fun _ -> { dist = 0; via = largest_neighbor })

(* The neighbor the rule points at, -1 when p has none. Neighbors are
   visited in increasing id order, so keeping the first minimum gives the
   smallest-id tie-break and keeping the last the largest-id one. Only
   the winner is returned, so the scan allocates nothing; [target_dist]
   reads its distance again. *)
let rec best_via ~tie ~read ~d bd bv = function
  | [] -> bv
  | q :: rest ->
      let qd = (read q).(d).dist in
      let wins = match tie with Smallest_id -> qd < bd | Largest_id -> qd <= bd in
      if wins then best_via ~tie ~read ~d qd q rest
      else best_via ~tie ~read ~d bd bv rest

let target_dist g ~read ~d via =
  let n = Topology.Graph.n g in
  let bd = if via < 0 then max_int else (read via).(d).dist in
  if bd >= n then n else bd + 1

let target_via ~tie g ~read ~p ~d =
  best_via ~tie ~read ~d max_int (-1) (Topology.Graph.neighbors g p)

let target ?(tie = Smallest_id) g ~read ~p ~d =
  if p = d then { dist = 0; via = p }
  else
    let via = target_via ~tie g ~read ~p ~d in
    { dist = target_dist g ~read ~d via; via }

(* [not (equal_entry (read p).(d) (target ...))] without building the
   target: evaluated for every destination at every guard evaluation. *)
let enabled ?(tie = Smallest_id) g ~read ~p ~d =
  let e = (read p).(d) in
  if p = d then e.dist <> 0 || e.via <> p
  else
    let via = target_via ~tie g ~read ~p ~d in
    e.via <> via || e.dist <> target_dist g ~read ~d via

let enabled_dests ?(tie = Smallest_id) g ~read ~p =
  let n = Topology.Graph.n g in
  let rec loop d acc =
    if d < 0 then acc
    else loop (d - 1) (if enabled ~tie g ~read ~p ~d then d :: acc else acc)
  in
  loop (n - 1) []

let apply ?(tie = Smallest_id) g ~read ~p ~d =
  let table = Array.copy (read p) in
  table.(d) <- target ~tie g ~read ~p ~d;
  table

let next_hop state ~d = state.(d).via

let is_silent ?(tie = Smallest_id) g read =
  let n = Topology.Graph.n g in
  let rec loop p =
    p >= n || (enabled_dests ~tie g ~read ~p = [] && loop (p + 1))
  in
  loop 0

let is_correct ?(tie = Smallest_id) g read =
  let n = Topology.Graph.n g in
  let rec loop p =
    p >= n
    || (Array.for_all2 equal_entry (read p) (init_correct ~tie g p)
       && loop (p + 1))
  in
  loop 0

let stabilize ?(tie = Smallest_id) g read =
  let n = Topology.Graph.n g in
  let current = Array.init n read in
  let rounds = ref 0 in
  (* Synchronous execution of A alone: every enabled (p, d) pair fires at
     once. Bounded by O(n) rounds for min-hop distance vectors capped at n;
     the 4n + 4 limit is a safety net against implementation bugs.

     Dirty-set evaluation: [enabled_dests p] reads only p's and its
     neighbors' tables, and the only table writes are the fires
     themselves, so a processor checked disabled stays disabled until a
     closed-neighborhood table changes. Only dirty processors are
     re-checked each round; the fire set (hence rounds and the final
     tables) is identical to the full rescan. *)
  let dirty = Array.make n true in
  let continue = ref true in
  while !continue do
    let read_now p = current.(p) in
    let fired = ref [] in
    let next = Array.copy current in
    for p = 0 to n - 1 do
      if dirty.(p) then
        match enabled_dests ~tie g ~read:read_now ~p with
        | [] -> dirty.(p) <- false
        | dests ->
            let table = Array.copy current.(p) in
            List.iter
              (fun d -> table.(d) <- target ~tie g ~read:read_now ~p ~d)
              dests;
            next.(p) <- table;
            fired := p :: !fired
    done;
    if !fired = [] then continue := false
    else begin
      incr rounds;
      if !rounds > (4 * n) + 4 then
        failwith "Selfstab.stabilize: did not reach silence (bug)";
      Array.blit next 0 current 0 n;
      List.iter
        (fun p ->
          dirty.(p) <- true;
          List.iter (fun q -> dirty.(q) <- true) (Topology.Graph.neighbors g p))
        !fired
    end
  done;
  (!rounds, fun p -> current.(p))
