type t = Selfstab.state array

let correct_all g =
  let n = Topology.Graph.n g in
  let dist_to = Array.init n (fun d -> Topology.Metrics.bfs_distances g d) in
  let tree_towards =
    Array.init n (fun d -> Topology.Metrics.shortest_path_tree g d)
  in
  Array.init n (fun p ->
      Array.init n (fun d ->
          if d = p then { Selfstab.dist = 0; via = p }
          else { Selfstab.dist = dist_to.(d).(p); via = tree_towards.(d).(p) }))

let random_all rng g =
  Array.init (Topology.Graph.n g) (fun p -> Selfstab.init_random rng g p)

let worst_all g =
  Array.init (Topology.Graph.n g) (fun p -> Selfstab.init_worst g p)

let read t p = t.(p)

type walk = Reaches of int list | Loops of int list

let follow g t ~src ~dst =
  let n = Topology.Graph.n g in
  let seen = Hashtbl.create 16 in
  let rec chase p acc =
    if p = dst then Reaches (List.rev (p :: acc))
    else if Hashtbl.mem seen p then Loops (List.rev acc)
    else begin
      Hashtbl.replace seen p ();
      let next = Selfstab.next_hop t.(p) ~d:dst in
      (* A corrupted [via] can point anywhere in its domain (a neighbor or
         self); pointing to self or a non-neighbor is a dead end we report
         as a loop of length one. *)
      if next = p || not (Topology.Graph.is_edge g p next) then
        Loops (List.rev (p :: acc))
      else chase next (p :: acc)
    end
  in
  let _ = n in
  chase src []

let routing_loops g t =
  let n = Topology.Graph.n g in
  let pairs = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        match follow g t ~src ~dst with
        | Loops _ -> pairs := (src, dst) :: !pairs
        | Reaches _ -> ()
    done
  done;
  List.rev !pairs

let corrupted_fraction g t =
  let n = Topology.Graph.n g in
  let canonical = correct_all g in
  let bad = ref 0 in
  for p = 0 to n - 1 do
    for d = 0 to n - 1 do
      if not (Selfstab.equal_entry t.(p).(d) canonical.(p).(d)) then incr bad
    done
  done;
  float_of_int !bad /. float_of_int (n * n)
