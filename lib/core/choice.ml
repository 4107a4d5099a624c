let members g ~p = p :: Topology.Graph.neighbors g p

(* Every list here holds ints, compared inline rather than through the
   polymorphic [List.mem] and [compare]. *)
let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> y = x || mem_int x rest

(* The first occurrence of each member of N_p ∪ {p} in [queue], onto
   [kept] in reverse queue order. *)
let rec firsts g ~p kept = function
  | [] -> kept
  | x :: rest ->
      if (x = p || Topology.Graph.is_edge g p x) && not (mem_int x kept) then
        firsts g ~p (x :: kept) rest
      else firsts g ~p kept rest

let normalize g ~p queue =
  (* N_p is ascending, so merging p in sorts N_p ∪ {p}. *)
  let ascending =
    List.merge Int.compare [ p ] (Topology.Graph.neighbors g p)
  in
  let kept = firsts g ~p [] queue in
  List.rev_append kept
    (List.filter (fun x -> not (mem_int x kept)) ascending)

let is_well_formed g ~p queue =
  let allowed = List.sort compare (members g ~p) in
  List.sort compare queue = allowed && List.length queue = List.length allowed

let select ~candidate queue = List.find_opt candidate queue

let serve (s : int) queue = List.filter (fun x -> x <> s) queue @ [ s ]
