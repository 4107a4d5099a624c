type t = {
  n : int;
  adj : int list array; (* adj.(p) = N_p, sorted increasingly *)
  edges : (int * int) list; (* u < v, sorted *)
}

exception Invalid_edge of int * int

let create ~n ~edges =
  if n < 1 then invalid_arg "Graph.create: n < 1";
  let check (u, v) =
    if u = v || u < 0 || v < 0 || u >= n || v >= n then raise (Invalid_edge (u, v))
  in
  List.iter check edges;
  let norm (u, v) = if u < v then (u, v) else (v, u) in
  let edges = List.sort_uniq compare (List.map norm edges) in
  let adj = Array.make n [] in
  let add (u, v) =
    adj.(u) <- v :: adj.(u);
    adj.(v) <- u :: adj.(v)
  in
  List.iter add edges;
  Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
  { n; adj; edges }

let n g = g.n
let edges g = g.edges
let edge_count g = List.length g.edges

let neighbors g p =
  if p < 0 || p >= g.n then invalid_arg "Graph.neighbors: bad vertex";
  g.adj.(p)

let degree g p = List.length (neighbors g p)

let max_degree g =
  Array.fold_left (fun acc l -> max acc (List.length l)) 0 g.adj

let is_edge g u v =
  u >= 0 && u < g.n && v >= 0 && v < g.n && List.mem v g.adj.(u)

let mem_vertex g p = p >= 0 && p < g.n

let is_connected g =
  let seen = Array.make g.n false in
  let rec dfs p =
    if not seen.(p) then begin
      seen.(p) <- true;
      List.iter dfs g.adj.(p)
    end
  in
  dfs 0;
  Array.for_all (fun b -> b) seen

let fold_vertices f g acc =
  let rec loop i acc = if i >= g.n then acc else loop (i + 1) (f i acc) in
  loop 0 acc

let iter_vertices f g =
  for p = 0 to g.n - 1 do
    f p
  done

let vertices g = List.init g.n (fun i -> i)

let pp fmt g =
  Format.fprintf fmt "graph(n=%d, m=%d, edges=[%s])" g.n (edge_count g)
    (String.concat "; "
       (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) g.edges))
