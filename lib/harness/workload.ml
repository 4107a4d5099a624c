type t = (int * Ssmfp.Message.info) list array

let total t = Array.fold_left (fun acc l -> acc + List.length l) 0 t

let empty ~n = Array.make n []

let payload ~distinct ~src ~i =
  if distinct then Printf.sprintf "s%d-%d" src i else "msg"

let single ~n ~src ~dest ~count =
  let t = empty ~n in
  t.(src) <- List.init count (fun i -> (dest, payload ~distinct:true ~src ~i));
  t

let uniform_random ?(distinct_payloads = true) rng ~n ~per_processor =
  Array.init n (fun src ->
      List.init per_processor (fun i ->
          let dest =
            if n = 1 then 0
            else begin
              let d = Prng.Splitmix.int rng (n - 1) in
              if d >= src then d + 1 else d
            end
          in
          (dest, payload ~distinct:distinct_payloads ~src ~i)))

let all_to_one ~n ~dest ~per_processor =
  Array.init n (fun src ->
      if src = dest then []
      else List.init per_processor (fun _ -> (dest, "hot")))

let one_to_all ~n ~src ~rounds =
  let t = empty ~n in
  t.(src) <-
    List.concat
      (List.init rounds (fun r ->
           List.filter_map
             (fun d ->
               if d = src then None
               else Some (d, Printf.sprintf "bcast%d-%d" r d))
             (List.init n (fun i -> i))));
  t

let permutation rng ~n ~per_processor =
  let targets = Array.init n (fun i -> i) in
  (* Random derangement: reshuffle while some processor targets itself,
     falling back to a cyclic shift if unlucky. *)
  let has_fixpoint () =
    let rec loop i = i < n && (targets.(i) = i || loop (i + 1)) in
    loop 0
  in
  let rec try_shuffle attempts =
    Prng.Splitmix.shuffle_in_place rng targets;
    if has_fixpoint () then
      if attempts = 0 then
        Array.iteri (fun i _ -> targets.(i) <- (i + 1) mod n) targets
      else try_shuffle (attempts - 1)
  in
  if n > 1 then try_shuffle 20;
  Array.init n (fun src ->
      if n = 1 then []
      else
        List.init per_processor (fun i ->
            (targets.(src), payload ~distinct:true ~src ~i)))

let neighbors_only g ~per_processor =
  Array.init (Topology.Graph.n g) (fun src ->
      List.concat
        (List.init per_processor (fun i ->
             List.map
               (fun d -> (d, payload ~distinct:true ~src ~i))
               (Topology.Graph.neighbors g src))))

let saturating rng ~graph ~per_processor =
  uniform_random rng ~n:(Topology.Graph.n graph) ~per_processor
    ~distinct_payloads:false
