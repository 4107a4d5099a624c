type topology = { t_name : string; graph : Topology.Graph.t }

let topology_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let fail () =
    Error
      (Printf.sprintf
         "bad topology %S (try ring:8, path:5, star:6, complete:5, grid:3x4, \
          torus:3x3, hypercube:3, btree:7, random:12:6, fig1, fig2)"
         s)
  in
  let int_of = int_of_string_opt in
  (* Builders validate their arguments with Invalid_argument; surface
     those as parse errors rather than exceptions. *)
  let ok build =
    match build () with
    | g -> Ok { t_name = s; graph = g }
    | exception Invalid_argument msg -> Error msg
  in
  match String.split_on_char ':' s with
  | [ "fig1" ] -> ok (fun () -> Topology.Builders.paper_figure1)
  | [ "fig2" ] -> ok (fun () -> Topology.Builders.paper_figure2)
  | [ kind; a ] -> (
      match (kind, int_of a) with
      | "ring", Some n -> ok (fun () -> Topology.Builders.ring n)
      | "path", Some n -> ok (fun () -> Topology.Builders.path n)
      | "star", Some n -> ok (fun () -> Topology.Builders.star n)
      | "complete", Some n -> ok (fun () -> Topology.Builders.complete n)
      | "btree", Some n -> ok (fun () -> Topology.Builders.binary_tree n)
      | "hypercube", Some d -> ok (fun () -> Topology.Builders.hypercube d)
      | ("grid" | "torus"), _ -> (
          match String.split_on_char 'x' a with
          | [ r; c ] -> (
              match (int_of r, int_of c) with
              | Some rows, Some cols when kind = "grid" ->
                  ok (fun () -> Topology.Builders.grid ~rows ~cols)
              | Some rows, Some cols ->
                  ok (fun () -> Topology.Builders.torus ~rows ~cols)
              | _ -> fail ())
          | _ -> fail ())
      | _ -> fail ())
  | [ "random"; n; extra ] -> (
      match (int_of n, int_of extra) with
      | Some n, Some extra_edges ->
          ok (fun () ->
              Topology.Builders.random_connected (Prng.Splitmix.of_int 1) ~n
                ~extra_edges)
      | _ -> fail ())
  | _ -> fail ()

let topology_exn s =
  match topology_of_string s with Ok t -> t | Error e -> invalid_arg e

type corruption = Pristine | Random_point | Adversarial

let corruption_to_string = function
  | Pristine -> "pristine"
  | Random_point -> "random"
  | Adversarial -> "adversarial"

let corruption_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "pristine" | "none" -> Ok Pristine
  | "random" -> Ok Random_point
  | "adversarial" | "worst" -> Ok Adversarial
  | s -> Error (Printf.sprintf "unknown corruption %S (expected pristine, random or adversarial)" s)

type workload_kind =
  | Uniform of int
  | All_to_one of int
  | One_to_all of int
  | Permutation of int
  | Neighbors of int
  | Saturating of int

let workload_to_string = function
  | Uniform k -> Printf.sprintf "uniform:%d" k
  | All_to_one k -> Printf.sprintf "all-to-one:%d" k
  | One_to_all k -> Printf.sprintf "one-to-all:%d" k
  | Permutation k -> Printf.sprintf "permutation:%d" k
  | Neighbors k -> Printf.sprintf "neighbors:%d" k
  | Saturating k -> Printf.sprintf "saturating:%d" k

let workload_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let fail () =
    Error
      (Printf.sprintf
         "bad workload %S (try uniform:2, all-to-one:1, one-to-all:1, \
          permutation:2, neighbors:1, saturating:2)"
         s)
  in
  match String.split_on_char ':' s with
  | [ kind; k ] -> (
      match (kind, int_of_string_opt k) with
      | _, Some k when k < 0 -> fail ()
      | "uniform", Some k -> Ok (Uniform k)
      | "all-to-one", Some k -> Ok (All_to_one k)
      | "one-to-all", Some k -> Ok (One_to_all k)
      | "permutation", Some k -> Ok (Permutation k)
      | "neighbors", Some k -> Ok (Neighbors k)
      | "saturating", Some k -> Ok (Saturating k)
      | _ -> fail ())
  | _ -> fail ()

type model = State_model | Mp_model

let model_to_string = function State_model -> "state" | Mp_model -> "mp"

let model_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "state" -> Ok State_model
  | "mp" | "message-passing" -> Ok Mp_model
  | s -> Error (Printf.sprintf "unknown model %S (expected state or mp)" s)

let chaos_exn s =
  match Chaos.Schedule.of_string s with
  | Ok sch -> sch
  | Error e -> invalid_arg e

let seeds_of_string s =
  let item acc part =
    match acc with
    | Error _ as e -> e
    | Ok sofar -> (
        let part = String.trim part in
        match String.split_on_char '.' part with
        | [ a ] -> (
            match int_of_string_opt a with
            | Some v -> Ok (v :: sofar)
            | None -> Error (Printf.sprintf "bad seed %S" part))
        | [ a; ""; b ] -> (
            (* "lo..hi", inclusive *)
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some lo, Some hi when lo <= hi ->
                Ok (List.rev_append (List.init (hi - lo + 1) (fun i -> lo + i)) sofar)
            | _ -> Error (Printf.sprintf "bad seed range %S" part))
        | _ -> Error (Printf.sprintf "bad seed %S" part))
  in
  match List.fold_left item (Ok []) (String.split_on_char ',' s) with
  | Error _ as e -> e
  | Ok [] -> Error "empty seed list"
  | Ok l -> (
      let rec repeated = function
        | a :: (b :: _ as rest) -> if a = b then Some a else repeated rest
        | _ -> None
      in
      match repeated (List.sort compare l) with
      | Some v -> Error (Printf.sprintf "repeated seed %d" v)
      | None -> Ok (List.rev l))

type grid = {
  topologies : topology list;
  corruptions : corruption list;
  daemons : Harness.Runner.daemon_kind list;
  workloads : workload_kind list;
  models : model list;
  chaos : Chaos.Schedule.t list;
  snapshots : int list;
  seeds : int list;
  max_steps : int;
}

let default_grid () =
  {
    topologies =
      List.map topology_exn [ "ring:6"; "path:5"; "star:6"; "grid:3x3" ];
    corruptions = [ Pristine; Adversarial ];
    daemons = [ Harness.Runner.Synchronous; Harness.Runner.Distributed_random ];
    workloads = [ Uniform 2 ];
    models = [ State_model ];
    chaos = [ Chaos.Schedule.none ];
    snapshots = [ 0 ];
    seeds = [ 1; 2 ];
    max_steps = 500_000;
  }

let smoke_grid () =
  {
    topologies = List.map topology_exn [ "ring:5"; "path:4" ];
    corruptions = [ Pristine; Adversarial ];
    daemons = [ Harness.Runner.Synchronous ];
    workloads = [ Uniform 1 ];
    models = [ State_model ];
    chaos = [ Chaos.Schedule.none ];
    snapshots = [ 0 ];
    seeds = [ 1; 2 ];
    max_steps = 200_000;
  }

let chaos_grid () =
  {
    topologies = List.map topology_exn [ "ring:6"; "path:5"; "grid:3x3" ];
    corruptions = [ Pristine; Adversarial ];
    daemons = [ Harness.Runner.Synchronous; Harness.Runner.Distributed_random ];
    workloads = [ Uniform 2 ];
    models = [ State_model; Mp_model ];
    chaos =
      List.map chaos_exn
        [
          "8:rb:2";
          "8:rbqf:all+20:c:1@lossy";
          "12:bq:3@flaky";
          "8:rbqf:all+20:c:1@lossy@win=8@ps=16:4000";
        ];
    snapshots = [ 0; 400 ];
    seeds = [ 1; 2 ];
    max_steps = 500_000;
  }

type scenario = {
  index : int;
  id : string;
  topology : topology;
  corruption : corruption;
  daemon : Harness.Runner.daemon_kind;
  workload : workload_kind;
  model : model;
  chaos : Chaos.Schedule.t;
  snapshot : int;
  seed : int;
  max_steps : int;
}

(* The /snapN segment only appears when the layer is on, so every
   pre-snapshot scenario id survives the axis addition unchanged. *)
let scenario_id t c d w m ch sn s =
  Printf.sprintf "%s/%s/%s/%s/%s/%s%s/s%d" t.t_name (corruption_to_string c)
    (Harness.Runner.daemon_kind_to_string d)
    (workload_to_string w) (model_to_string m)
    (Chaos.Schedule.to_string ch)
    (if sn > 0 then Printf.sprintf "/snap%d" sn else "")
    s

let chaos_filter sc =
  (* The mp synchronizer has no daemon; keep one daemon spelling per mp
     point so the chaos grid doesn't carry semantically-identical twins.
     Snapshots, the window retransmission layer and partial synchrony
     are mp-only: drop state-model × snapshot>0 and state-model ×
     windowed/synchronous schedules. *)
  match sc.model with
  | State_model ->
      sc.snapshot = 0
      && sc.chaos.Chaos.Schedule.window = None
      && sc.chaos.Chaos.Schedule.synchrony = None
  | Mp_model -> sc.daemon = Harness.Runner.Synchronous

let expand ?(filter = fun _ -> true) (grid : grid) =
  let acc = ref [] in
  List.iter
    (fun t ->
      List.iter
        (fun c ->
          List.iter
            (fun d ->
              List.iter
                (fun w ->
                  List.iter
                    (fun m ->
                      List.iter
                        (fun ch ->
                          List.iter
                            (fun sn ->
                              List.iter
                                (fun s ->
                                  let sc =
                                    {
                                      index = 0;
                                      id = scenario_id t c d w m ch sn s;
                                      topology = t;
                                      corruption = c;
                                      daemon = d;
                                      workload = w;
                                      model = m;
                                      chaos = ch;
                                      snapshot = sn;
                                      seed = s;
                                      max_steps = grid.max_steps;
                                    }
                                  in
                                  if filter sc then acc := sc :: !acc)
                                grid.seeds)
                            grid.snapshots)
                        grid.chaos)
                    grid.models)
                grid.workloads)
            grid.daemons)
        grid.corruptions)
    grid.topologies;
  let scenarios = List.mapi (fun i sc -> { sc with index = i }) (List.rev !acc) in
  let ids = List.sort compare (List.map (fun sc -> sc.id) scenarios) in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  (match dup ids with
  | Some id ->
      invalid_arg
        (Printf.sprintf "Campaign.Spec.expand: duplicate scenario id %S (duplicate axis values?)" id)
  | None -> ());
  scenarios

(* Same derivations as `ssmfp_cli run`, so a scenario and the equivalent
   single run agree bit-for-bit. *)
let materialize_workload sc =
  let graph = sc.topology.graph in
  let n = Topology.Graph.n graph in
  let wl_rng = Prng.Splitmix.of_int (sc.seed + 7919) in
  match sc.workload with
  | Uniform k -> Harness.Workload.uniform_random wl_rng ~n ~per_processor:k
  | All_to_one k -> Harness.Workload.all_to_one ~n ~dest:0 ~per_processor:k
  | One_to_all k -> Harness.Workload.one_to_all ~n ~src:0 ~rounds:k
  | Permutation k -> Harness.Workload.permutation wl_rng ~n ~per_processor:k
  | Neighbors k -> Harness.Workload.neighbors_only graph ~per_processor:k
  | Saturating k -> Harness.Workload.saturating wl_rng ~graph ~per_processor:k

let materialize_fault_spec sc =
  match sc.corruption with
  | Pristine -> Harness.Fault.pristine
  | Adversarial -> Harness.Fault.adversarial
  | Random_point ->
      Harness.Fault.random_spec (Prng.Splitmix.of_int (sc.seed + 104729))

let materialize sc =
  Harness.Runner.config ~spec:(materialize_fault_spec sc) ~daemon:sc.daemon
    ~seed:sc.seed ~max_steps:sc.max_steps sc.topology.graph
    (materialize_workload sc)
