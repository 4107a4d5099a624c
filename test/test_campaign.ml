(* Tests for the campaign engine: grid expansion, parallel execution
   determinism, order-insensitive aggregation, and the baseline gate. *)

module Spec = Campaign.Spec
module Pool = Campaign.Pool
module Aggregate = Campaign.Aggregate
module Cbaseline = Campaign.Baseline

let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e

(* ---------------- spec ---------------- *)

let test_seeds_of_string () =
  Alcotest.(check (list int))
    "range and singleton" [ 1; 2; 3; 7 ]
    (ok_or_fail (Spec.seeds_of_string "1..3,7"));
  Alcotest.(check (list int))
    "plain list" [ 4; 9 ]
    (ok_or_fail (Spec.seeds_of_string "4,9"));
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Spec.seeds_of_string "1..x"));
  Alcotest.(check bool) "repeated seed rejected" true
    (Result.is_error (Spec.seeds_of_string "1..3,2"))

let test_topology_of_string () =
  let t = ok_or_fail (Spec.topology_of_string "ring:6") in
  Alcotest.(check string) "canonical name" "ring:6" t.Spec.t_name;
  Alcotest.(check int) "six vertices" 6 (Topology.Graph.n t.Spec.graph);
  Alcotest.(check bool) "unknown family rejected" true
    (Result.is_error (Spec.topology_of_string "moebius:4"));
  Alcotest.(check bool) "bad size rejected" true
    (Result.is_error (Spec.topology_of_string "ring:0"))

let test_expand_default_grid () =
  let scenarios = Spec.expand (Spec.default_grid ()) in
  Alcotest.(check int) "32 scenarios" 32 (List.length scenarios);
  let ids = List.map (fun sc -> sc.Spec.id) scenarios in
  Alcotest.(check int) "ids unique" 32 (List.length (List.sort_uniq compare ids));
  List.iteri
    (fun i sc -> Alcotest.(check int) "dense indices" i sc.Spec.index)
    scenarios;
  (* stable order: expanding twice yields the same id sequence *)
  Alcotest.(check (list string))
    "stable order" ids
    (List.map (fun sc -> sc.Spec.id) (Spec.expand (Spec.default_grid ())))

let test_expand_filter () =
  let scenarios =
    Spec.expand
      ~filter:(fun sc -> sc.Spec.corruption = Spec.Adversarial)
      (Spec.smoke_grid ())
  in
  Alcotest.(check int) "half survive" 4 (List.length scenarios);
  List.iteri
    (fun i sc -> Alcotest.(check int) "reindexed densely" i sc.Spec.index)
    scenarios

(* ---------------- pool ---------------- *)

let test_run_list_crash_isolation () =
  let thunks =
    [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
  in
  match Pool.run_list ~workers:2 thunks with
  | [ Ok 1; Error msg; Ok 3 ] ->
      Alcotest.(check bool) "message kept" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected [Ok 1; Error _; Ok 3] in input order"

let smoke_outcomes ~workers =
  Pool.run ~workers (Spec.expand (Spec.smoke_grid ()))

let test_workers_byte_identical () =
  (* The acceptance property: the artifact is a pure function of the
     grid, whatever the parallelism. *)
  let doc1 = Aggregate.to_json (smoke_outcomes ~workers:1) in
  let doc2 = Aggregate.to_json (smoke_outcomes ~workers:2) in
  let doc4 = Aggregate.to_json (smoke_outcomes ~workers:4) in
  Alcotest.(check string)
    "1 vs 2 workers" (Obs.Json.to_string doc1) (Obs.Json.to_string doc2);
  Alcotest.(check string)
    "1 vs 4 workers" (Obs.Json.to_string doc1) (Obs.Json.to_string doc4)

let test_aggregate_order_insensitive () =
  let outcomes = smoke_outcomes ~workers:1 in
  Alcotest.(check string)
    "reversed outcomes, same artifact"
    (Obs.Json.to_string (Aggregate.to_json outcomes))
    (Obs.Json.to_string (Aggregate.to_json (List.rev outcomes)))

let test_run_one_deterministic () =
  let sc = List.hd (Spec.expand (Spec.smoke_grid ())) in
  let summary o =
    match o.Pool.status with
    | Pool.Done s -> s
    | Pool.Crashed c -> Alcotest.fail ("crashed: " ^ c.Pool.crash_msg)
  in
  let a = summary (Pool.run_one sc) and b = summary (Pool.run_one sc) in
  Alcotest.(check bool) "identical summaries" true (a = b)

(* ---------------- aggregate / baseline ---------------- *)

(* Rewrite one field of one scenario inside an artifact — the "doctored
   artifact" of the regression-gate acceptance test. *)
let doctor_scenario doc ~id ~field ~value =
  let open Obs.Json in
  let rewrite_scenario sc =
    match member "id" sc with
    | Some (String sid) when sid = id -> (
        match sc with
        | Obj fields ->
            Obj
              (List.map
                 (fun (k, v) -> if k = field then (k, value) else (k, v))
                 fields)
        | _ -> sc)
    | _ -> sc
  in
  match doc with
  | Obj fields ->
      Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "scenarios", List l -> (k, List (List.map rewrite_scenario l))
             | _ -> (k, v))
           fields)
  | _ -> doc

let drop_scenario doc ~id =
  let open Obs.Json in
  let keep sc =
    match member "id" sc with Some (String sid) -> sid <> id | _ -> true
  in
  match doc with
  | Obj fields ->
      Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "scenarios", List l -> (k, List (List.filter keep l))
             | _ -> (k, v))
           fields)
  | _ -> doc

let first_id doc =
  match ok_or_fail (Aggregate.scenario_ids doc) with
  | id :: _ -> id
  | [] -> Alcotest.fail "artifact has no scenarios"

let test_baseline_detects_new_failure () =
  let doc = Aggregate.to_json (smoke_outcomes ~workers:2) in
  let id = first_id doc in
  let doctored =
    doctor_scenario doc ~id ~field:"status" ~value:(Obs.Json.String "violated")
  in
  (* healthy current vs healthy baseline: no regressions *)
  Alcotest.(check int) "clean compare" 0
    (List.length
       (ok_or_fail (Cbaseline.compare_artifacts ~baseline:doc ~current:doc ())));
  (* the doctored verdict regresses and names the scenario *)
  (match
     ok_or_fail (Cbaseline.compare_artifacts ~baseline:doc ~current:doctored ())
   with
  | [ r ] ->
      Alcotest.(check string) "names the scenario" id r.Cbaseline.scenario
  | l -> Alcotest.fail (Printf.sprintf "expected 1 regression, got %d" (List.length l)));
  (* the reverse direction is an improvement, not a regression *)
  Alcotest.(check int) "improvement ignored" 0
    (List.length
       (ok_or_fail
          (Cbaseline.compare_artifacts ~baseline:doctored ~current:doc ())));
  (* failed_scenarios sees the doctored verdict too *)
  Alcotest.(check (list string))
    "failed_scenarios" [ id ]
    (ok_or_fail (Aggregate.failed_scenarios doctored))

let test_baseline_detects_missing_scenario () =
  let doc = Aggregate.to_json (smoke_outcomes ~workers:2) in
  let id = first_id doc in
  match
    ok_or_fail
      (Cbaseline.compare_artifacts ~baseline:doc
         ~current:(drop_scenario doc ~id) ())
  with
  | [ r ] -> Alcotest.(check string) "names the scenario" id r.Cbaseline.scenario
  | l -> Alcotest.fail (Printf.sprintf "expected 1 regression, got %d" (List.length l))

let test_baseline_latency_tolerance () =
  let doc = Aggregate.to_json (smoke_outcomes ~workers:2) in
  let id = first_id doc in
  let sc =
    match Obs.Json.member "scenarios" doc with
    | Some (Obs.Json.List l) ->
        List.find
          (fun sc -> Obs.Json.member "id" sc = Some (Obs.Json.String id))
          l
    | _ -> Alcotest.fail "no scenarios"
  in
  let p50 =
    match
      Option.bind
        (Option.bind (Obs.Json.member "latency_rounds" sc)
           (Obs.Json.member "p50"))
        Obs.Json.to_float
    with
    | Some f when Float.is_finite f && f > 0. -> f
    | _ -> Alcotest.fail "scenario has no finite latency p50"
  in
  let slowed =
    doctor_scenario doc ~id ~field:"latency_rounds"
      ~value:(Obs.Json.Obj [ ("p50", Obs.Json.Float (p50 *. 2.)) ])
  in
  (match
     ok_or_fail (Cbaseline.compare_artifacts ~baseline:doc ~current:slowed ())
   with
  | [ r ] -> Alcotest.(check string) "names the scenario" id r.Cbaseline.scenario
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 latency regression, got %d" (List.length l)));
  Alcotest.(check int) "doubling within 150% tolerance" 0
    (List.length
       (ok_or_fail
          (Cbaseline.compare_artifacts ~latency_tolerance:1.5 ~baseline:doc
             ~current:slowed ())))

let test_artifact_round_trip () =
  let doc = Aggregate.to_json (smoke_outcomes ~workers:2) in
  let path = Filename.temp_file "campaign" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Aggregate.write path doc;
      let reread = ok_or_fail (Aggregate.of_file path) in
      Alcotest.(check string)
        "byte-stable round trip" (Obs.Json.to_string doc)
        (Obs.Json.to_string reread);
      Alcotest.(check int) "8 scenario ids" 8
        (List.length (ok_or_fail (Aggregate.scenario_ids reread))))

let test_of_file_rejects_foreign_json () =
  let path = Filename.temp_file "campaign" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"schema\":\"something.else/9\"}";
      close_out oc;
      Alcotest.(check bool) "foreign schema rejected" true
        (Result.is_error (Aggregate.of_file path)))

(* Malformed artifacts must fail to load, naming the file and the field;
   loaded, each would read as a campaign with nothing failed. *)
let load_via_file contents =
  let path = Filename.temp_file "campaign" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      (Filename.basename path, Aggregate.of_file path))

let expect_rejected ~field (name, result) =
  match result with
  | Ok _ -> Alcotest.fail ("malformed artifact loaded; expected an error on " ^ field)
  | Error e ->
      Alcotest.(check bool) ("names the file: " ^ e) true (Test_util.contains e name);
      Alcotest.(check bool) ("names " ^ field ^ ": " ^ e) true
        (Test_util.contains e field)

let drop_field doc ~index ~field =
  let open Obs.Json in
  match doc with
  | Obj fields ->
      Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "scenarios", List l ->
                 ( k,
                   List
                     (List.mapi
                        (fun i sc ->
                          match sc with
                          | Obj f when i = index ->
                              Obj (List.filter (fun (k', _) -> k' <> field) f)
                          | _ -> sc)
                        l) )
             | _ -> (k, v))
           fields)
  | _ -> doc

let test_of_file_requires_totals () =
  expect_rejected ~field:"totals"
    (load_via_file "{\"schema\":\"ssmfp.campaign/3\",\"scenarios\":5}")

let test_of_file_requires_scenario_id () =
  let doc = Aggregate.to_json (smoke_outcomes ~workers:2) in
  let id = first_id doc in
  let violated =
    doctor_scenario doc ~id ~field:"status" ~value:(Obs.Json.String "violated")
  in
  expect_rejected ~field:"\"id\""
    (load_via_file (Obs.Json.to_string (drop_field violated ~index:0 ~field:"id")))

let test_of_file_requires_known_status () =
  let doc = Aggregate.to_json (smoke_outcomes ~workers:2) in
  let id = first_id doc in
  expect_rejected ~field:"\"status\""
    (load_via_file
       (Obs.Json.to_string
          (doctor_scenario doc ~id ~field:"status" ~value:(Obs.Json.Int 1))))

let () =
  Alcotest.run "campaign"
    [
      ( "spec",
        [
          Alcotest.test_case "seeds_of_string" `Quick test_seeds_of_string;
          Alcotest.test_case "topology_of_string" `Quick test_topology_of_string;
          Alcotest.test_case "expand default grid" `Quick test_expand_default_grid;
          Alcotest.test_case "expand filter" `Quick test_expand_filter;
        ] );
      ( "pool",
        [
          Alcotest.test_case "crash isolation" `Quick test_run_list_crash_isolation;
          Alcotest.test_case "workers byte-identical" `Quick
            test_workers_byte_identical;
          Alcotest.test_case "run_one deterministic" `Quick
            test_run_one_deterministic;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "order insensitive" `Quick
            test_aggregate_order_insensitive;
          Alcotest.test_case "artifact round trip" `Quick test_artifact_round_trip;
          Alcotest.test_case "foreign schema rejected" `Quick
            test_of_file_rejects_foreign_json;
          Alcotest.test_case "missing totals rejected" `Quick
            test_of_file_requires_totals;
          Alcotest.test_case "missing scenario id rejected" `Quick
            test_of_file_requires_scenario_id;
          Alcotest.test_case "unknown status rejected" `Quick
            test_of_file_requires_known_status;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "new failure" `Quick test_baseline_detects_new_failure;
          Alcotest.test_case "missing scenario" `Quick
            test_baseline_detects_missing_scenario;
          Alcotest.test_case "latency tolerance" `Quick
            test_baseline_latency_tolerance;
        ] );
    ]
