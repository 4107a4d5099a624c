(* Tests for the observability layer: JSON emit/parse, the metrics
   registry, and the event journal (golden Figure 3 walkthrough, JSONL
   round trip). *)

let contains = Test_util.contains

(* ---------------- json ---------------- *)

let test_json_emit () =
  let v =
    Obs.Json.Obj
      [
        ("a", Obs.Json.Int 1);
        ("b", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null ]);
        ("c", Obs.Json.String "x\"y\n");
        ("d", Obs.Json.Float 2.5);
      ]
  in
  Alcotest.(check string)
    "compact" "{\"a\":1,\"b\":[true,null],\"c\":\"x\\\"y\\n\",\"d\":2.5}"
    (Obs.Json.to_string v)

let test_json_non_finite () =
  Alcotest.(check string) "nan -> null" "null" (Obs.Json.to_string (Obs.Json.Float nan));
  Alcotest.(check string)
    "inf -> null" "[null]"
    (Obs.Json.to_string (Obs.Json.List [ Obs.Json.Float infinity ]))

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("step", Obs.Json.Int 42);
        ("ok", Obs.Json.Bool false);
        ("name", Obs.Json.String "ring:8 — é\t\"q\"");
        ("xs", Obs.Json.List [ Obs.Json.Int (-3); Obs.Json.Float 0.125; Obs.Json.Null ]);
        ("nested", Obs.Json.Obj [ ("empty_list", Obs.Json.List []); ("empty_obj", Obs.Json.Obj []) ]);
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_parse_errors () =
  let bad s =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %S" s)
      true
      (Result.is_error (Obs.Json.of_string s))
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "tru";
  bad "1 2";
  bad "\"unterminated"

let test_json_accessors () =
  match Obs.Json.of_string "{\"n\": 3, \"f\": 1.5, \"s\": \"x\", \"l\": [1]}" with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check (option int)) "int" (Some 3)
        (Option.bind (Obs.Json.member "n" v) Obs.Json.to_int);
      Alcotest.(check (option (float 1e-9))) "float" (Some 1.5)
        (Option.bind (Obs.Json.member "f" v) Obs.Json.to_float);
      Alcotest.(check (option (float 1e-9))) "int as float" (Some 3.)
        (Option.bind (Obs.Json.member "n" v) Obs.Json.to_float);
      Alcotest.(check (option string)) "string" (Some "x")
        (Option.bind (Obs.Json.member "s" v) Obs.Json.string_value);
      Alcotest.(check bool) "missing member" true
        (Obs.Json.member "zzz" v = None)

(* ---------------- metrics ---------------- *)

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "c";
  Obs.Metrics.incr m ~by:4 "c";
  Obs.Metrics.set_gauge m "g" 1.0;
  Obs.Metrics.set_gauge m "g" 7.5;
  List.iter (Obs.Metrics.observe m "h") [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ];
  let s = Obs.Metrics.snapshot m in
  Alcotest.(check int) "counter" 5 (Obs.Metrics.counter_value s "c");
  Alcotest.(check int) "absent counter" 0 (Obs.Metrics.counter_value s "zzz");
  Alcotest.(check (option (float 1e-9))) "gauge last write" (Some 7.5)
    (Obs.Metrics.gauge_value s "g");
  (match Obs.Metrics.histogram_summary s "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 10 h.Obs.Metrics.count;
      Alcotest.(check (float 1e-9)) "mean" 5.5 h.Obs.Metrics.mean;
      Alcotest.(check (float 1e-9)) "min" 1. h.Obs.Metrics.min;
      Alcotest.(check (float 1e-9)) "max" 10. h.Obs.Metrics.max;
      Alcotest.(check (float 1e-9)) "p50" 5. h.Obs.Metrics.p50;
      Alcotest.(check (float 1e-9)) "p90" 9. h.Obs.Metrics.p90;
      Alcotest.(check (float 1e-9)) "p99" 10. h.Obs.Metrics.p99);
  let js = Obs.Json.to_string (Obs.Metrics.snapshot_to_json s) in
  Alcotest.(check bool) "json has counter" true (contains js "\"c\":5");
  Alcotest.(check bool) "json has gauge" true (contains js "\"g\":7.5")

(* The list-based summary histograms used before they kept one count per
   distinct value: sort every sample, sum them in sorted order, read the
   nearest ranks. The count-based summary must equal it field for field,
   bit for bit, on any series without nan or -0. *)
let reference_summary samples =
  let n = List.length samples in
  if n = 0 then
    {
      Obs.Metrics.count = 0;
      mean = nan;
      min = nan;
      max = nan;
      p50 = nan;
      p90 = nan;
      p99 = nan;
    }
  else begin
    let sorted = Array.of_list samples in
    Array.sort compare sorted;
    let pct p =
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))
    in
    let total = Array.fold_left ( +. ) 0. sorted in
    {
      Obs.Metrics.count = n;
      mean = total /. float_of_int n;
      min = sorted.(0);
      max = sorted.(n - 1);
      p50 = pct 50.;
      p90 = pct 90.;
      p99 = pct 99.;
    }
  end

let test_histogram_matches_reference () =
  let rng = Prng.Splitmix.of_int 2024 in
  let bits = Int64.bits_of_float in
  for series = 1 to 300 do
    (* a small pool of distinct values, integral and not, drawn with
       repetition; 0. appears but never -0. *)
    let pool =
      Array.init
        (1 + Prng.Splitmix.int rng 40)
        (fun _ ->
          match Prng.Splitmix.int rng 3 with
          | 0 -> float_of_int (Prng.Splitmix.int_in rng (-20) 20)
          | 1 -> float_of_int (Prng.Splitmix.int_in rng (-400) 400) /. 7.
          | _ -> Prng.Splitmix.float rng 1e6 -. 5e5)
    in
    let samples =
      List.init (Prng.Splitmix.int rng 600) (fun _ ->
          Prng.Splitmix.choose_array rng pool)
    in
    let m = Obs.Metrics.create () in
    List.iter (Obs.Metrics.observe m "h") samples;
    let s = Obs.Metrics.snapshot m in
    let got = Option.get (Obs.Metrics.histogram_summary s "h") in
    let want = reference_summary samples in
    let field name f =
      if samples = [] then
        Alcotest.(check bool) name true (Float.is_nan (f got) && Float.is_nan (f want))
      else
        Alcotest.(check int64)
          (Printf.sprintf "series %d: %s" series name)
          (bits (f want)) (bits (f got))
    in
    Alcotest.(check int) "count" want.Obs.Metrics.count got.Obs.Metrics.count;
    field "mean" (fun h -> h.Obs.Metrics.mean);
    field "min" (fun h -> h.Obs.Metrics.min);
    field "max" (fun h -> h.Obs.Metrics.max);
    field "p50" (fun h -> h.Obs.Metrics.p50);
    field "p90" (fun h -> h.Obs.Metrics.p90);
    field "p99" (fun h -> h.Obs.Metrics.p99);
    Alcotest.(check string) "json"
      (Obs.Json.to_string
         (Obs.Metrics.snapshot_to_json
            { counters = []; gauges = []; histograms = [ ("h", want) ] }))
      (Obs.Json.to_string (Obs.Metrics.snapshot_to_json s))
  done

(* A histogram's memory follows its distinct values: after ten values,
   a million more observations of the same ten add no word. *)
let test_histogram_bounded () =
  let m = Obs.Metrics.create () in
  let value i = float_of_int (i mod 10) /. 4. in
  for i = 0 to 9 do
    Obs.Metrics.observe m "h" (value i)
  done;
  let words = Obj.reachable_words (Obj.repr m) in
  for i = 0 to 999_999 do
    Obs.Metrics.observe m "h" (value i)
  done;
  Alcotest.(check int) "no growth" words (Obj.reachable_words (Obj.repr m));
  let h =
    Option.get (Obs.Metrics.histogram_summary (Obs.Metrics.snapshot m) "h")
  in
  Alcotest.(check int) "every observation counted" 1_000_010 h.Obs.Metrics.count;
  Alcotest.(check (float 0.)) "max" 2.25 h.Obs.Metrics.max

(* ---------------- journal: Figure 3 golden ---------------- *)

let figure3_journal () =
  let j = Obs.Journal.create () in
  let _ =
    Ssmfp.Figure3.run
      ~on_event:(fun ~step ~round ~pid ev ->
        Obs.Journal.record j ~step ~round ~pid ev)
      ()
  in
  j

(* The full JSONL journal of the paper's Figure 3 walkthrough — the
   invalid m' (gid 1) delivered first, then the valid m (gid 2,
   recolored 1) and the valid m' (gid 3, recolored 2), each delivered
   exactly once. The execution is scripted and the ghost counter reset,
   so this is bit-for-bit stable. *)
let figure3_golden =
  {|{"step":1,"round":0,"pid":2,"kind":"generated","dest":1,"gid":2,"valid":true,"info":"m","last":2,"color":0}
{"step":2,"round":0,"pid":2,"kind":"internal_forward","dest":1,"gid":2,"valid":true,"info":"m","last":2,"color":1}
{"step":3,"round":0,"pid":0,"kind":"copied","dest":1,"gid":2,"valid":true,"info":"m","last":2,"color":1,"src":2}
{"step":3,"round":0,"pid":2,"kind":"generated","dest":1,"gid":3,"valid":true,"info":"m'","last":2,"color":0}
{"step":4,"round":0,"pid":2,"kind":"erased_after_forward","dest":1,"gid":2,"valid":true,"info":"m","last":2,"color":1}
{"step":5,"round":0,"pid":2,"kind":"internal_forward","dest":1,"gid":3,"valid":true,"info":"m'","last":2,"color":2}
{"step":6,"round":0,"pid":0,"kind":"internal_forward","dest":1,"gid":2,"valid":true,"info":"m","last":0,"color":1}
{"step":7,"round":1,"pid":1,"kind":"internal_forward","dest":1,"gid":1,"valid":false,"info":"m'","last":1,"color":0}
{"step":8,"round":2,"pid":1,"kind":"delivered","dest":1,"gid":1,"valid":false,"info":"m'","last":1,"color":0}
{"step":9,"round":3,"pid":1,"kind":"copied","dest":1,"gid":2,"valid":true,"info":"m","last":0,"color":1,"src":0}
{"step":10,"round":4,"pid":0,"kind":"erased_after_forward","dest":1,"gid":2,"valid":true,"info":"m","last":0,"color":1}
{"step":11,"round":5,"pid":1,"kind":"internal_forward","dest":1,"gid":2,"valid":true,"info":"m","last":1,"color":0}
{"step":12,"round":6,"pid":1,"kind":"delivered","dest":1,"gid":2,"valid":true,"info":"m","last":1,"color":0}
{"step":13,"round":7,"pid":1,"kind":"copied","dest":1,"gid":3,"valid":true,"info":"m'","last":2,"color":2,"src":2}
{"step":14,"round":8,"pid":2,"kind":"erased_after_forward","dest":1,"gid":3,"valid":true,"info":"m'","last":2,"color":2}
{"step":15,"round":9,"pid":1,"kind":"internal_forward","dest":1,"gid":3,"valid":true,"info":"m'","last":1,"color":0}
{"step":16,"round":10,"pid":1,"kind":"delivered","dest":1,"gid":3,"valid":true,"info":"m'","last":1,"color":0}
|}

let test_figure3_golden () =
  let j = figure3_journal () in
  Alcotest.(check string) "golden JSONL" figure3_golden (Obs.Journal.to_jsonl j)

let test_journal_roundtrip () =
  let j = figure3_journal () in
  let path = Filename.temp_file "ssmfp_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Journal.write_jsonl path j;
      match Obs.Journal.load_jsonl path with
      | Error e -> Alcotest.fail e
      | Ok entries ->
          Alcotest.(check bool) "roundtrip identity" true
            (entries = Obs.Journal.entries j))

(* ---------------- metrics snapshot of a real run ---------------- *)

let test_runner_metrics_snapshot () =
  let g = Topology.Builders.ring 6 in
  let rng = Prng.Splitmix.of_int 42 in
  let wl = Harness.Workload.uniform_random rng ~n:6 ~per_processor:2 in
  let cfg =
    Harness.Runner.config ~daemon:Harness.Runner.Round_robin ~seed:3 g wl
  in
  let obs = Obs.Sink.create () in
  let r = Harness.Runner.run ~obs cfg in
  let s = r.Harness.Runner.metrics in
  Alcotest.(check bool) "quiescent" true (r.Harness.Runner.outcome = `Quiescent);
  (* per-rule counters agree with the engine's own tally *)
  List.iter
    (fun (rule, k) ->
      Alcotest.(check int)
        (Printf.sprintf "moves.%s" rule)
        k
        (Obs.Metrics.counter_value s ("moves." ^ rule)))
    r.Harness.Runner.stats.Sim.Engine.moves_by_rule;
  Alcotest.(check int) "oracle.valid_delivered" 12
    (Obs.Metrics.counter_value s "oracle.valid_delivered");
  Alcotest.(check int) "oracle.valid_generated" 12
    (Obs.Metrics.counter_value s "oracle.valid_generated");
  Alcotest.(check (option (float 1e-9))) "engine.steps gauge"
    (Some (float_of_int r.Harness.Runner.stats.Sim.Engine.steps))
    (Obs.Metrics.gauge_value s "engine.steps");
  (match Obs.Metrics.histogram_summary s "oracle.latency_rounds" with
  | None -> Alcotest.fail "latency histogram missing"
  | Some h -> Alcotest.(check int) "one latency sample per delivery" 12 h.Obs.Metrics.count);
  (match Obs.Metrics.histogram_summary s "engine.frontier_size" with
  | None -> Alcotest.fail "frontier histogram missing"
  | Some h ->
      Alcotest.(check int) "one frontier sample per step"
        r.Harness.Runner.stats.Sim.Engine.steps h.Obs.Metrics.count);
  (* deep probes are on because a sink was attached *)
  (match Obs.Metrics.histogram_summary s "engine.buffer_occupancy" with
  | None -> Alcotest.fail "occupancy histogram missing"
  | Some h ->
      Alcotest.(check bool) "occupancy sampled" true (h.Obs.Metrics.count > 0);
      Alcotest.(check (float 1e-9)) "drained at the end" 0. h.Obs.Metrics.min)

(* ---------------- adversarial journal round trip (acceptance) ---- *)

let test_adversarial_journal_roundtrip () =
  (* The acceptance scenario: ring:8, adversarial corruption; every
     event of the run survives writing the journal to disk and loading
     it back. *)
  let g = Topology.Builders.ring 8 in
  let rng = Prng.Splitmix.of_int (1 + 7919) in
  let wl = Harness.Workload.uniform_random rng ~n:8 ~per_processor:2 in
  let cfg = Harness.Runner.config ~spec:Harness.Fault.adversarial ~seed:1 g wl in
  let obs = Obs.Sink.create ~with_journal:true () in
  let r = Harness.Runner.run ~obs cfg in
  Alcotest.(check bool) "quiescent" true (r.Harness.Runner.outcome = `Quiescent);
  Alcotest.(check bool) "SP" true r.Harness.Runner.verdict.Harness.Oracle.ok;
  let journal = Option.get (Obs.Sink.journal obs) in
  let path = Filename.temp_file "ssmfp_adversarial" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Journal.write_jsonl path journal;
      match Obs.Journal.load_jsonl path with
      | Error e -> Alcotest.fail e
      | Ok entries ->
          Alcotest.(check int) "every event persisted"
            (Obs.Journal.length journal)
            (List.length entries);
          Alcotest.(check bool) "roundtrip identity" true
            (entries = Obs.Journal.entries journal))

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "dump-figure3" then begin
    print_string (Obs.Journal.to_jsonl (figure3_journal ()));
    exit 0
  end

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "emit" `Quick test_json_emit;
          Alcotest.test_case "non-finite" `Quick test_json_non_finite;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "runner snapshot" `Quick test_runner_metrics_snapshot;
          Alcotest.test_case "histogram = sorted-list reference" `Quick
            test_histogram_matches_reference;
          Alcotest.test_case "histogram memory bounded" `Quick
            test_histogram_bounded;
        ] );
      ( "journal",
        [
          Alcotest.test_case "figure3 golden" `Quick test_figure3_golden;
          Alcotest.test_case "jsonl roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "adversarial roundtrip" `Quick
            test_adversarial_journal_roundtrip;
        ] );
    ]
