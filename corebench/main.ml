(* The core bench suite of SSMFP.

   main.exe run --workload W --seed N --seconds S --trace 0|1
                [--jobs J] [--quick] [--out DIR]
     Runs one workload in this process, job after job, until S seconds
     have passed (or J jobs ran), and prints as its last line the JSON
     result {"correct", "attempted", "failed", "metrics"}. Untraced runs
     report the end-to-end metrics; traced runs (--trace 1) pair every
     job with a profiled repeat of it and report the per-layer metrics.

   main.exe core [--seed N] [--trace] [--quick] [--out DIR] [--append FILE]
     Runs every workload for a fixed number of jobs, each workload in its
     own child process, and writes the results to DIR/BENCH_<n>.json or
     appends them to FILE (schema ssmfp.bench/3), which must then hold
     runs of the same git rev, seed and mode. Run from the repository
     root: it checks that every metric named in BENCHMARK.json is printed
     with its unit. Exits nonzero if any check fails.

   main.exe heap --workload W --seed N [--quick]
     One job on job seed N in this process; prints the heap peak in MB. *)

let now_s = Workloads.now_s
let bench_schema = "ssmfp.bench/3"

let end_to_end = [ ("ops_per_s", "1/s"); ("heap_peak_mb", "MB"); ("setup_s", "s") ]

let per_layer =
  [
    ("bench.setup_s", "s");
    ("bench.drive_s", "s");
    ("bench.drain_check_s", "s");
    ("bench.snapshot_s", "s");
    ("bench.verdict_s", "s");
    ("bench.unattributed_pct", "%");
    ("bench.jobs", "count");
    ("protocol.enabled_us", "us");
    ("mp.max_pulse", "count");
    ("mp.pulse_sum", "count");
    ("mp.guard_bound_pct", "%");
    ("mp.channel_msgs_per_valid", "ratio");
    ("net.deliveries", "count");
    ("net.deliveries_per_s", "1/s");
    ("net.lost", "count");
    ("net.duplicated", "count");
    ("net.reordered", "count");
    ("net.minor_words_per_delivery", "words");
    ("net.in_flight_p50", "count");
    ("net.in_flight_max", "count");
    ("net.channel_depth_p99", "count");
    ("net.send_deliver_ns_p50", "ns");
    ("net.send_deliver_ns_p99", "ns");
    ("net.latency_samples", "count");
    ("net.samples_lost", "count");
    ("window.retransmits", "count");
    ("window.retransmits_per_delivery", "ratio");
    ("window.frame_ns", "ns");
    ("snapshot.epochs", "count");
    ("snapshot.cuts", "count");
    ("snapshot.cut_latency_p50", "deliveries");
    ("snapshot.markers_sent", "count");
    ("snapshot.markers_dropped", "count");
    ("snapshot.consistent_share", "ratio");
    ("oracle.valid_delivered", "count");
    ("oracle.invalid_delivered", "count");
    ("oracle.duplicates", "count");
    ("oracle.rounds_per_delivery", "rounds");
    ("oracle.prop7_ratio", "ratio");
    ("oracle.latency_rounds_p50", "rounds");
    ("oracle.latency_rounds_tail", "rounds");
    ("oracle.latency_tail_pct", "%");
    ("oracle.latency_samples", "count");
    ("engine.steps", "count");
    ("engine.rounds", "count");
    ("engine.moves", "count");
    ("engine.moves_per_step", "ratio");
    ("engine.us_per_step", "us");
    ("engine.frontier_mean", "count");
    ("mc.explored", "count");
    ("mc.transitions", "count");
    ("mc.resident_mb", "MB");
    ("mc.store_load", "ratio");
    ("mc.w2_configs_per_s", "1/s");
    ("mc.w2_over_w1", "ratio");
    ("mc.steals", "count");
    ("mc.steal_fail", "count");
    ("mc.idle_ms", "ms");
    ("mc.attribution_pct", "%");
    ("trace.overhead_pct", "%");
  ]

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("corebench: " ^ s);
      exit 2)
    fmt

(* ---------------------------------------------------------------- *)
(* One workload in this process                                      *)

type run_opts = {
  workload : string;
  seed : int;
  seconds : float;
  jobs : int;
  trace : bool;
  quick : bool;
  out : string option;
}

(* Job [i] of a run gets the [i]-th draw of the run seed's stream, so the
   inputs depend on the seed alone. *)
let job_seeds seed =
  let rng = Prng.Splitmix.of_int seed in
  fun () -> Prng.Splitmix.int rng 1_000_000_000

(* Jobs run until [seconds] have passed, at least one and at most
   [jobs]. *)
let loop o f =
  let next = job_seeds o.seed in
  let t0 = now_s () in
  let rec go acc k =
    if k >= o.jobs || (k >= 1 && now_s () -. t0 >= o.seconds) then List.rev acc
    else go (f ~seed:(next ()) :: acc) (k + 1)
  in
  go [] 0

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let find_workload o =
  match
    List.find_opt (fun (w : Workloads.t) -> w.name = o.workload) (Workloads.all ~quick:o.quick)
  with
  | Some w -> w
  | None -> fail "unknown workload %S" o.workload

(* [main.exe heap]: the warm-up and one job on job seed [o.seed] in a
   fresh process, then the heap peak in MB. *)
let heap_cmd o =
  let w = find_workload o in
  w.warmup ();
  ignore (w.job (Workloads.spans Obs.Prof.disabled) ~traced:false ~seed:o.seed);
  Printf.printf "%.17g\n" (heap_peak_mb ())

(* One job's heap peak depends on its input: over ten seeds its quartiles
   lie up to 6.5% apart. A run therefore reports the median over the
   peaks of its first [heap_probes] job seeds, each measured by
   [main.exe heap] in its own process; that median's quartiles over ten
   run seeds lie within 3%. The probes run two at a time, before the timed
   jobs. *)
let heap_probes = 6

let probe_heap o =
  let exe = Sys.executable_name in
  let next = job_seeds o.seed in
  let start () =
    let r, w = Unix.pipe ~cloexec:true () in
    let args =
      [ exe; "heap"; "--workload"; o.workload; "--seed"; string_of_int (next ()) ]
      @ if o.quick then [ "--quick" ] else []
    in
    let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
    Unix.close w;
    (pid, Unix.in_channel_of_descr r)
  in
  let finish (pid, ic) =
    let line = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    match (snd (Unix.waitpid [] pid), Option.bind line float_of_string_opt) with
    | Unix.WEXITED 0, Some mb -> Some mb
    | _ -> None
  in
  let rec batches left acc =
    if left = 0 then acc
    else begin
      let batch = List.init (min 2 left) (fun _ -> start ()) in
      let peaks = List.map finish batch in
      if List.mem None peaks then fail "a heap probe of %s failed" o.workload;
      batches (left - List.length batch) (List.filter_map Fun.id peaks @ acc)
    end
  in
  Stat.median (batches heap_probes [])

(* What a finished job keeps: its samples and final configuration are
   dropped so that jobs never pile up in the heap. *)
let strip (j : Workloads.job) = { j with pooled = []; final = None }

let median_or_zero = function [] -> 0. | l -> Stat.median l
let ratio a b = if b = 0. then 0. else a /. b
let assoc0 key l = Option.value ~default:0. (List.assoc_opt key l)

type pair = {
  untraced : Workloads.job;
  traced : Workloads.job;
  wall : float;  (** the traced job, timed around the call *)
  extra : (string * float) list;
  extra_problems : string list;
}

let layer_values (w : Workloads.t) prof ~min_s ~final pairs =
  let tj = List.map (fun p -> p.traced) pairs in
  let nj = float_of_int (List.length tj) in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0. l in
  let mean f = sum f tj /. nj in
  let get key (j : Workloads.job) = assoc0 key j.layer in
  let per_job key = mean (get key) in
  let pooled key =
    List.concat_map
      (fun (j : Workloads.job) -> Option.value ~default:[] (List.assoc_opt key j.pooled))
      tj
  in
  let drive_s = mean (fun j -> j.run_s -. j.snapshot_s) in
  let enabled =
    match final with Some f -> Workloads.enabled_us ~min_s f | None -> 0.
  in
  let histo name f =
    match Obs.Prof.histo_summary prof (Obs.Prof.histo prof name) with
    | Some s -> float_of_int (f s)
    | None -> 0.
  in
  (* Log2-bucket midpoints can land past the largest sample; clamp. *)
  let pct name f = histo name (fun s -> min (f s) s.Obs.Prof.hs_max) in
  let latency = pooled "oracle.latency_rounds" in
  let tail_pct, tail =
    match Stat.tail latency with Some (p, v) -> (float_of_int p, v) | None -> (0., 0.)
  in
  let valid = per_job "oracle.valid_delivered" in
  let rounds_per_delivery = ratio (per_job "oracle.rounds") valid in
  let deliveries = per_job "net.deliveries" in
  let steps = per_job "engine.steps" in
  let wall = sum (fun p -> p.wall) pairs /. nj in
  let attributed = mean (fun j -> j.setup_s +. j.run_s +. j.verdict_s) in
  let untraced = List.map (fun p -> p.untraced) pairs in
  let extra key = sum (fun p -> assoc0 key p.extra) pairs /. nj in
  [
    ("bench.setup_s", mean (fun j -> j.setup_s));
    ("bench.drive_s", drive_s);
    ("bench.drain_check_s", mean (fun j -> j.drain_check_s));
    ("bench.snapshot_s", mean (fun j -> j.snapshot_s));
    ("bench.verdict_s", mean (fun j -> j.verdict_s));
    ("bench.unattributed_pct", 100. *. ratio (wall -. attributed) wall);
    ("bench.jobs", nj);
    ("protocol.enabled_us", enabled);
    ("mp.max_pulse", per_job "mp.max_pulse");
    ("mp.pulse_sum", per_job "mp.pulse_sum");
    ( "mp.guard_bound_pct",
      100. *. ratio (enabled *. 1e-6 *. per_job "mp.pulse_sum") drive_s );
    ("mp.channel_msgs_per_valid", ratio deliveries valid);
    ("net.deliveries", deliveries);
    ("net.deliveries_per_s", ratio deliveries drive_s);
    ("net.lost", per_job "net.lost");
    ("net.duplicated", per_job "net.duplicated");
    ("net.reordered", per_job "net.reordered");
    ( "net.minor_words_per_delivery",
      ratio
        (sum (fun (j : Workloads.job) -> j.minor_words) untraced)
        (sum (get "net.deliveries") untraced) );
    ("net.in_flight_p50", pct "mp.in_flight" (fun s -> s.Obs.Prof.hs_p50));
    ("net.in_flight_max", histo "mp.in_flight" (fun s -> s.Obs.Prof.hs_max));
    ("net.channel_depth_p99", pct "mp.channel_depth" (fun s -> s.Obs.Prof.hs_p99));
    ("net.send_deliver_ns_p50", pct "mp.send_deliver_ns" (fun s -> s.Obs.Prof.hs_p50));
    ("net.send_deliver_ns_p99", pct "mp.send_deliver_ns" (fun s -> s.Obs.Prof.hs_p99));
    ( "net.latency_samples",
      histo "mp.send_deliver_ns" (fun s -> s.Obs.Prof.hs_count) /. nj );
    ("net.samples_lost", per_job "net.samples_lost");
    ("window.retransmits", per_job "window.retransmits");
    ("window.retransmits_per_delivery", ratio (per_job "window.retransmits") deliveries);
    ( "window.frame_ns",
      if w.window_kernel then Workloads.window_frame_ns ~min_s else 0. );
    ("snapshot.epochs", per_job "snapshot.epochs");
    ("snapshot.cuts", per_job "snapshot.cuts");
    ("snapshot.cut_latency_p50", median_or_zero (pooled "snapshot.cut_latency"));
    ("snapshot.markers_sent", per_job "snapshot.markers_sent");
    ("snapshot.markers_dropped", per_job "snapshot.markers_dropped");
    ( "snapshot.consistent_share",
      ratio (per_job "snapshot.consistent") (per_job "snapshot.cuts") );
    ("oracle.valid_delivered", valid);
    ("oracle.invalid_delivered", per_job "oracle.invalid_delivered");
    ("oracle.duplicates", per_job "oracle.duplicates");
    ("oracle.rounds_per_delivery", rounds_per_delivery);
    ( "oracle.prop7_ratio",
      ratio rounds_per_delivery (3. *. per_job "topology.diameter") );
    ("oracle.latency_rounds_p50", median_or_zero latency);
    ("oracle.latency_rounds_tail", tail);
    ("oracle.latency_tail_pct", tail_pct);
    ("oracle.latency_samples", float_of_int (List.length latency));
    ("engine.steps", steps);
    ("engine.rounds", per_job "engine.rounds");
    ("engine.moves", per_job "engine.moves");
    ("engine.moves_per_step", ratio (per_job "engine.moves") steps);
    ("engine.us_per_step", 1e6 *. ratio drive_s steps);
    ("engine.frontier_mean", per_job "engine.frontier_mean");
    ("mc.explored", per_job "mc.explored");
    ("mc.transitions", per_job "mc.transitions");
    ("mc.resident_mb", per_job "mc.resident_bytes" /. 1e6);
    ("mc.store_load", per_job "mc.store_load");
    ("mc.w2_configs_per_s", extra "mc.w2_configs_per_s");
    ( "mc.w2_over_w1",
      ratio (extra "mc.w2_configs_per_s")
        (mean (fun j -> ratio (float_of_int j.ops) j.run_s)) );
    ("mc.steals", extra "mc.steals");
    ("mc.steal_fail", extra "mc.steal_fail");
    ("mc.idle_ms", extra "mc.idle_ms");
    ("mc.attribution_pct", extra "mc.attribution_pct");
    ( "trace.overhead_pct",
      100.
      *. (Stat.median (List.map (fun p -> ratio p.traced.run_s p.untraced.run_s) pairs)
         -. 1.) );
  ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The Perfetto trace of a traced run, checked with Traceview.validate
   (after a round trip through the file when one is written). *)
let trace_problems name prof out =
  let check j =
    match Obs.Traceview.validate j with Ok () -> [] | Error e -> [ "trace: " ^ e ]
  in
  match out with
  | None -> check (Obs.Traceview.to_json prof)
  | Some dir -> (
      let dir = Filename.concat dir "trace" in
      mkdir_p dir;
      let path = Filename.concat dir (name ^ ".json") in
      Obs.Traceview.write_file path prof;
      match Result.bind (Spec.read_file path) Obs.Json.of_string with
      | Ok j -> check j
      | Error e -> [ "trace: " ^ e ])

let metrics_json table values =
  Obs.Json.Obj
    (List.map
       (fun (name, unit_) ->
         match List.assoc_opt name values with
         | Some v ->
             ( name,
               Obs.Json.Obj
                 [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit_) ] )
         | None -> fail "no value for metric %s" name)
       table)

let run_cmd o =
  let w = find_workload o in
  w.warmup ();
  let jobs, table, values, extra_problems =
    if not o.trace then begin
      let heap = probe_heap o in
      let jobs =
        loop o (fun ~seed ->
            strip (w.job (Workloads.spans Obs.Prof.disabled) ~traced:false ~seed))
      in
      (* Interference from other tenants only ever slows a job down, and
         on a shared host it comes in bursts shorter than a run, so the
         faster quarter of the jobs is the steadiest estimate of the
         code's own cost (the repository's older legs take the minimum
         for the same reason); the upper quartile still averages over the
         job seeds. *)
      let values =
        [
          ( "ops_per_s",
            Harness.Stats.percentile 75.
              (List.map (fun (j : Workloads.job) -> float_of_int j.ops /. j.run_s) jobs) );
          ("heap_peak_mb", heap);
          ( "setup_s",
            Harness.Stats.percentile 25.
              (List.map (fun (j : Workloads.job) -> j.setup_s) jobs) );
        ]
      in
      (* Deterministic counts summed over the jobs: equal seeds and job
         counts must reproduce them exactly. *)
      let keys =
        List.sort_uniq compare
          (List.concat_map (fun (j : Workloads.job) -> List.map fst j.layer) jobs)
      in
      let counts =
        ("jobs", Obs.Json.Int (List.length jobs))
        :: List.map
             (fun k ->
               ( k,
                 Obs.Json.Float
                   (List.fold_left
                      (fun a (j : Workloads.job) -> a +. assoc0 k j.layer)
                      0. jobs) ))
             keys
      in
      print_endline ("counts " ^ Obs.Json.to_string (Obs.Json.Obj counts));
      (jobs, end_to_end, values, [])
    end
    else begin
      let prof = Obs.Prof.create ~tracks:w.tracks () in
      let sp = Workloads.spans prof and off = Workloads.spans Obs.Prof.disabled in
      let final = ref None in
      let pairs =
        loop o (fun ~seed ->
            let untraced = strip (w.job off ~traced:false ~seed) in
            let t0 = now_s () in
            let traced = w.job sp ~traced:true ~seed in
            let wall = now_s () -. t0 in
            let extra, extra_problems =
              match w.extra with Some f -> f sp ~seed traced | None -> ([], [])
            in
            final := traced.final;
            {
              untraced;
              traced = { traced with final = None };
              wall;
              extra;
              extra_problems;
            })
      in
      let min_s = if o.quick then 0.002 else 0.05 in
      let values = layer_values w prof ~min_s ~final:!final pairs in
      ( List.concat_map (fun p -> [ p.untraced; p.traced ]) pairs,
        per_layer,
        values,
        List.concat_map (fun p -> p.extra_problems) pairs
        @ trace_problems w.name prof o.out )
    end
  in
  let problems =
    List.concat_map (fun (j : Workloads.job) -> j.problems) jobs @ extra_problems
  in
  let attempted = List.fold_left (fun a (j : Workloads.job) -> a + j.attempted) 0 jobs in
  let failed = List.fold_left (fun a (j : Workloads.job) -> a + j.failed) 0 jobs in
  let metrics = metrics_json table values in
  List.iter (fun p -> print_endline ("problem " ^ p)) (List.sort_uniq compare problems);
  List.iter
    (fun (name, unit_) ->
      Printf.printf "metric %-32s %16.6g %s\n" name (List.assoc name values) unit_)
    table;
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (problems = [] && failed = 0));
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int failed);
            ("metrics", metrics);
          ]))

(* ---------------------------------------------------------------- *)
(* The suite: every workload in its own child process                *)

type core_opts = {
  c_seed : int;
  c_trace : bool;
  c_quick : bool;
  c_out : string option;
  c_append : string option;
}

type child = {
  result : Obs.Json.t;  (** the last line *)
  counts : Obs.Json.t option;
  seconds : float;
}

(* Run [main.exe run ...] and echo its output; [Error] unless it exits 0
   with a JSON last line. *)
let spawn ~label args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now_s () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: "run" :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       Printf.printf "[%s] %s\n%!" label l;
       lines := l :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let seconds = now_s () -. t0 in
  let counts =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"counts " l then
          Result.to_option (Obs.Json.of_string (String.sub l 7 (String.length l - 7)))
        else None)
      !lines
  in
  match (status, !lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match Obs.Json.of_string last with
      | Ok result -> Ok { result; counts; seconds }
      | Error e -> Error (label ^ ": bad result line: " ^ e))
  | _ -> Error (label ^ ": child process failed")

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ | (exception _) -> "unknown")

let next_bench_path dir =
  let rec free n =
    let p = Filename.concat dir (Printf.sprintf "BENCH_%d.json" n) in
    if Sys.file_exists p then free (n + 1) else p
  in
  free 1

let metric_units j =
  match Obs.Json.member "metrics" j with
  | Some (Obs.Json.Obj l) ->
      List.map
        (fun (name, m) ->
          let unit_ = Option.bind (Obs.Json.member "unit" m) Obs.Json.string_value in
          (name, Option.value ~default:"" unit_))
        l
  | _ -> []

(* Every metric BENCHMARK.json names is printed with its unit, and
   nothing else is. *)
let spec_problems (spec : Spec.t) names results =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if List.sort compare spec.Spec.workloads <> List.sort compare names then
    add "workloads differ from BENCHMARK.json";
  let check label (expected : Spec.metric list) = function
    | None -> ()
    | Some j ->
        let got = metric_units j in
        List.iter
          (fun (m : Spec.metric) ->
            match List.assoc_opt m.Spec.name got with
            | None -> add "%s: %s not printed" label m.Spec.name
            | Some u when u <> m.Spec.unit_ ->
                add "%s: %s printed in %s, BENCHMARK.json says %s" label
                  m.Spec.name u m.Spec.unit_
            | Some _ -> ())
          expected;
        List.iter
          (fun (name, _) ->
            if not (List.exists (fun (m : Spec.metric) -> m.Spec.name = name) expected) then
              add "%s: %s is not in BENCHMARK.json" label name)
          got
  in
  List.iter
    (fun (name, untraced, traced) ->
      check name spec.Spec.end_to_end untraced;
      check (name ^ " traced") spec.Spec.per_layer traced)
    results;
  List.rev !problems

let core_cmd o =
  let spec = match Spec.load "BENCHMARK.json" with Ok s -> s | Error e -> fail "%s" e in
  let header =
    [
      ("schema", Obs.Json.String bench_schema);
      ("suite", Obs.Json.String "core");
      ("git_rev", Obs.Json.String (git_rev ()));
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("seed", Obs.Json.Int o.c_seed);
      ("quick", Obs.Json.Bool o.c_quick);
      ("trace", Obs.Json.Bool o.c_trace);
    ]
  in
  (* Runs are appended only to a file whose header matches this one, so
     every run in a file comes from one build, seed and mode. *)
  let previous =
    match o.c_append with
    | Some path when Sys.file_exists path -> (
        match Result.bind (Spec.read_file path) Obs.Json.of_string with
        | Ok j when List.for_all (fun (k, v) -> Obs.Json.member k j = Some v) header ->
            Option.value ~default:[] (Option.bind (Obs.Json.member "runs" j) Obs.Json.to_list)
        | Ok _ ->
            fail "%s holds runs of another schema, git rev, nproc, seed or mode; use a new file"
              path
        | Error e -> fail "%s: %s" path e)
    | _ -> []
  in
  let t0 = now_s () in
  let workloads = Workloads.all ~quick:o.c_quick in
  let errors = ref [] in
  let child (w : Workloads.t) ~trace =
    let args =
      [ "--workload"; w.name; "--seed"; string_of_int o.c_seed; "--seconds"; "1e9";
        "--jobs"; string_of_int w.suite_jobs; "--trace"; (if trace then "1" else "0") ]
      @ (if o.c_quick then [ "--quick" ] else [])
      @ match o.c_out with Some d when trace -> [ "--out"; d ] | _ -> []
    in
    match spawn ~label:(if trace then w.name ^ " traced" else w.name) args with
    | Ok c ->
        if Obs.Json.member "correct" c.result <> Some (Obs.Json.Bool true) then
          errors := (w.name ^ ": correctness check failed") :: !errors;
        Some c
    | Error e ->
        errors := e :: !errors;
        None
  in
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let u = child w ~trace:false in
        let t = if o.c_trace then child w ~trace:true else None in
        (w.name, u, t))
      workloads
  in
  (let res c = Option.map (fun c -> c.result) c in
   errors :=
     List.rev_append
       (spec_problems spec
          (List.map (fun (w : Workloads.t) -> w.name) workloads)
          (List.map (fun (n, u, t) -> (n, res u, res t)) results))
       !errors);
  let total = now_s () -. t0 in
  let field name j = Option.value ~default:Obs.Json.Null (Obs.Json.member name j) in
  let workload_json (name, u, t) =
    let u_fields =
      match u with
      | Some c ->
          [
            ("correct", field "correct" c.result);
            ("attempted", field "attempted" c.result);
            ("failed", field "failed" c.result);
            ("seconds", Obs.Json.Float c.seconds);
            ("metrics", field "metrics" c.result);
            ("counts", Option.value ~default:Obs.Json.Null c.counts);
          ]
      | None -> [ ("correct", Obs.Json.Bool false) ]
    in
    let t_fields =
      match t with
      | Some c ->
          [
            ("traced_correct", field "correct" c.result);
            ("per_layer", field "metrics" c.result);
          ]
      | None -> []
    in
    (name, Obs.Json.Obj (u_fields @ t_fields))
  in
  let run =
    Obs.Json.Obj
      [
        ("created_unix", Obs.Json.Int (int_of_float (Unix.time ())));
        ("total_seconds", Obs.Json.Float total);
        ("workloads", Obs.Json.Obj (List.map workload_json results));
      ]
  in
  let write path runs =
    let oc = open_out path in
    output_string oc
      (Obs.Json.to_string (Obs.Json.Obj (header @ [ ("runs", Obs.Json.List runs) ])));
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s (%d run%s)\n" path (List.length runs)
      (if List.length runs = 1 then "" else "s")
  in
  (match o.c_out with
  | Some dir ->
      mkdir_p dir;
      write (next_bench_path dir) [ run ]
  | None -> ());
  Option.iter (fun path -> write path (previous @ [ run ])) o.c_append;
  Printf.printf "core suite: %d workloads in %.1f s\n" (List.length workloads) total;
  match !errors with
  | [] -> ()
  | es ->
      List.iter (fun e -> prerr_endline ("corebench: " ^ e)) (List.rev es);
      exit 1

(* ---------------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let int_arg name v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> fail "%s expects an integer, got %S" name v
  in
  match args with
  | (("run" | "heap") as cmd) :: rest ->
      let rec parse o = function
        | [] -> o
        | "--workload" :: v :: r -> parse { o with workload = v } r
        | "--seed" :: v :: r -> parse { o with seed = int_arg "--seed" v } r
        | "--seconds" :: v :: r -> (
            match float_of_string_opt v with
            | Some s when s >= 0. -> parse { o with seconds = s } r
            | _ -> fail "--seconds expects a number, got %S" v)
        | "--jobs" :: v :: r -> parse { o with jobs = max 1 (int_arg "--jobs" v) } r
        | "--trace" :: v :: r -> (
            match v with
            | "0" -> parse { o with trace = false } r
            | "1" -> parse { o with trace = true } r
            | _ -> fail "--trace expects 0 or 1, got %S" v)
        | "--quick" :: r -> parse { o with quick = true } r
        | "--out" :: v :: r -> parse { o with out = Some v } r
        | a :: _ -> fail "%s: unexpected argument %S" cmd a
      in
      let o =
        parse
          {
            workload = "";
            seed = 1;
            seconds = 10.;
            jobs = max_int;
            trace = false;
            quick = false;
            out = None;
          }
          rest
      in
      if cmd = "run" then run_cmd o else heap_cmd o
  | "core" :: rest ->
      let rec parse o = function
        | [] -> o
        | "--seed" :: v :: r -> parse { o with c_seed = int_arg "--seed" v } r
        | "--trace" :: r -> parse { o with c_trace = true } r
        | "--quick" :: r -> parse { o with c_quick = true } r
        | "--out" :: v :: r -> parse { o with c_out = Some v } r
        | "--append" :: v :: r -> parse { o with c_append = Some v } r
        | a :: _ -> fail "core: unexpected argument %S" a
      in
      core_cmd
        (parse
           { c_seed = 7; c_trace = false; c_quick = false; c_out = None; c_append = None }
           rest)
  | _ ->
      prerr_endline
        "usage: main.exe run --workload W --seed N --seconds S --trace 0|1\n\
        \                    [--jobs J] [--quick] [--out DIR]\n\
        \       main.exe core [--seed N] [--trace] [--quick] [--out DIR]\n\
        \                     [--append FILE]\n\
        \       main.exe heap --workload W --seed N [--quick]";
      exit 2
