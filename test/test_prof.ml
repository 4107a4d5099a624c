(* Tests for the profiling subsystem (DESIGN.md §10): Obs.Prof recording
   semantics under a fake clock, Obs.Traceview export + nesting
   validator, and the streaming journal's crash durability. *)

(* A hand-cranked clock: [tick n] advances time by [n] nanoseconds.
   Prof reads it once at [create] for the epoch, so starting at 0 makes
   recorded timestamps equal to the raw tick sum. Ticking in multiples
   of 1000 ns keeps the exported microsecond floats exact. *)
let fake_clock () =
  let t = ref 0 in
  ((fun () -> !t), fun ns -> t := !t + ns)

(* ---------------- Prof ---------------- *)

let ev_tuple (e : Obs.Prof.event) =
  Printf.sprintf "t%d s%d [%d,+%d]" e.Obs.Prof.e_track e.Obs.Prof.e_span
    e.Obs.Prof.e_start e.Obs.Prof.e_dur

let evs_testable = Alcotest.(list string)

(* Build the small two-track profile used by both the recording test and
   the golden trace: span "a" [0,4000] on track 0 with "b" [1000,2000]
   nested inside, "a" [1000,3000] on track 1, counter "c" on both. *)
let sample_profile () =
  let clock, tick = fake_clock () in
  let p = Obs.Prof.create ~clock ~tracks:2 () in
  let sa = Obs.Prof.span p "a" in
  let sb = Obs.Prof.span p "b" in
  let c = Obs.Prof.counter p "c" in
  let tr0 = Obs.Prof.track p 0 and tr1 = Obs.Prof.track p 1 in
  let t0 = Obs.Prof.now p in
  tick 4000;
  Obs.Prof.record tr0 sa ~start:t0;
  Obs.Prof.record_interval tr0 sb ~start:1000 ~stop:2000;
  Obs.Prof.record_interval tr1 sa ~start:1000 ~stop:3000;
  Obs.Prof.add tr0 c 3;
  Obs.Prof.add tr1 c 4;
  (p, sa, sb, c)

let test_record_and_export () =
  let p, sa, sb, c = sample_profile () in
  Alcotest.(check int) "span registration idempotent" sa (Obs.Prof.span p "a");
  Alcotest.(check int) "counter registration idempotent" c
    (Obs.Prof.counter p "c");
  (* sorted by start asc, then longer first: a@0 before the two @1000,
     track 1's 2000 ns event before track 0's 1000 ns one *)
  let exp t s start dur = Printf.sprintf "t%d s%d [%d,+%d]" t s start dur in
  Alcotest.(check evs_testable) "events sorted (start asc, dur desc)"
    [ exp 0 sa 0 4000; exp 1 sa 1000 2000; exp 0 sb 1000 1000 ]
    (List.map ev_tuple (Obs.Prof.events p));
  Alcotest.(check int) "span_total a on track 0" 4000
    (Obs.Prof.span_total p ~track:0 sa);
  Alcotest.(check int) "span_total b on track 1" 0
    (Obs.Prof.span_total p ~track:1 sb);
  Alcotest.(check int) "counter per track" 3 (Obs.Prof.counter_value p ~track:0 c);
  Alcotest.(check int) "counter total" 7 (Obs.Prof.counter_total p c);
  Alcotest.(check int) "nothing dropped" 0 (Obs.Prof.dropped p);
  Alcotest.(check (list string)) "span names" [ "a"; "b" ] (Obs.Prof.span_names p)

let test_negative_interval_clamps () =
  let clock, _ = fake_clock () in
  let p = Obs.Prof.create ~clock ~tracks:1 () in
  let s = Obs.Prof.span p "s" in
  Obs.Prof.record_interval (Obs.Prof.track p 0) s ~start:500 ~stop:200;
  Alcotest.(check evs_testable) "stop < start clamps to zero duration"
    [ Printf.sprintf "t0 s%d [500,+0]" s ]
    (List.map ev_tuple (Obs.Prof.events p))

let test_ring_overwrite () =
  let clock, _ = fake_clock () in
  let p = Obs.Prof.create ~clock ~capacity:4 ~tracks:1 () in
  let s = Obs.Prof.span p "s" in
  let tr = Obs.Prof.track p 0 in
  for i = 0 to 5 do
    Obs.Prof.record_interval tr s ~start:(1000 * i) ~stop:((1000 * i) + 100)
  done;
  let evs = Obs.Prof.events p in
  Alcotest.(check int) "ring keeps capacity events" 4 (List.length evs);
  Alcotest.(check int) "overflow counted" 2 (Obs.Prof.dropped p);
  Alcotest.(check evs_testable) "oldest overwritten, order preserved"
    (List.map (fun i -> Printf.sprintf "t0 s%d [%d,+100]" s (1000 * i)) [ 2; 3; 4; 5 ])
    (List.map ev_tuple evs)

let test_histo_many_registrations () =
  (* Regression: the per-track instrument arrays are padded to >= 4
     slots on first growth, so the growth guard must test the bucket
     table itself — a third histogram used to index h_buckets out of
     bounds on its first observe. Register well past the pad and
     observe each. *)
  let clock, _ = fake_clock () in
  let p = Obs.Prof.create ~clock ~tracks:2 () in
  let hs = List.init 7 (fun i -> Obs.Prof.histo p (Printf.sprintf "h%d" i)) in
  let tr1 = Obs.Prof.track p 1 in
  List.iteri (fun i h -> Obs.Prof.observe tr1 h (i + 1)) hs;
  List.iteri
    (fun i h ->
      match Obs.Prof.histo_summary p h with
      | None -> Alcotest.failf "h%d: no summary" i
      | Some s ->
          Alcotest.(check int) (Printf.sprintf "h%d count" i) 1 s.Obs.Prof.hs_count;
          Alcotest.(check int) (Printf.sprintf "h%d sum" i) (i + 1) s.Obs.Prof.hs_sum)
    hs

let test_histo_merges_tracks () =
  let clock, _ = fake_clock () in
  let p = Obs.Prof.create ~clock ~tracks:2 () in
  let h = Obs.Prof.histo p "lat" in
  Obs.Prof.observe (Obs.Prof.track p 0) h 1;
  Obs.Prof.observe (Obs.Prof.track p 0) h 1000;
  Obs.Prof.observe (Obs.Prof.track p 1) h 64;
  (match Obs.Prof.histo_summary p h with
  | None -> Alcotest.fail "no summary"
  | Some s ->
      Alcotest.(check int) "count across tracks" 3 s.Obs.Prof.hs_count;
      Alcotest.(check int) "sum" 1065 s.Obs.Prof.hs_sum;
      Alcotest.(check int) "min" 1 s.Obs.Prof.hs_min;
      Alcotest.(check int) "max" 1000 s.Obs.Prof.hs_max;
      (* log2-bucket midpoint estimates: p50 falls in 64's bucket *)
      Alcotest.(check int) "p50 bucket estimate" 96 s.Obs.Prof.hs_p50);
  Alcotest.(check (option Alcotest.reject)) "unobserved histo is None" None
    (Obs.Prof.histo_summary p (Obs.Prof.histo p "empty"))

let test_disabled_noops () =
  let p = Obs.Prof.disabled in
  Alcotest.(check bool) "disabled" false (Obs.Prof.enabled p);
  Alcotest.(check int) "now is 0" 0 (Obs.Prof.now p);
  let s = Obs.Prof.span p "a" and c = Obs.Prof.counter p "c" in
  let h = Obs.Prof.histo p "h" in
  let tr = Obs.Prof.track p 0 in
  Obs.Prof.record tr s ~start:0;
  Obs.Prof.record_interval tr s ~start:0 ~stop:10;
  Obs.Prof.add tr c 5;
  Obs.Prof.observe tr h 5;
  Alcotest.(check evs_testable) "no events" [] (List.map ev_tuple (Obs.Prof.events p));
  Alcotest.(check int) "no counters" 0 (Obs.Prof.counter_total p c);
  Alcotest.(check (option Alcotest.reject)) "no histos" None
    (Obs.Prof.histo_summary p h);
  Alcotest.(check int) "no drops" 0 (Obs.Prof.dropped p)

let test_out_of_range_track_is_noop () =
  let clock, _ = fake_clock () in
  let p = Obs.Prof.create ~clock ~tracks:1 () in
  let s = Obs.Prof.span p "s" in
  Obs.Prof.record_interval (Obs.Prof.track p 7) s ~start:0 ~stop:10;
  Obs.Prof.record_interval (Obs.Prof.track p (-1)) s ~start:0 ~stop:10;
  Alcotest.(check evs_testable) "out-of-range tracks record nothing" []
    (List.map ev_tuple (Obs.Prof.events p))

(* ---------------- Traceview ---------------- *)

(* Render one trace event to a stable line for golden comparison. *)
let render_event ev =
  let str name = Option.bind (Obs.Json.member name ev) Obs.Json.string_value in
  let num name = Option.bind (Obs.Json.member name ev) Obs.Json.to_float in
  let int name = Option.bind (Obs.Json.member name ev) Obs.Json.to_int in
  let opt_num name =
    match num name with None -> "" | Some f -> Printf.sprintf " %s=%g" name f
  in
  Printf.sprintf "%s %s tid=%d%s%s"
    (Option.value ~default:"?" (str "ph"))
    (Option.value ~default:"?" (str "name"))
    (Option.value ~default:(-1) (int "tid"))
    (opt_num "ts") (opt_num "dur")

let trace_lines j =
  match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
  | None -> Alcotest.fail "no traceEvents"
  | Some evs -> List.map render_event evs

let test_traceview_golden () =
  let p, _, _, _ = sample_profile () in
  let j = Obs.Traceview.to_json p in
  (match Obs.Traceview.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "golden trace invalid: %s" e);
  Alcotest.(check (list string)) "golden event list"
    [
      "M thread_name tid=0";
      "M thread_name tid=1";
      "X a tid=0 ts=0 dur=4";
      "X a tid=1 ts=1 dur=2";
      "X b tid=0 ts=1 dur=1";
      "C c tid=0 ts=4";
      "C c tid=1 ts=4";
    ]
    (trace_lines j);
  (* the whole wall [0,4000] is covered by track 0's top-level span *)
  Alcotest.(check (float 0.01)) "full attribution" 100.
    (Obs.Traceview.attribution_pct p)

let test_traceview_roundtrip_file () =
  let p, _, _, _ = sample_profile () in
  let path = Filename.temp_file "ssmfp_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Traceview.write_file path p;
      let raw = In_channel.with_open_text path In_channel.input_all in
      match Obs.Json.of_string raw with
      | Error e -> Alcotest.failf "unparsable trace file: %s" e
      | Ok j -> (
          match Obs.Traceview.validate j with
          | Ok () -> ()
          | Error e -> Alcotest.failf "written trace invalid: %s" e))

let xev ?(pid = 0) ~tid ~ts ~dur name =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String name);
      ("ph", Obs.Json.String "X");
      ("ts", Obs.Json.Float ts);
      ("dur", Obs.Json.Float dur);
      ("pid", Obs.Json.Int pid);
      ("tid", Obs.Json.Int tid);
    ]

let doc evs = Obs.Json.Obj [ ("traceEvents", Obs.Json.List evs) ]

let check_valid name j =
  match Obs.Traceview.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: unexpectedly invalid: %s" name e

let check_invalid name j =
  match Obs.Traceview.validate j with
  | Ok () -> Alcotest.failf "%s: unexpectedly valid" name
  | Error _ -> ()

let test_validator_nesting () =
  check_valid "nested"
    (doc [ xev ~tid:0 ~ts:0. ~dur:10. "outer"; xev ~tid:0 ~ts:2. ~dur:3. "inner" ]);
  check_valid "disjoint"
    (doc [ xev ~tid:0 ~ts:0. ~dur:5. "a"; xev ~tid:0 ~ts:7. ~dur:2. "b" ]);
  (* barrier spans start at the exact ns their predecessor ends *)
  check_valid "touching"
    (doc [ xev ~tid:0 ~ts:0. ~dur:5. "a"; xev ~tid:0 ~ts:5. ~dur:5. "b" ]);
  check_valid "same event on two lanes overlaps freely"
    (doc [ xev ~tid:0 ~ts:0. ~dur:10. "a"; xev ~tid:1 ~ts:5. ~dur:10. "a" ]);
  check_invalid "partial overlap"
    (doc [ xev ~tid:0 ~ts:0. ~dur:10. "a"; xev ~tid:0 ~ts:5. ~dur:10. "b" ])

let test_validator_structure () =
  check_invalid "missing traceEvents" (Obs.Json.Obj [ ("foo", Obs.Json.Int 1) ]);
  check_invalid "unknown ph"
    (doc
       [
         Obs.Json.Obj
           [ ("name", Obs.Json.String "e"); ("ph", Obs.Json.String "Z") ];
       ]);
  check_invalid "X without dur"
    (doc
       [
         Obs.Json.Obj
           [
             ("name", Obs.Json.String "e");
             ("ph", Obs.Json.String "X");
             ("ts", Obs.Json.Float 0.);
             ("pid", Obs.Json.Int 0);
             ("tid", Obs.Json.Int 0);
           ];
       ]);
  check_invalid "missing name"
    (doc [ Obs.Json.Obj [ ("ph", Obs.Json.String "M") ] ]);
  check_valid "metadata needs no ts"
    (doc
       [
         Obs.Json.Obj
           [ ("name", Obs.Json.String "thread_name"); ("ph", Obs.Json.String "M") ];
       ])

(* ---------------- streaming journal durability ---------------- *)

let test_journal_partial_on_raise () =
  let path = Filename.temp_file "ssmfp_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* a probe that records two faults and then dies mid-run *)
      (match
         Obs.Journal.with_file path (fun j ->
             Obs.Journal.record_fault j ~step:1 ~round:0 ~pid:0 ~detail:"routing";
             Obs.Journal.record_fault j ~step:2 ~round:0 ~pid:1 ~detail:"buffers";
             failwith "probe crash")
       with
      | () -> Alcotest.fail "probe did not raise"
      | exception Failure msg ->
          Alcotest.(check string) "exception propagates" "probe crash" msg);
      (* the lines recorded before the raise are on disk *)
      match Obs.Journal.load_jsonl path with
      | Error e -> Alcotest.failf "partial journal unreadable: %s" e
      | Ok entries ->
          Alcotest.(check int) "both pre-crash entries" 2 (List.length entries);
          Alcotest.(check (list string)) "payloads intact"
            [ "routing"; "buffers" ]
            (List.map (fun e -> e.Obs.Journal.info) entries))

let test_journal_close_idempotent () =
  let path = Filename.temp_file "ssmfp_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let j = Obs.Journal.create ~path () in
      Obs.Journal.record_fault j ~step:1 ~round:0 ~pid:0 ~detail:"crash";
      Obs.Journal.flush j;
      Obs.Journal.close j;
      Obs.Journal.close j;
      (* post-close records accumulate in memory but never hit the file *)
      Obs.Journal.record_fault j ~step:2 ~round:0 ~pid:1 ~detail:"late";
      Alcotest.(check int) "memory keeps both" 2 (Obs.Journal.length j);
      match Obs.Journal.load_jsonl path with
      | Error e -> Alcotest.failf "journal unreadable: %s" e
      | Ok entries ->
          Alcotest.(check int) "file has only the pre-close line" 1
            (List.length entries))

(* Regression for the parallel checker's steal-span attribution: worker
   domains look spans and counters up from inside the parallel section
   (the mutex-serialized idempotent path) and may even race to register
   a name the main domain never saw. Ids must be stable across domains,
   the name tables must stay consistent, and counters registered up
   front must be exact. *)
let test_cross_domain_registration () =
  let nworkers = 4 and iters = 200 in
  let p = Obs.Prof.create ~tracks:(nworkers + 1) () in
  let run = Obs.Prof.span p "mc.run" in
  let steals = Obs.Prof.counter p "mc.steals" in
  let mismatches = Atomic.make 0 in
  let steal_ids = Array.make nworkers (-1) in
  let worker w () =
    let tr = Obs.Prof.track p (w + 1) in
    (* all workers race to register the same fresh name *)
    steal_ids.(w) <- Obs.Prof.span p "mc.steal";
    for _ = 1 to iters do
      (* idempotent lookups from a worker domain *)
      if Obs.Prof.span p "mc.run" <> run then Atomic.incr mismatches;
      if Obs.Prof.counter p "mc.steals" <> steals then
        Atomic.incr mismatches;
      let start = Obs.Prof.now p in
      Obs.Prof.add tr steals 1;
      Obs.Prof.record tr steal_ids.(w) ~start
    done
  in
  let domains = Array.init nworkers (fun w -> Domain.spawn (worker w)) in
  Array.iter Domain.join domains;
  Alcotest.(check int) "ids stable across domains" 0 (Atomic.get mismatches);
  Array.iter
    (fun id ->
      Alcotest.(check int) "racing registrations agree" steal_ids.(0) id)
    steal_ids;
  Alcotest.(check (list string)) "span names consistent"
    [ "mc.run"; "mc.steal" ]
    (List.sort compare (Obs.Prof.span_names p));
  Alcotest.(check int) "up-front counter is exact" (nworkers * iters)
    (Obs.Prof.counter_total p steals);
  for w = 1 to nworkers do
    Alcotest.(check int)
      (Printf.sprintf "track %d counter" w)
      iters
      (Obs.Prof.counter_value p ~track:w steals)
  done;
  let steal_events =
    List.filter
      (fun e -> e.Obs.Prof.e_span = steal_ids.(0))
      (Obs.Prof.events p)
  in
  Alcotest.(check int) "no steal event lost" (nworkers * iters)
    (List.length steal_events)

let () =
  Alcotest.run "prof"
    [
      ( "prof",
        [
          Alcotest.test_case "record and export" `Quick test_record_and_export;
          Alcotest.test_case "negative interval clamps" `Quick
            test_negative_interval_clamps;
          Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
          Alcotest.test_case "many histo registrations" `Quick
            test_histo_many_registrations;
          Alcotest.test_case "histo merges tracks" `Quick test_histo_merges_tracks;
          Alcotest.test_case "disabled no-ops" `Quick test_disabled_noops;
          Alcotest.test_case "cross-domain registration" `Quick
            test_cross_domain_registration;
          Alcotest.test_case "out-of-range track" `Quick
            test_out_of_range_track_is_noop;
        ] );
      ( "traceview",
        [
          Alcotest.test_case "golden trace" `Quick test_traceview_golden;
          Alcotest.test_case "file roundtrip" `Quick test_traceview_roundtrip_file;
          Alcotest.test_case "validator nesting" `Quick test_validator_nesting;
          Alcotest.test_case "validator structure" `Quick test_validator_structure;
        ] );
      ( "journal stream",
        [
          Alcotest.test_case "partial on raise" `Quick test_journal_partial_on_raise;
          Alcotest.test_case "close idempotent" `Quick test_journal_close_idempotent;
        ] );
    ]
