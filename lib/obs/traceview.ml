(* Chrome trace-event export, nesting validator, and text summary.

   The JSON follows the trace-event format that Perfetto and
   chrome://tracing load: a {"traceEvents": [...]} object whose entries
   are complete duration events (ph "X", ts/dur in microseconds) plus
   one thread_name metadata event (ph "M") per track. pid is always 0;
   tid is the Prof track id, so each domain gets its own lane. *)

let us_of_ns ns = float_of_int ns /. 1e3

let meta_events (p : Prof.t) =
  List.init (Prof.num_tracks p) (fun i ->
      Json.Obj
        [
          ("name", Json.String "thread_name");
          ("ph", Json.String "M");
          ("pid", Json.Int 0);
          ("tid", Json.Int i);
          ("args", Json.Obj [ ("name", Json.String (Prof.track_label p i)) ]);
        ])

let duration_event (p : Prof.t) (e : Prof.event) =
  Json.Obj
    [
      ("name", Json.String (Prof.span_name p e.Prof.e_span));
      ("cat", Json.String "prof");
      ("ph", Json.String "X");
      ("ts", Json.Float (us_of_ns e.Prof.e_start));
      ("dur", Json.Float (us_of_ns e.Prof.e_dur));
      ("pid", Json.Int 0);
      ("tid", Json.Int e.Prof.e_track);
    ]

(* Counter totals as one "C" event per (track, counter) at the end of
   the trace: Perfetto renders them as value tracks, and the summary
   numbers stay visible inside the trace file itself. *)
let counter_events (p : Prof.t) ~end_ts =
  let names = Prof.counter_names p in
  List.concat
    (List.mapi
       (fun cid name ->
         List.filter_map
           (fun tid ->
             let v = Prof.counter_value p ~track:tid cid in
             if v = 0 then None
             else
               Some
                 (Json.Obj
                    [
                      ("name", Json.String name);
                      ("ph", Json.String "C");
                      ("ts", Json.Float (us_of_ns end_ts));
                      ("pid", Json.Int 0);
                      ("tid", Json.Int tid);
                      ("args", Json.Obj [ ("value", Json.Int v) ]);
                    ]))
           (List.init (Prof.num_tracks p) Fun.id))
       names)

let to_json (p : Prof.t) =
  let evs = Prof.events p in
  let end_ts =
    List.fold_left (fun acc e -> max acc (e.Prof.e_start + e.Prof.e_dur)) 0 evs
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (meta_events p
          @ List.map (duration_event p) evs
          @ counter_events p ~end_ts) );
      ("displayTimeUnit", Json.String "ms");
    ]

let write_file path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json p));
      output_char oc '\n')

(* ---------------- validator ---------------- *)

(* Structural checks on a trace document, usable on any Chrome-trace
   JSON (ours or not): required fields per phase, and proper span
   nesting per (pid, tid) lane — two "X" events on one lane must be
   disjoint or one must contain the other. *)

let validate (j : Json.t) : (unit, string) result =
  let ( let* ) = Result.bind in
  let* evs =
    match Option.bind (Json.member "traceEvents" j) Json.to_list with
    | Some l -> Ok l
    | None -> Error "missing or non-list traceEvents"
  in
  let err i msg = Error (Printf.sprintf "event %d: %s" i msg) in
  let* xs =
    List.fold_left
      (fun acc (i, ev) ->
        let* acc = acc in
        let field name = Json.member name ev in
        match Option.bind (field "ph") Json.string_value with
        | None -> err i "missing ph"
        | Some ph -> (
            match Option.bind (field "name") Json.string_value with
            | None -> err i "missing name"
            | Some _ -> (
                match ph with
                | "M" -> Ok acc
                | "C" | "X" -> (
                    let num name = Option.bind (field name) Json.to_float in
                    match (num "ts", Option.bind (field "pid") Json.to_int,
                           Option.bind (field "tid") Json.to_int) with
                    | None, _, _ -> err i "missing ts"
                    | _, None, _ -> err i "missing pid"
                    | _, _, None -> err i "missing tid"
                    | Some ts, Some pid, Some tid ->
                        if ph = "C" then Ok acc
                        else (
                          match num "dur" with
                          | None -> err i "X event missing dur"
                          | Some dur -> Ok ((i, pid, tid, ts, dur) :: acc)))
                | other -> err i (Printf.sprintf "unknown ph %S" other))))
      (Ok [])
      (List.mapi (fun i ev -> (i, ev)) evs)
  in
  (* nesting per lane: sort by (start asc, dur desc) so containers come
     first, then walk with a stack of open intervals *)
  let by_lane = Hashtbl.create 8 in
  List.iter
    (fun (i, pid, tid, ts, dur) ->
      let key = (pid, tid) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_lane key) in
      Hashtbl.replace by_lane key ((i, ts, dur) :: cur))
    xs;
  Hashtbl.fold
    (fun (pid, tid) lane_evs acc ->
      let* () = acc in
      let sorted =
        List.sort
          (fun (_, ts1, d1) (_, ts2, d2) ->
            if ts1 <> ts2 then compare ts1 ts2 else compare d2 d1)
          lane_evs
      in
      (* Timestamps are nanoseconds rendered as microsecond floats, so
         [ts +. dur] can differ from a touching neighbor's [ts] by float
         rounding (~1e-4 us at ms magnitudes). 1e-3 us = one nanosecond:
         anything closer than the clock's own resolution is "touching". *)
      let eps = 1e-3 in
      let rec walk stack = function
        | [] -> Ok ()
        | (i, ts, dur) :: rest -> (
            let stop = ts +. dur in
            (* drop finished enclosers *)
            let rec pop = function
              | (_, _, pstop) :: tl when pstop <= ts +. eps -> pop tl
              | s -> s
            in
            match pop stack with
            | [] -> walk [ (i, ts, stop) ] rest
            | (pi, _, pstop) :: _ as stack ->
                if stop > pstop +. eps then
                  Error
                    (Printf.sprintf
                       "lane pid=%d tid=%d: event %d [%g,%g] partially \
                        overlaps event %d (ends %g)"
                       pid tid i ts stop pi pstop)
                else walk ((i, ts, stop) :: stack) rest)
      in
      walk [] sorted)
    by_lane (Ok ())

(* ---------------- text summary ---------------- *)

(* Top-level coverage of a track: total duration of events not nested
   inside another event on the same track.  This is what "attributed
   wall-clock" means — nested spans (mc.steal inside mc.run) don't
   double-count. *)
let top_level_ns evs =
  let sorted =
    List.sort
      (fun (a : Prof.event) b ->
        if a.Prof.e_start <> b.Prof.e_start then
          compare a.Prof.e_start b.Prof.e_start
        else compare b.Prof.e_dur a.Prof.e_dur)
      evs
  in
  let total = ref 0 in
  let frontier = ref min_int in
  List.iter
    (fun (e : Prof.event) ->
      let stop = e.Prof.e_start + e.Prof.e_dur in
      if e.Prof.e_start >= !frontier then begin
        total := !total + e.Prof.e_dur;
        frontier := stop
      end
      else if stop > !frontier then begin
        (* overlap tail (should not happen with proper nesting) *)
        total := !total + (stop - !frontier);
        frontier := stop
      end)
    sorted;
  !total

let ms ns = float_of_int ns /. 1e6

let summary (p : Prof.t) : string =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if not (Prof.enabled p) then begin
    pr "profiling disabled\n";
    Buffer.contents buf
  end
  else begin
    let evs = Prof.events p in
    let wall_start =
      List.fold_left (fun acc e -> min acc e.Prof.e_start) max_int evs
    in
    let wall_end =
      List.fold_left (fun acc e -> max acc (e.Prof.e_start + e.Prof.e_dur)) 0 evs
    in
    let wall = if evs = [] then 0 else wall_end - wall_start in
    pr "profile: wall %.3f ms, %d events (%d dropped), %d track%s\n" (ms wall)
      (List.length evs) (Prof.dropped p) (Prof.num_tracks p)
      (if Prof.num_tracks p = 1 then "" else "s");
    (* per-span aggregate across tracks *)
    let names = Prof.span_names p in
    if names <> [] then begin
      pr "  %-24s %10s %12s %8s\n" "span" "count" "total ms" "% wall";
      List.iteri
        (fun sid name ->
          let count =
            List.length (List.filter (fun e -> e.Prof.e_span = sid) evs)
          in
          if count > 0 then begin
            let total =
              List.fold_left
                (fun acc e -> if e.Prof.e_span = sid then acc + e.Prof.e_dur else acc)
                0 evs
            in
            let pct =
              if wall = 0 then 0. else 100. *. float_of_int total /. float_of_int wall
            in
            pr "  %-24s %10d %12.3f %8.1f\n" name count (ms total) pct
          end)
        names
    end;
    (* per-track utilization: top-level coverage vs wall *)
    let attribution = ref 0. in
    for tid = 0 to Prof.num_tracks p - 1 do
      let tevs = List.filter (fun e -> e.Prof.e_track = tid) evs in
      let busy = top_level_ns tevs in
      let pct =
        if wall = 0 then 0. else 100. *. float_of_int busy /. float_of_int wall
      in
      if tid = 0 then attribution := pct;
      pr "track %d (%s): busy %.3f ms (%.1f%% of wall, %d events)\n" tid
        (Prof.track_label p tid) (ms busy) pct (List.length tevs)
    done;
    (* counters *)
    let cnames = Prof.counter_names p in
    List.iteri
      (fun cid name ->
        let total = Prof.counter_total p cid in
        if total <> 0 then begin
          let per_track =
            List.init (Prof.num_tracks p) (fun tid ->
                Prof.counter_value p ~track:tid cid)
          in
          pr "counter %-22s total %10d  per-track [%s]\n" name total
            (String.concat " " (List.map string_of_int per_track))
        end)
      cnames;
    (* histograms *)
    let hnames = Prof.histo_names p in
    List.iteri
      (fun hid name ->
        match Prof.histo_summary p hid with
        | None -> ()
        | Some s ->
            pr
              "histo   %-22s n=%d sum=%d min=%d max=%d p50~%d p90~%d p95~%d \
               p99~%d\n"
              name s.Prof.hs_count s.Prof.hs_sum s.Prof.hs_min s.Prof.hs_max
              s.Prof.hs_p50 s.Prof.hs_p90 s.Prof.hs_p95 s.Prof.hs_p99)
      hnames;
    pr "attributed: %.1f%% of wall-clock to named spans (track 0 top-level)\n"
      !attribution;
    Buffer.contents buf
  end

let attribution_pct (p : Prof.t) : float =
  if not (Prof.enabled p) then 0.
  else begin
    let evs = Prof.events p in
    let wall_start =
      List.fold_left (fun acc e -> min acc e.Prof.e_start) max_int evs
    in
    let wall_end =
      List.fold_left (fun acc e -> max acc (e.Prof.e_start + e.Prof.e_dur)) 0 evs
    in
    let wall = if evs = [] then 0 else wall_end - wall_start in
    if wall = 0 then 0.
    else
      let tevs = List.filter (fun e -> e.Prof.e_track = 0) evs in
      100. *. float_of_int (top_level_ns tevs) /. float_of_int wall
  end
