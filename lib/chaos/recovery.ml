type report = {
  burst_rounds : int list;
  relegitimacy_round : int;
  post_generated : int;
  post_delivered_once : int;
  post_duplicated : int;
  post_lost : int;
  invalid_total : int;
  invalid_worst_window : int;
  invalid_budget : int;
  invalid_budget_ok : bool;
  recovery_rounds : int;
  envelope_rounds : int;
  within_envelope : bool;
  quiescent : bool;
  ok : bool;
  violations : string list;
}

(* Δ^D saturating at a ceiling: the envelope is only compared against
   recovery times, which are far below the cap in any feasible run. *)
let pow_capped base exp =
  let cap = 1_000_000_000 in
  let rec go acc e =
    if e <= 0 then acc
    else if acc >= cap / max base 1 then cap
    else go (acc * max base 1) (e - 1)
  in
  if exp <= 0 then 1 else go 1 exp

(* Assign a round to the window opened by the latest boundary <= round.
   Boundaries are 0 :: burst rounds, so window 0 is the pre-burst run. *)
let window_of boundaries round =
  let rec go i best = function
    | [] -> best
    | b :: rest -> if b <= round then go (i + 1) i rest else best
  in
  go 0 0 boundaries

let analyze ~oracle ~burst_rounds ~n ~delta ~diameter ~final_round ~quiescent
    ~routing_settled_round () =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let burst_rounds = List.sort compare burst_rounds in
  let last_burst = List.fold_left max 0 burst_rounds in
  let invalid_log = Harness.Oracle.invalid_delivery_log oracle in
  let invalid_total = List.length invalid_log in
  (* Proposition 4, amortized over fault events: each fault event (the
     arbitrary initial configuration, then every burst) can seed at most
     2n invalid deliveries per destination. The purge of one event's
     forgeries may well cross the next burst's boundary, so the sound
     check is cumulative: through the end of window k, a destination may
     have received at most (k+1)·2n invalid messages. *)
  let boundaries = 0 :: burst_rounds in
  let n_windows = List.length boundaries in
  let windows = Hashtbl.create 16 in
  List.iter
    (fun (round, dest) ->
      let w = window_of boundaries round in
      let counts =
        match Hashtbl.find_opt windows dest with
        | Some a -> a
        | None ->
            let a = Array.make n_windows 0 in
            Hashtbl.add windows dest a;
            a
      in
      counts.(w) <- counts.(w) + 1)
    invalid_log;
  let invalid_worst_window =
    Hashtbl.fold
      (fun _ counts acc -> Array.fold_left max acc counts)
      windows 0
  in
  let invalid_budget = 2 * n in
  let invalid_budget_ok = ref true in
  let dests =
    List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) windows [])
  in
  List.iter
    (fun dest ->
      let counts = Hashtbl.find windows dest in
      let running = ref 0 in
      Array.iteri
        (fun k c ->
          running := !running + c;
          if !invalid_budget_ok && !running > (k + 1) * invalid_budget then begin
            invalid_budget_ok := false;
            add
              "destination %d received %d invalid messages through fault event \
               %d (> %d*2n = %d)"
              dest !running (k + 1) (k + 1)
              ((k + 1) * invalid_budget)
          end)
        counts)
    dests;
  let invalid_budget_ok = !invalid_budget_ok in
  (* Re-legitimacy point: after the last burst, once the last invalid
     delivery has happened the system can no longer emit traffic the
     faults forged — every ghost generated after this round falls under
     the snap-stabilization contract. *)
  let last_invalid =
    List.fold_left (fun acc (round, _) -> max acc round) 0 invalid_log
  in
  let relegitimacy_round = max last_burst last_invalid in
  (* Snap-stabilization binds SP to every request made after the faults
     stop — strictly after the last burst round, even while leftover
     invalid messages are still being purged. (Generations in the burst
     round itself are excluded: within that round they may predate the
     strike and have been wiped by it.) *)
  let post =
    List.filter
      (fun (_, gen, _) ->
        match gen with Some r -> r > last_burst | None -> false)
      (Harness.Oracle.ghost_views oracle)
  in
  let post_generated = List.length post in
  let post_delivered_once =
    List.length (List.filter (fun (_, _, ds) -> List.length ds = 1) post)
  in
  let post_duplicated =
    List.length (List.filter (fun (_, _, ds) -> List.length ds > 1) post)
  in
  let post_lost = List.length (List.filter (fun (_, _, ds) -> ds = []) post) in
  if post_duplicated > 0 then
    add "%d post-recovery message(s) delivered more than once" post_duplicated;
  if quiescent && post_lost > 0 then
    add "%d post-recovery message(s) lost" post_lost;
  if not quiescent then
    add "system did not re-reach quiescence after the last burst";
  (* Rounds-to-recovery vs the Proposition 5 envelope O(max(R_A, Δ^D)):
     R_A is the rounds the routing protocol still needed after the last
     burst. The constant-free comparison is informational — the paper's
     bound hides multiplicative constants — and not part of [ok]. *)
  let recovery_rounds = if quiescent then max 0 (final_round - last_burst) else -1 in
  let r_a = max 0 (routing_settled_round - last_burst) in
  let envelope_rounds = max 1 (max r_a (pow_capped (max delta 1) diameter)) in
  let within_envelope = quiescent && recovery_rounds <= envelope_rounds in
  let ok = !violations = [] in
  {
    burst_rounds;
    relegitimacy_round;
    post_generated;
    post_delivered_once;
    post_duplicated;
    post_lost;
    invalid_total;
    invalid_worst_window;
    invalid_budget;
    invalid_budget_ok;
    recovery_rounds;
    envelope_rounds;
    within_envelope;
    quiescent;
    ok;
    violations = List.rev !violations;
  }

let to_json (r : report) =
  Obs.Json.Obj
    [
      ("burst_rounds", Obs.Json.List (List.map (fun b -> Obs.Json.Int b) r.burst_rounds));
      ("relegitimacy_round", Obs.Json.Int r.relegitimacy_round);
      ("post_generated", Obs.Json.Int r.post_generated);
      ("post_delivered_once", Obs.Json.Int r.post_delivered_once);
      ("post_duplicated", Obs.Json.Int r.post_duplicated);
      ("post_lost", Obs.Json.Int r.post_lost);
      ("invalid_total", Obs.Json.Int r.invalid_total);
      ("invalid_worst_window", Obs.Json.Int r.invalid_worst_window);
      ("invalid_budget", Obs.Json.Int r.invalid_budget);
      ("recovery_rounds", Obs.Json.Int r.recovery_rounds);
      ("envelope_rounds", Obs.Json.Int r.envelope_rounds);
      ("within_envelope", Obs.Json.Bool r.within_envelope);
      ("quiescent", Obs.Json.Bool r.quiescent);
      ("ok", Obs.Json.Bool r.ok);
      ("violations", Obs.Json.List (List.map (fun v -> Obs.Json.String v) r.violations));
    ]

(* With no schedule at all the classic whole-run SP check stands alone;
   with an unreliable channel but no bursts both the whole-run check and
   the recovery oracle must hold (retransmission must still get
   everything through); once bursts strike, the whole-run check may
   legitimately fail (a crash destroys in-flight valid messages), so the
   recovery oracle's post-burst clauses are the verdict. *)
let verdict ~(schedule : Schedule.t) ~(verdict : Harness.Oracle.verdict)
    ~(report : report) =
  if Schedule.is_none schedule then
    (verdict.Harness.Oracle.ok, verdict.Harness.Oracle.violations, None)
  else if schedule.Schedule.bursts = [] then
    ( verdict.Harness.Oracle.ok && report.ok,
      verdict.Harness.Oracle.violations @ report.violations,
      Some report )
  else (report.ok, report.violations, Some report)

(* Enough traffic that the post-burst once-and-only-once clause is never
   vacuous, small enough not to reshape the workload. *)
let aftermath_for (schedule : Schedule.t) =
  if schedule.Schedule.bursts = [] then 0 else 4

let aftermath_wave rng ~n count push =
  if n <= 1 then 0
  else begin
    for i = 1 to count do
      let src = Prng.Splitmix.int rng n in
      let dest = (src + 1 + Prng.Splitmix.int rng (n - 1)) mod n in
      push src ~dest (Printf.sprintf "aftermath-%d" i)
    done;
    count
  end

let graph_meta g =
  (Topology.Graph.n g, Topology.Graph.max_degree g, Topology.Metrics.diameter g)
