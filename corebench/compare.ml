(* Compare two sets of core-suite results.

   compare.exe A.json B.json

   A is the baseline and B the candidate; each file holds one or more
   runs of [main.exe core] (see its --append). Run from the repository
   root: for every workload and end-to-end metric named in BENCHMARK.json
   it prints each side's median and quartiles and marks the row:

   - worse: B's median is worse than A's by more than the metric's bound;
   - better: B's median is better than A's by more than either side's
     spread (quartile distance over A's median);
   - same: neither;
   - unresolved: a spread exceeds the bound, so a median change within
     the bound cannot be told from noise. Only a B whose every run beats
     every run of A is then marked better.

   Exits 1 on any worse or missing row, on a run whose correctness
   checks failed, and, for files of the same seed, when a deterministic
   count varies between the runs of one side or moves by more than 5%
   between the sides. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("compare: " ^ s);
      exit 2)
    fmt

type side = { header : Obs.Json.t; runs : Obs.Json.t list }

let load path =
  match Result.bind (Spec.read_file path) Obs.Json.of_string with
  | Error e -> fail "%s: %s" path e
  | Ok j -> (
      match Option.bind (Obs.Json.member "runs" j) Obs.Json.to_list with
      | Some (_ :: _ as runs) -> { header = j; runs }
      | _ -> fail "%s: no runs" path)

let workload run name =
  Option.bind (Obs.Json.member "workloads" run) (Obs.Json.member name)

let values side name (m : Spec.metric) =
  List.filter_map
    (fun run ->
      Option.bind (workload run name) (fun w ->
          Option.bind (Obs.Json.member "metrics" w) (fun ms ->
              Option.bind (Obs.Json.member m.Spec.name ms) (fun v ->
                  Option.bind (Obs.Json.member "value" v) Obs.Json.to_float))))
    side.runs

let verdict (m : Spec.metric) a b =
  let _, a_med, _ = Stat.quartiles a and _, b_med, _ = Stat.quartiles b in
  let spread l =
    let q1, _, q3 = Stat.quartiles l in
    (q3 -. q1) /. a_med
  in
  let spread = max (spread a) (spread b) in
  (* Positive = B worse than A, as a share of A's median. *)
  let worse_by x =
    (if m.Spec.higher_is_better then a_med -. x else x -. a_med) /. a_med
  in
  let change = worse_by b_med in
  let better_than y x = if m.Spec.higher_is_better then y > x else y < x in
  let b_beats_every_a = List.for_all (fun y -> List.for_all (better_than y) a) b in
  let label =
    if change > m.Spec.bound then "worse"
    else if spread > m.Spec.bound then
      if b_beats_every_a then "better" else "unresolved"
    else if -.change > spread then "better"
    else "same"
  in
  (label, change, spread)

let show l =
  let q1, med, q3 = Stat.quartiles l in
  Printf.sprintf "%.5g [%.5g, %.5g]" med q1 q3

let () =
  let a_path, b_path =
    match List.tl (Array.to_list Sys.argv) with
    | [ a; b ] -> (a, b)
    | _ -> fail "usage: compare.exe A.json B.json"
  in
  let spec = match Spec.load "BENCHMARK.json" with Ok s -> s | Error e -> fail "%s" e in
  let a = load a_path and b = load b_path in
  let bad = ref false in
  Printf.printf "A = %s (%d runs), B = %s (%d runs)\n" a_path (List.length a.runs) b_path
    (List.length b.runs);
  Printf.printf "%-30s %-14s %-36s %-36s %8s %6s %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "worse by" "bound" "verdict";
  List.iter
    (fun name ->
      List.iter
        (fun (m : Spec.metric) ->
          match (values a name m, values b name m) with
          | [], _ | _, [] ->
              bad := true;
              Printf.printf "%-30s %-14s missing\n" name m.Spec.name
          | va, vb ->
              let label, change, spread = verdict m va vb in
              if label = "worse" then bad := true;
              Printf.printf "%-30s %-14s %-36s %-36s %+7.1f%% %5.0f%% %s%s\n"
                name m.Spec.name (show va) (show vb) (100. *. change)
                (100. *. m.Spec.bound) label
                (if label = "unresolved" then
                   Printf.sprintf " (spread %.1f%%)" (100. *. spread)
                 else ""))
        spec.Spec.end_to_end)
    spec.Spec.workloads;
  (* Correctness of every run on both sides. *)
  List.iter
    (fun (path, side) ->
      List.iteri
        (fun i run ->
          List.iter
            (fun name ->
              match Option.bind (workload run name) (Obs.Json.member "correct") with
              | Some (Obs.Json.Bool true) -> ()
              | _ ->
                  bad := true;
                  Printf.printf "%s run %d: %s failed its correctness checks\n"
                    path (i + 1) name)
            spec.Spec.workloads)
        side.runs)
    [ (a_path, a); (b_path, b) ];
  (* Deterministic counts (same seed and sizes) must repeat exactly
     within a side; between sides a trajectory that changed on purpose
     may move them, by at most [count_bound]. *)
  let count_bound = 0.05 in
  let key side = List.map (fun f -> Obs.Json.member f side.header) [ "seed"; "quick" ] in
  let fields = function Obs.Json.Obj l -> l | _ -> [] in
  let steady name (path, side) =
    match
      List.filter_map
        (fun run -> Option.bind (workload run name) (Obs.Json.member "counts"))
        side.runs
    with
    | c :: rest when List.for_all (( = ) c) rest -> Some c
    | [] -> None
    | _ ->
        bad := true;
        Printf.printf "%s: deterministic counts vary between the runs of %s\n" name path;
        None
  in
  if key a = key b then
    List.iter
      (fun name ->
        match (steady name (a_path, a), steady name (b_path, b)) with
        | Some ca, Some cb when ca = cb ->
            Printf.printf "%s: deterministic counts identical across %d runs\n" name
              (List.length a.runs + List.length b.runs)
        | Some ca, Some cb ->
            List.iter
              (fun (k, va) ->
                match
                  ( Obs.Json.to_float va,
                    Option.bind (List.assoc_opt k (fields cb)) Obs.Json.to_float )
                with
                | Some x, Some y when x <> y ->
                    let change = if x = 0. then infinity else (y -. x) /. abs_float x in
                    if abs_float change > count_bound then bad := true;
                    Printf.printf "%s: count %s %.6g -> %.6g (%+.1f%%)\n" name k x y
                      (100. *. change)
                | _ -> ())
              (fields ca)
        | _ -> ())
      spec.Spec.workloads;
  if !bad then exit 1
