(* A histogram keeps one count per distinct sample, keyed by the sample's
   float bits: its memory follows the number of distinct values, not the
   number of observations. *)
type histo = { counts : (int64, int ref) Hashtbl.t; mutable n : int }

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, histo) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        let h = { counts = Hashtbl.create 16; n = 0 } in
        Hashtbl.replace t.histograms name h;
        h
  in
  let key = Int64.bits_of_float v in
  (match Hashtbl.find_opt h.counts key with
  | Some c -> c := !c + 1
  | None -> Hashtbl.replace h.counts key (ref 1));
  h.n <- h.n + 1

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* The distinct values sorted with [compare], each with its count: the
   sorted sample list, run-length encoded. Summing each value as often as
   it occurred, in that order, and reading nearest ranks off the running
   counts give exactly the sorted-list summary (same nearest-rank
   convention as Harness.Stats, which obs cannot depend on: harness
   depends on obs) whenever no sample is nan or -0. *)
let summarize (h : histo) =
  let n = h.n in
  if n = 0 then
    { count = 0; mean = nan; min = nan; max = nan; p50 = nan; p90 = nan; p99 = nan }
  else begin
    let runs =
      Array.of_list
        (Hashtbl.fold (fun k c acc -> (Int64.float_of_bits k, !c) :: acc) h.counts [])
    in
    Array.sort (fun (a, _) (b, _) -> compare a b) runs;
    let total = ref 0. in
    Array.iter
      (fun (v, c) ->
        for _ = 1 to c do
          total := !total +. v
        done)
      runs;
    let pct p =
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      let rank = max 0 (min (n - 1) rank) in
      let rec at i below =
        let v, c = runs.(i) in
        if rank < below + c then v else at (i + 1) (below + c)
      in
      at 0 0
    in
    {
      count = n;
      mean = !total /. float_of_int n;
      min = fst runs.(0);
      max = fst runs.(Array.length runs - 1);
      p50 = pct 50.;
      p90 = pct 90.;
      p99 = pct 99.;
    }
  end

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * summary) list;
}

let sorted_bindings tbl f =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])

let snapshot (t : t) : snapshot =
  {
    counters = sorted_bindings t.counters ( ! );
    gauges = sorted_bindings t.gauges ( ! );
    histograms = sorted_bindings t.histograms summarize;
  }

let counter_value s name =
  Option.value ~default:0 (List.assoc_opt name s.counters)

let gauge_value s name = List.assoc_opt name s.gauges
let histogram_summary s name = List.assoc_opt name s.histograms

let summary_to_json (s : summary) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float s.mean);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p99", Json.Float s.p99);
    ]

let snapshot_to_json s =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters) );
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj
          (List.map (fun (k, v) -> (k, summary_to_json v)) s.histograms) );
    ]
