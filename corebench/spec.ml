(* The suite's definition, read from BENCHMARK.json at the repository root:
   workload names, and each metric's unit, direction and regression
   bound. *)

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float;  (** share of the baseline median; 0 for per-layer metrics *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Obs.Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %S" name)

let metric ~bounded j =
  let* name = field "name" Obs.Json.string_value j in
  let* unit_ = field "unit" Obs.Json.string_value j in
  let* better = field "better" Obs.Json.string_value j in
  let* higher_is_better =
    match better with
    | "higher" -> Ok true
    | "lower" -> Ok false
    | b -> Error (Printf.sprintf "%s: better must be higher or lower, not %S" name b)
  in
  let* bound = if bounded then field "bound" Obs.Json.to_float j else Ok 0. in
  Ok { name; unit_; higher_is_better; bound }

let all f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let of_json j =
  let* ws = field "workloads" Obs.Json.to_list j in
  let* workloads = all (field "name" Obs.Json.string_value) ws in
  let* e2e = field "end_to_end" Obs.Json.to_list j in
  let* end_to_end = all (metric ~bounded:true) e2e in
  let* pl = field "per_layer" Obs.Json.to_list j in
  let* per_layer = all (metric ~bounded:false) pl in
  Ok { workloads; end_to_end; per_layer }

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let load path =
  let* text = read_file path in
  let* j = Obs.Json.of_string text in
  Result.map_error (fun e -> path ^ ": " ^ e) (of_json j)
