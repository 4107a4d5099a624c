type record = {
  mutable generated_round : int option;
  mutable deliveries : int list; (* rounds, reverse order *)
  mutable src : int;
}

type t = {
  ghosts : (int, record) Hashtbl.t; (* valid ghosts only *)
  invalid_delivered : (int, int) Hashtbl.t; (* dest -> count *)
  mutable invalid_log : (int * int) list; (* (round, dest), reverse *)
  pending_requests : (int, int) Hashtbl.t; (* pid -> round raised *)
  mutable delay_samples : float list;
  mutable gen_rounds : (int, int list) Hashtbl.t; (* pid -> rounds, reverse *)
  mutable delivery_steps : (int * int) list; (* (round, cumulative), reverse *)
  mutable delivered_total : int;
}

let create () =
  {
    ghosts = Hashtbl.create 64;
    invalid_delivered = Hashtbl.create 16;
    invalid_log = [];
    pending_requests = Hashtbl.create 16;
    delay_samples = [];
    gen_rounds = Hashtbl.create 16;
    delivery_steps = [];
    delivered_total = 0;
  }

let record_of t gid =
  match Hashtbl.find_opt t.ghosts gid with
  | Some r -> r
  | None ->
      let r = { generated_round = None; deliveries = []; src = -1 } in
      Hashtbl.replace t.ghosts gid r;
      r

(* A processor has at most one outstanding request (it may only raise
   request_p when the flag is false), so a per-processor slot suffices. *)
let observe_request_raised t ~round ~pid =
  if not (Hashtbl.mem t.pending_requests pid) then
    Hashtbl.replace t.pending_requests pid round

let bump_invalid t ~round dest =
  let count =
    Option.value ~default:0 (Hashtbl.find_opt t.invalid_delivered dest)
  in
  Hashtbl.replace t.invalid_delivered dest (count + 1);
  t.invalid_log <- (round, dest) :: t.invalid_log

let note_delivery t ~round =
  t.delivered_total <- t.delivered_total + 1;
  t.delivery_steps <- (round, t.delivered_total) :: t.delivery_steps

let observe t ~round ~pid ev =
  match ev with
  | Ssmfp.Protocol.Generated (m, _dest) ->
      let g = m.Ssmfp.Message.ghost in
      let r = record_of t g.Ssmfp.Message.gid in
      r.generated_round <- Some round;
      r.src <- pid;
      Hashtbl.replace t.gen_rounds pid
        (round :: Option.value ~default:[] (Hashtbl.find_opt t.gen_rounds pid));
      (match Hashtbl.find_opt t.pending_requests pid with
      | Some raised ->
          t.delay_samples <- float_of_int (round - raised) :: t.delay_samples;
          Hashtbl.remove t.pending_requests pid
      | None -> ())
  | Ssmfp.Protocol.Delivered m ->
      note_delivery t ~round;
      if Ssmfp.Message.is_valid m then begin
        let r = record_of t m.Ssmfp.Message.ghost.Ssmfp.Message.gid in
        r.deliveries <- round :: r.deliveries
      end
      else bump_invalid t ~round pid
  | Ssmfp.Protocol.Internal_forward _ | Ssmfp.Protocol.Copied _
  | Ssmfp.Protocol.Erased_after_forward _ | Ssmfp.Protocol.Erased_duplicate _
  | Ssmfp.Protocol.Routing_update _ ->
      ()

let fold_ghosts t f acc =
  Hashtbl.fold (fun gid r acc -> f gid r acc) t.ghosts acc

let valid_generated t =
  fold_ghosts t
    (fun _ r acc -> if r.generated_round <> None then acc + 1 else acc)
    0

let valid_delivered t =
  fold_ghosts t (fun _ r acc -> acc + List.length r.deliveries) 0

let duplicated_ghosts t =
  fold_ghosts t
    (fun gid r acc ->
      let c = List.length r.deliveries in
      if c > 1 then (gid, c) :: acc else acc)
    []

let lost_ghosts t =
  fold_ghosts t
    (fun gid r acc ->
      if r.generated_round <> None && r.deliveries = [] then gid :: acc
      else acc)
    []

let duplicate_delivered_total t =
  fold_ghosts t
    (fun _ r acc ->
      let c = List.length r.deliveries in
      if c > 1 then acc + (c - 1) else acc)
    0

let invalid_deliveries t =
  Hashtbl.fold (fun dest c acc -> (dest, c) :: acc) t.invalid_delivered []
  |> List.sort compare

let invalid_delivered_total t =
  Hashtbl.fold (fun _ c acc -> acc + c) t.invalid_delivered 0

let invalid_delivery_log t = List.rev t.invalid_log

let ghost_views t =
  fold_ghosts t
    (fun gid r acc -> (gid, r.generated_round, List.rev r.deliveries) :: acc)
    []
  |> List.sort compare

let latencies t =
  fold_ghosts t
    (fun _ r acc ->
      match (r.generated_round, List.rev r.deliveries) with
      | Some g, first :: _ -> float_of_int (first - g) :: acc
      | _ -> acc)
    []

let delays t = t.delay_samples

let generation_rounds t =
  Hashtbl.fold (fun pid rounds acc -> (pid, List.rev rounds) :: acc) t.gen_rounds []
  |> List.sort compare

let deliveries_by_round t = List.rev t.delivery_steps

type verdict = { ok : bool; violations : string list }

let check_sp t ~expected_valid ~n ~at_quiescence =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let generated = valid_generated t in
  if generated <> expected_valid then
    add "generated %d of %d workload messages" generated expected_valid;
  (match duplicated_ghosts t with
  | [] -> ()
  | dups ->
      add "%d valid message(s) delivered more than once (e.g. ghost %d)"
        (List.length dups)
        (fst (List.hd dups)));
  if at_quiescence then begin
    match lost_ghosts t with
    | [] -> ()
    | lost -> add "%d valid message(s) lost (e.g. ghost %d)"
                (List.length lost) (List.hd lost)
  end;
  List.iter
    (fun (dest, count) ->
      if count > 2 * n then
        add "destination %d received %d invalid messages (> 2n = %d)" dest
          count (2 * n))
    (invalid_deliveries t);
  { ok = !violations = []; violations = List.rev !violations }
