type 's net = { graph : Topology.Graph.t; states : 's array }

type ('s, 'a, 'e) protocol = {
  enabled : 's net -> int -> 'a list;
  apply : 's net -> int -> 'a -> 's * 'e list;
  rules : string array;
  rule_of : 'a -> int;
}

type 'a candidate = { cand_pid : int; cand_actions : 'a list }

type 'a daemon = step:int -> 'a candidate list -> (int * 'a) list

exception Invalid_selection of string

type stats = {
  steps : int;
  rounds : int;
  moves : int;
  moves_by_rule : (string * int) list;
}

type probe = {
  on_move : pid:int -> rule:string -> unit;
  on_step : step:int -> frontier:int -> moves:int -> unit;
  on_round : round:int -> moves:int -> unit;
}

type mode = Full_sweep | Incremental

type ('s, 'a, 'e) t = {
  protocol : ('s, 'a, 'e) protocol;
  network : 's net;
  mode : mode;
  mutable steps : int;
  mutable rounds : int;
  mutable moves : int;
  rule_moves : int array; (* moves per rule, indexed as [protocol.rules] *)
  (* Processors enabled at the start of the current round that have neither
     executed nor been neutralized yet. The round completes when this
     becomes empty. [round_open] distinguishes a completed round from a
     frontier that was empty to begin with (terminal configurations). *)
  pending : bool array;
  mutable pending_count : int;
  mutable round_open : bool;
  (* Incremental mode: [cand_tbl.(p)] is [p]'s enabled-action list in the
     current configuration. It is kept current eagerly: every state write
     re-evaluates exactly the dirty set — the written processors plus
     their neighbors — and leaves every other entry untouched (a guard
     reads only its closed neighborhood, so nothing else can have
     changed). Unused in Full_sweep mode. *)
  cand_tbl : 'a list array;
  (* Scratch for dirty-set deduplication; all-false between refreshes. *)
  dirty_mark : bool array;
  (* Enabled candidates of the *current* configuration, assembled at most
     once between state writes (from [cand_tbl] in incremental mode, by a
     full guard sweep in full-sweep mode). Invalidated by every write. *)
  mutable cands_cache : 'a candidate list option;
  (* Selection-validation scratch, reset between steps: [sel_offered.(p)]
     holds p's offered actions while a daemon selection is being checked,
     [sel_seen.(p)] marks processors already selected. Engine-owned so a
     step validates without allocating lookup tables. *)
  sel_offered : 'a list option array;
  sel_seen : bool array;
  mutable probe : probe option;
  (* Move counter at the start of the current round, for per-round move
     counts reported through [probe.on_round]. *)
  mutable round_move_mark : int;
}

let full_sweep t =
  let n = Topology.Graph.n t.network.graph in
  let rec loop p acc =
    if p < 0 then acc
    else
      let acc =
        match t.protocol.enabled t.network p with
        | [] -> acc
        | actions -> { cand_pid = p; cand_actions = actions } :: acc
      in
      loop (p - 1) acc
  in
  loop (n - 1) []

let assemble_candidates t =
  let rec loop p acc =
    if p < 0 then acc
    else
      let acc =
        match t.cand_tbl.(p) with
        | [] -> acc
        | actions -> { cand_pid = p; cand_actions = actions } :: acc
      in
      loop (p - 1) acc
  in
  loop (Array.length t.cand_tbl - 1) []

let current_cands t =
  match t.cands_cache with
  | Some cands -> cands
  | None ->
      let cands =
        match t.mode with
        | Full_sweep -> full_sweep t
        | Incremental -> assemble_candidates t
      in
      t.cands_cache <- Some cands;
      cands

let invalidate_cands t = t.cands_cache <- None

let reset_round_frontier t cands =
  Array.fill t.pending 0 (Array.length t.pending) false;
  t.pending_count <- 0;
  List.iter
    (fun c ->
      t.pending.(c.cand_pid) <- true;
      t.pending_count <- t.pending_count + 1)
    cands

let clear_pending t p =
  if t.pending.(p) then begin
    t.pending.(p) <- false;
    t.pending_count <- t.pending_count - 1
  end

(* Round bookkeeping shared by both modes: once the frontier drains, close
   the round and open the next one over the current enabled set. *)
let maybe_complete_round t =
  if t.pending_count = 0 then begin
    if t.round_open then begin
      t.rounds <- t.rounds + 1;
      (match t.probe with
      | Some probe ->
          probe.on_round ~round:t.rounds ~moves:(t.moves - t.round_move_mark)
      | None -> ());
      t.round_move_mark <- t.moves
    end;
    let cands = current_cands t in
    reset_round_frontier t cands;
    t.round_open <- cands <> []
  end

(* Full-sweep reference path: re-evaluate every guard and neutralize any
   pending processor that is no longer enabled. *)
let refresh_full t =
  invalidate_cands t;
  let cands = current_cands t in
  let enabled_now = Array.make (Array.length t.pending) false in
  List.iter (fun c -> enabled_now.(c.cand_pid) <- true) cands;
  Array.iteri
    (fun p was_pending ->
      if was_pending && not enabled_now.(p) then clear_pending t p)
    t.pending;
  maybe_complete_round t

(* Incremental path: [written] lists the processors whose states changed.
   The locality contract says a write at [p] can only flip guards inside
   N[p], so only that dirty set is re-evaluated. Neutralization stays
   honest because the invariant "pending ⊆ enabled" is re-established for
   exactly the processors whose guards may have changed. *)
let refresh_incremental t written =
  let g = t.network.graph in
  let touched = ref [] in
  let touch q =
    if not t.dirty_mark.(q) then begin
      t.dirty_mark.(q) <- true;
      touched := q :: !touched;
      let actions = t.protocol.enabled t.network q in
      t.cand_tbl.(q) <- actions;
      if actions = [] then clear_pending t q
    end
  in
  List.iter
    (fun p ->
      touch p;
      List.iter touch (Topology.Graph.neighbors g p))
    written;
  List.iter (fun q -> t.dirty_mark.(q) <- false) !touched;
  invalidate_cands t;
  maybe_complete_round t

let refresh_after_writes t written =
  match t.mode with
  | Full_sweep -> refresh_full t
  | Incremental -> refresh_incremental t written

let synthetic ~graph ~states =
  if Array.length states <> Topology.Graph.n graph then
    invalid_arg "Engine.synthetic: states length <> graph size";
  { graph; states }

let make ?(mode = Incremental) ~graph ~protocol init =
  let n = Topology.Graph.n graph in
  let network = { graph; states = Array.init n init } in
  let t =
    {
      protocol;
      network;
      mode;
      steps = 0;
      rounds = 0;
      moves = 0;
      rule_moves = Array.make (Array.length protocol.rules) 0;
      pending = Array.make n false;
      pending_count = 0;
      round_open = false;
      cand_tbl = Array.make n [];
      dirty_mark = Array.make n false;
      cands_cache = None;
      sel_offered = Array.make n None;
      sel_seen = Array.make n false;
      probe = None;
      round_move_mark = 0;
    }
  in
  (match mode with
  | Incremental ->
      for p = 0 to n - 1 do
        t.cand_tbl.(p) <- protocol.enabled network p
      done
  | Full_sweep -> ());
  reset_round_frontier t (current_cands t);
  t.round_open <- t.pending_count > 0;
  t

let net t = t.network
let graph t = t.network.graph
let mode t = t.mode
let state t p = t.network.states.(p)

let set_state t p s =
  t.network.states.(p) <- s;
  invalidate_cands t;
  (* External writes can enable or disable guards; keep the round frontier
     honest by re-checking neutralization over the dirty set. *)
  refresh_after_writes t [ p ]

let candidates t = current_cands t

let is_terminal t = current_cands t = []

(* Validate a daemon selection against the offered candidates using the
   engine's scratch arrays — no lookup-table allocation per step. The
   scratch is restored to all-None/all-false on every exit, including a
   raised [Invalid_selection], so a caught misbehaving daemon leaves the
   engine reusable. *)
let check_selection t cands selection =
  if selection = [] then
    raise (Invalid_selection "daemon returned an empty selection");
  let n = Array.length t.sel_seen in
  List.iter (fun c -> t.sel_offered.(c.cand_pid) <- Some c.cand_actions) cands;
  let cleanup () =
    List.iter (fun c -> t.sel_offered.(c.cand_pid) <- None) cands;
    List.iter
      (fun (p, _) -> if p >= 0 && p < n then t.sel_seen.(p) <- false)
      selection
  in
  let check (p, a) =
    if p < 0 || p >= n then
      raise (Invalid_selection (Printf.sprintf "processor %d is not enabled" p));
    if t.sel_seen.(p) then
      raise (Invalid_selection (Printf.sprintf "processor %d selected twice" p));
    t.sel_seen.(p) <- true;
    match t.sel_offered.(p) with
    | None ->
        raise
          (Invalid_selection (Printf.sprintf "processor %d is not enabled" p))
    | Some actions ->
        (* Structural comparison: a daemon that reconstructs an offered
           action (rather than returning the offered value itself) is
           still selecting a legal move. *)
        if not (List.mem a actions) then
          raise
            (Invalid_selection
               (Printf.sprintf "action not offered by processor %d" p))
  in
  match List.iter check selection with
  | () -> cleanup ()
  | exception e ->
      cleanup ();
      raise e

let step t daemon =
  match current_cands t with
  | [] -> None
  | cands ->
      let selection = daemon ~step:t.steps cands in
      check_selection t cands selection;
      (* Composite atomicity: evaluate every chosen action against the
         pre-step configuration, then commit all writes at once. *)
      let updates =
        List.map
          (fun (p, a) ->
            let s', events = t.protocol.apply t.network p a in
            (p, a, s', events))
          selection
      in
      let moves_before = t.moves in
      let events =
        List.concat_map
          (fun (p, a, s', events) ->
            t.network.states.(p) <- s';
            t.moves <- t.moves + 1;
            let r = t.protocol.rule_of a in
            t.rule_moves.(r) <- t.rule_moves.(r) + 1;
            (match t.probe with
            | Some probe -> probe.on_move ~pid:p ~rule:t.protocol.rules.(r)
            | None -> ());
            clear_pending t p;
            List.map (fun e -> (p, e)) events)
          updates
      in
      t.steps <- t.steps + 1;
      refresh_after_writes t (List.map (fun (p, _, _, _) -> p) updates);
      let post = current_cands t in
      (match t.probe with
      | Some probe ->
          probe.on_step ~step:(t.steps - 1) ~frontier:(List.length post)
            ~moves:(t.moves - moves_before)
      | None -> ());
      Some events

let stats t =
  {
    steps = t.steps;
    rounds = t.rounds;
    moves = t.moves;
    moves_by_rule =
      List.sort compare
        (List.filter
           (fun (_, k) -> k > 0)
           (List.combine (Array.to_list t.protocol.rules)
              (Array.to_list t.rule_moves)));
  }

let rounds t = t.rounds

let set_probe t probe = t.probe <- probe

let run ?(max_steps = 1_000_000) ?stop ?before_step ?on_events ?probe t daemon =
  let saved_probe = t.probe in
  (match probe with Some _ -> t.probe <- probe | None -> ());
  let stop_now () = match stop with Some f -> f t | None -> false in
  let rec loop remaining =
    if remaining = 0 then `Max_steps
    else if stop_now () then `Stopped
    else begin
      Option.iter (fun f -> f t) before_step;
      match step t daemon with
      | None -> `Terminal
      | Some events ->
          Option.iter (fun f -> f ~step:(t.steps - 1) events) on_events;
          loop (remaining - 1)
    end
  in
  Fun.protect ~finally:(fun () -> t.probe <- saved_probe) (fun () ->
      loop max_steps)
