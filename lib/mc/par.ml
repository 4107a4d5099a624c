(* The model checker's one explorer, parameterised over a protocol
   description ([model]); Explore.check_safety (SSMFP) and the PIF safety
   check are its instances.

   The search explores every enabled (processor, action) choice of the
   central daemon (or every composite distributed-daemon selection under
   [simultaneity]), plus the model's external transitions, but the
   traversal is continuous and barrier-free, with determinism recovered
   by a reduce step instead of by freezing traversal order:

   - the visited set is a sharded concurrent store (Store.Sharded):
     per-stripe mutexes over the fingerprint + bytes-key layout, stripe
     count independent of the worker count, so insert-or-member from any
     domain is contention-free except on fingerprint-colliding stripes
     and the aggregate stats are a pure function of the key set;

   - each worker owns a Deque and expands
     continuously — pop, generate successors, insert-or-drop against the
     shared store, push the fresh ones — stealing a batch from the
     fullest victim when its own deque runs dry. Termination is an
     atomic count of enqueued-but-unexpanded entries, not a level
     barrier;

   - the search runs the frontier to exhaustion (fresh configurations
     the model prunes are recorded as violations but not expanded), so
     the set of expanded configurations — hence [explored],
     [transitions], and the visited stats — is a pure function of the
     initial configurations, whatever the interleaving;

   - witnesses are elected, not discovered: every worker keeps its
     locally best violation/witness/deadlock candidate under the
     canonical order (min fingerprint, then key bytes — Codec.key_order),
     and the reduce step after the join takes the global minimum and
     renders it. Reports are therefore byte-identical for any worker
     count even though traversal order is nondeterministic. *)

type ('s, 'a, 'e, 'm) model = {
  protocol : ('s, 'a, 'e) Sim.Engine.protocol;
  init_monitor : 'm;
  monitor : 'm -> pid:int -> 'e -> 'm;
  encode : Codec.t -> 's array -> 'm -> unit;
  externals : 's array -> ('s array * int list) list;
  ample : ('s array -> 'a list array -> int option) option;
  prune : 's array -> 'm -> bool;
  witness : 's array -> 'm -> bool;
  deadlock : 's array -> bool;
  render : 's array -> 'm -> string;
}

type report = {
  initial_count : int;
  explored : int;
  transitions : int;
  violation : string option;
  witness : string option;
  deadlock : string option;
  visited : Store.stats;
}

(* How a configuration was derived: roots get a full enabled sweep at
   processing time; derived configurations carry their parent's enabled
   table plus the pids the transition wrote, so only the dirty set is
   re-evaluated when the protocol declares Neighborhood locality. *)
type 'a origin = Root | Derived of 'a list array * int list

type ('s, 'a, 'm) entry = {
  e_states : 's array;
  e_monitor : 'm;
  e_origin : 'a origin;
}

(* All non-empty selections of at most one enabled action per processor:
   the distributed daemon's composite steps. *)
let selections per_proc =
  let rec build = function
    | [] -> [ [] ]
    | (p, actions) :: rest ->
        let tails = build rest in
        tails
        @ List.concat_map
            (fun a -> List.map (fun tl -> (p, a) :: tl) tails)
            actions
  in
  List.filter (fun sel -> sel <> []) (build per_proc)

(* ------------------------------------------------------------------ *)
(* Successor generation (pure in the shared state: reads only [entry]
   and the model, writes only through [emit])                           *)

type ('s, 'a, 'e, 'm) ctx = {
  graph : Topology.Graph.t;
  n : int;
  model : ('s, 'a, 'e, 'm) model;
  simultaneity : bool;
  (* dirty-set deduplication scratch, all-false between configurations —
     one per domain, reused across every configuration it processes *)
  seen : bool array;
}

let enabled_table ctx net origin =
  let proto = ctx.model.protocol in
  match origin with
  | Derived (parent_tbl, written)
    when proto.Sim.Engine.locality = Sim.Engine.Neighborhood ->
      let tbl = Array.copy parent_tbl in
      let touched = ref [] in
      let touch q =
        if not ctx.seen.(q) then begin
          ctx.seen.(q) <- true;
          touched := q :: !touched;
          tbl.(q) <- proto.Sim.Engine.enabled net q
        end
      in
      List.iter
        (fun p ->
          touch p;
          List.iter touch (Topology.Graph.neighbors ctx.graph p))
        written;
      List.iter (fun q -> ctx.seen.(q) <- false) !touched;
      tbl
  | Derived _ | Root ->
      Array.init ctx.n (fun p -> proto.Sim.Engine.enabled net p)

(* Generate every successor of [entry] in the canonical order (external
   transitions in the model's order, then protocol transitions in
   pid/action order), calling [emit states' monitor' origin'] for each;
   returns the number of successors (0 = the configuration is terminal).
   When the model's ample hook names a processor (never under
   [simultaneity]), only that processor's actions are expanded — a
   deterministic subset of the full set. *)
let successors ctx entry ~emit =
  let model = ctx.model in
  let states = entry.e_states and m = entry.e_monitor in
  let net = Sim.Engine.synthetic ~graph:ctx.graph ~states in
  let tbl = enabled_table ctx net entry.e_origin in
  let moves = ref 0 in
  let apply_selection sel =
    incr moves;
    let states' = Array.copy states in
    let m' =
      List.fold_left
        (fun m (p, a) ->
          let st', events = model.protocol.Sim.Engine.apply net p a in
          states'.(p) <- st';
          List.fold_left (fun m ev -> model.monitor m ~pid:p ev) m events)
        m sel
    in
    emit states' m' (Derived (tbl, List.map fst sel))
  in
  let ample =
    match model.ample with
    | Some ample when not ctx.simultaneity -> ample states tbl
    | _ -> None
  in
  match ample with
  | Some p ->
      List.iter (fun a -> apply_selection [ (p, a) ]) tbl.(p);
      !moves
  | None ->
      (* external transitions keep the monitor *)
      List.iter
        (fun (states', written) ->
          incr moves;
          emit states' m (Derived (tbl, written)))
        (model.externals states);
      let per_proc =
        List.concat
          (List.init ctx.n (fun p ->
               match tbl.(p) with [] -> [] | actions -> [ (p, actions) ]))
      in
      if ctx.simultaneity then List.iter apply_selection (selections per_proc)
      else
        List.iter
          (fun (p, actions) ->
            List.iter (fun a -> apply_selection [ (p, a) ]) actions)
          per_proc;
      !moves

(* ------------------------------------------------------------------ *)
(* The traversal                                                        *)

let effective_workers workers =
  if workers = 0 then max 1 (Domain.recommended_domain_count () - 1)
  else max 1 workers

(* A candidate: the canonical key of the configuration it was found in,
   plus the configuration itself (rendered only if it wins the
   election, which takes the canonical minimum). *)
type ('s, 'm) cand = { c_hash : int; c_key : string; c_states : 's array; c_mon : 'm }

let better ~hash ~key = function
  | None -> true
  | Some c ->
      Codec.key_order ~hash_a:hash ~key_a:key ~hash_b:c.c_hash ~key_b:c.c_key < 0

(* Offer the configuration currently encoded in [codec] to [slots.(i)]. *)
let elect slots i codec states m =
  let hash = Codec.hash codec and key = Codec.key codec in
  if better ~hash ~key slots.(i) then
    slots.(i) <- Some { c_hash = hash; c_key = key; c_states = states; c_mon = m }

let winner model slots =
  Array.fold_left
    (fun acc c ->
      match c with
      | Some { c_hash; c_key; _ } when better ~hash:c_hash ~key:c_key acc -> c
      | _ -> acc)
    None slots
  |> Option.map (fun c -> model.render c.c_states c.c_mon)

let check_safety ?(simultaneity = false) ?(max_configs = 2_000_000)
    ?(workers = 1) ?(prof = Obs.Prof.disabled) ~graph model initials =
  let nworkers = effective_workers workers in
  let store = Store.Sharded.create () in
  (* Profiling vocabulary, registered up front so the span-name set is
     independent of the worker count. Track 0 is the calling domain
     (roots, worker loop 0, the reduce); track [i] is the helper domain
     running worker loop [i]. Each worker loop records one "mc.run"
     span, a "mc.steal" span per successful steal (the span id is
     re-looked-up from the worker domain — the registration path is
     mutex-guarded), and per-track counters. Recording never branches
     the search. *)
  let prof_on = Obs.Prof.enabled prof in
  let tr0 = Obs.Prof.track prof 0 in
  let sp_roots = Obs.Prof.span prof "mc.roots" in
  let sp_run = Obs.Prof.span prof "mc.run" in
  let _ = Obs.Prof.span prof "mc.steal" in
  let sp_reduce = Obs.Prof.span prof "mc.reduce" in
  let c_configs = Obs.Prof.counter prof "mc.configs" in
  let c_trans = Obs.Prof.counter prof "mc.transitions" in
  let c_steals = Obs.Prof.counter prof "mc.steals" in
  let c_stolen = Obs.Prof.counter prof "mc.stolen" in
  let c_steal_fail = Obs.Prof.counter prof "mc.steal_fail" in
  let c_idle_ns = Obs.Prof.counter prof "mc.idle_ns" in
  let budget_fail () =
    failwith
      (Printf.sprintf
         "Mc.check_safety: configuration budget exhausted (max_configs = %d)"
         max_configs)
  in
  (* Shared traversal state. [pending] counts enqueued-but-unexpanded
     entries: incremented before a push, decremented after the popped
     entry's expansion completes, so it reaches 0 exactly when no entry
     exists anywhere and none is being generated. *)
  let deques = Array.init nworkers (fun _ -> Deque.create ()) in
  let pending = Atomic.make 0 in
  let abort = Atomic.make false in
  let failure : exn option Atomic.t = Atomic.make None in
  (* The first failure is kept for the caller; every loop stops at its
     next pop. *)
  let fail e =
    ignore (Atomic.compare_and_set failure None (Some e));
    Atomic.set abort true
  in
  let g_explored = Atomic.make 0 and g_transitions = Atomic.make 0 in
  (* Candidate slots: one per worker loop, plus slot [nworkers] for the
     roots. Each slot is written by one domain only. *)
  let violations = Array.make (nworkers + 1) None in
  let witnesses = Array.make (nworkers + 1) None in
  let deadlocks = Array.make (nworkers + 1) None in
  let encode codec states m =
    Codec.reset codec;
    model.encode codec states m
  in
  (* Insert-or-drop a configuration; a fresh one is either pruned (a
     violation candidate) or queued on [own] (and offered as a witness
     candidate). *)
  let admit codec own slot states m origin =
    encode codec states m;
    if
      Store.Sharded.add_if_absent ~budget:max_configs store
        ~hash:(Codec.hash codec) (Codec.raw codec) ~len:(Codec.length codec)
    then
      if model.prune states m then elect violations slot codec states m
      else begin
        if model.witness states m then elect witnesses slot codec states m;
        Atomic.incr pending;
        Deque.push own { e_states = states; e_monitor = m; e_origin = origin }
      end
  in
  (* Roots: dealt round-robin over the deques, no transition counted. *)
  let roots_t0 = Obs.Prof.now prof in
  let root_codec = Codec.create () in
  (try
     List.iteri
       (fun i states ->
         admit root_codec deques.(i mod nworkers) nworkers states
           model.init_monitor Root)
       initials
   with Store.Sharded.Full -> budget_fail ());
  if prof_on then Obs.Prof.record tr0 sp_roots ~start:roots_t0;
  (* One worker loop per deque, each on its own domain. The loop index
     [i] names its deque, its candidate slots and its profiler track. A
     loop exits when the frontier is globally drained or another loop
     aborted. *)
  let run_task i =
    let trw = Obs.Prof.track prof i in
    (* worker-domain registration: an idempotent, mutex-guarded lookup *)
    let sp_steal = Obs.Prof.span prof "mc.steal" in
    let t_start = Obs.Prof.now prof in
    let ctx =
      { graph; n = Topology.Graph.n graph; model; simultaneity;
        seen = Array.make (Topology.Graph.n graph) false }
    in
    let codec = Codec.create () in
    let own = deques.(i) in
    let explored = ref 0 and transitions = ref 0 in
    let steals = ref 0 and stolen = ref 0 and steal_fail = ref 0 in
    let idle_ns = ref 0 in
    let emit states m origin =
      incr transitions;
      admit codec own i states m origin
    in
    let expand entry =
      incr explored;
      let moves = successors ctx entry ~emit in
      if moves = 0 && model.deadlock entry.e_states then begin
        encode codec entry.e_states entry.e_monitor;
        elect deadlocks i codec entry.e_states entry.e_monitor
      end
    in
    let rec loop () =
      if not (Atomic.get abort) then
        match Deque.pop own with
        | Some entry ->
            expand entry;
            ignore (Atomic.fetch_and_add pending (-1));
            loop ()
        | None ->
            if Atomic.get pending > 0 then begin
              (* steal from the fullest victim; relax when every deque
                 looks empty (in-flight expansions may still push) *)
              let victim = ref (-1) and best = ref 0 in
              for j = 0 to nworkers - 1 do
                if j <> i then begin
                  let sz = Deque.size deques.(j) in
                  if sz > !best then begin
                    victim := j;
                    best := sz
                  end
                end
              done;
              let t0 = if prof_on then Obs.Prof.now prof else 0 in
              let got =
                if !victim >= 0 then
                  Deque.steal ~victim:deques.(!victim) ~into:own
                else 0
              in
              if got > 0 then begin
                incr steals;
                stolen := !stolen + got;
                if prof_on then Obs.Prof.record trw sp_steal ~start:t0
              end
              else begin
                incr steal_fail;
                if prof_on then
                  idle_ns := !idle_ns + (Obs.Prof.now prof - t0);
                Domain.cpu_relax ()
              end;
              loop ()
            end
    in
    (try loop () with e -> fail e);
    ignore (Atomic.fetch_and_add g_explored !explored);
    ignore (Atomic.fetch_and_add g_transitions !transitions);
    if prof_on then begin
      Obs.Prof.record trw sp_run ~start:t_start;
      Obs.Prof.add trw c_configs !explored;
      Obs.Prof.add trw c_trans !transitions;
      Obs.Prof.add trw c_steals !steals;
      Obs.Prof.add trw c_stolen !stolen;
      Obs.Prof.add trw c_steal_fail !steal_fail;
      Obs.Prof.add trw c_idle_ns !idle_ns
    end
  in
  (* Loop 0 runs on the calling domain, loops 1.. on helper domains
     spawned for this call. Helpers wait on [gate] until all are
     spawned: domain creation waits out stop-the-world sections, and a
     helper blocked on a mutex neither triggers them (no allocation) nor
     delays them, while a searching one does both (with four domains on
     a 2-core VM, spawning three searching helpers took ~20 ms, gated
     ~1 ms). Every helper that started is joined before a failure
     (including a domain that could not be spawned) is re-raised, so
     none outlives the search. *)
  let gate = Mutex.create () in
  Mutex.lock gate;
  let helpers =
    List.filter_map
      (fun i ->
        let helper () =
          Mutex.lock gate;
          Mutex.unlock gate;
          run_task i
        in
        match Domain.spawn helper with
        | d -> Some d
        | exception e ->
            fail e;
            None)
      (List.init (nworkers - 1) succ)
  in
  Mutex.unlock gate;
  (try run_task 0 with e -> fail e);
  List.iter (fun d -> try Domain.join d with e -> fail e) helpers;
  (match Atomic.get failure with
  | Some Store.Sharded.Full -> budget_fail ()
  | Some e -> raise e
  | None -> ());
  (* Reduce: counters are sums, witnesses are the canonical minima over
     the per-slot candidates — all independent of traversal order and
     worker count. *)
  let reduce_t0 = Obs.Prof.now prof in
  let report =
    {
      initial_count = List.length initials;
      explored = Atomic.get g_explored;
      transitions = Atomic.get g_transitions;
      violation = winner model violations;
      witness = winner model witnesses;
      deadlock = winner model deadlocks;
      visited = Store.Sharded.stats store;
    }
  in
  if prof_on then Obs.Prof.record tr0 sp_reduce ~start:reduce_t0;
  report
