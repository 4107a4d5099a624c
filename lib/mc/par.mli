(** The model checker's one explorer: compact keys, a sharded concurrent
    visited store, a work-stealing frontier and a deterministic reduce
    step, parameterised over a protocol description ({!model}).

    {1 Plugging a protocol in}

    A {!model} describes what is searched; the traversal below is shared.
    The searched state is a configuration (one ['s] per processor) paired
    with a {e monitor} ['m] — an automaton folded over the protocol's
    events — so temporal properties reduce to predicates over the pair.
    Two instances exist:

    - {b SSMFP} ({!Explore.check_safety}, built by {!Explore.model}): the
      monitor is the valid-delivery count clamped at 2; {!Codec.encode}
      keys the pair; the external transitions raise request flags; the
      ample hook is the partial-order reduction; a fresh pair with two
      deliveries is pruned (duplicate delivery), a pair whose valid
      message vanished undelivered is a witness (loss), and a terminal
      configuration still holding traffic is a deadlock;
    - {b PIF} (the exhaustive safety check in [test_pif.ml]): canonical
      phase strings plus a coverage monitor, written with
      {!Codec.add_string}; the external transition raises the root's
      request; "the root completed before full coverage" is pruned.

    {1 The traversal}

    Transitions are every enabled (processor, action) choice of the
    central daemon — or, under [simultaneity], every composite
    distributed-daemon selection (at most one enabled action per
    processor, applied against the same pre-step configuration) — plus
    the model's external transitions.

    - the visited set is {!Store.Sharded}: per-stripe mutexes over the
      fingerprint + bytes-key layout, stripe count independent of the
      worker count, used at {e every} worker count (including 1) so the
      reported store stats are a pure function of the reachable key set;
    - each worker owns a {!Deque} and expands
      continuously — pop, generate successors, insert-or-drop against
      the shared store, push the fresh ones — batch-stealing from the
      fullest victim when its own deque runs dry; termination is an
      atomic count of enqueued-but-unexpanded entries;
    - guards are re-evaluated only over the dirty set (written pids plus
      neighbours) when the protocol declares {!Sim.Engine.Neighborhood}
      locality; {!Sim.Engine.Global} protocols get a full sweep;
    - the frontier runs to {e exhaustion}: a fresh pair the model prunes
      is inserted and recorded as a violation but not expanded, and
      nothing else stops the search early, so [explored], [transitions]
      and the visited stats are pure functions of the initial
      configurations;
    - determinism is recovered in a {e reduce} step after the join:
      counters are sums, and the violation/witness/deadlock reports are
      the renderings of the canonical {e minima} ({!Codec.key_order}:
      least fingerprint, then key bytes) over all candidates — so reports
      are byte-identical for any worker count and any interleaving. (The
      witness for a verdict is therefore a canonical representative, not
      the first one some traversal happened to meet.)

    The visited budget is enforced by the store ({!Store.Sharded.Full}):
    the key that would become entry [max_configs + 1] raises — converted
    here to [Failure] with the message ["Mc.check_safety: configuration
    budget exhausted (max_configs = <n>)"] — without being stored or
    enqueued, under any concurrency. *)

type ('s, 'a, 'e, 'm) model = {
  protocol : ('s, 'a, 'e) Sim.Engine.protocol;
  init_monitor : 'm;  (** the monitor paired with every initial configuration *)
  monitor : 'm -> pid:int -> 'e -> 'm;
      (** absorbs one event emitted by processor [pid] *)
  encode : Codec.t -> 's array -> 'm -> unit;
      (** writes the canonical key of a (configuration, monitor) pair
          into a freshly reset encoder; equal keys must mean equivalent
          pairs *)
  externals : 's array -> ('s array * int list) list;
      (** higher-layer successors, each with the pids it wrote (the
          dirty-set seed); they keep the monitor *)
  ample : ('s array -> 'a list array -> int option) option;
      (** partial-order reduction: given a configuration and its enabled
          table, a processor whose actions alone may be expanded (no
          external transitions then). Must be a pure function of the
          configuration; ignored under [simultaneity] *)
  prune : 's array -> 'm -> bool;
      (** a violation: the pair is recorded and not expanded *)
  witness : 's array -> 'm -> bool;
      (** a reportable (unpruned) pair, e.g. a lost message *)
  deadlock : 's array -> bool;
      (** whether a terminal configuration counts as a deadlock *)
  render : 's array -> 'm -> string;  (** the rendering of a reported pair *)
}

type report = {
  initial_count : int;
  explored : int;
      (** pairs expanded — without an ample hook, the number of distinct
          unpruned keys visited *)
  transitions : int;
  violation : string option;  (** the canonical-minimum pruned pair *)
  witness : string option;  (** the canonical-minimum witness pair *)
  deadlock : string option;  (** the canonical-minimum deadlocked pair *)
  visited : Store.stats;
      (** resident footprint of the sharded visited set at the end of
          the search *)
}

val effective_workers : int -> int
(** [effective_workers w] is [w] clamped to at least 1, except that
    [0] means autodetect: [Domain.recommended_domain_count () - 1]
    (leaving one core for the OS and the reduce), at least 1. The CLI
    uses it to size profiler track counts before calling
    {!check_safety}. *)

val check_safety :
  ?simultaneity:bool ->
  ?max_configs:int ->
  ?workers:int ->
  ?prof:Obs.Prof.t ->
  graph:Topology.Graph.t ->
  ('s, 'a, 'e, 'm) model ->
  's array list ->
  report
(** Exhaustive search over the union of reachable spaces from the given
    initial configurations (each paired with [init_monitor]).
    [simultaneity] (default false) adds composite steps. [workers]
    (default 1; [0] = autodetect via {!effective_workers}) is the number
    of worker loops and deques: loop 0 runs on the calling domain, the
    others on [workers - 1] domains spawned for the call and joined
    before it returns. Every report field is independent of [workers].
    [max_configs] defaults to 2_000_000; exceeding it raises [Failure]
    as described above.

    [?prof] (needs ≥ the effective worker count in tracks) attributes
    the search's wall-clock without altering it — reports stay
    byte-identical across worker counts, profiling on or off. Track 0
    (calling domain) records ["mc.roots"], its own worker loop, and the
    final ["mc.reduce"]; worker loop [i] records, on track [i], one
    ["mc.run"] span, a ["mc.steal"] span per successful steal
    (the span id is looked up from the worker domain — registration is
    mutex-guarded), and per-track counters ["mc.configs"],
    ["mc.transitions"], ["mc.steals"], ["mc.stolen"],
    ["mc.steal_fail"], and ["mc.idle_ns"] (time burned in failed steal
    cycles). All names are registered up front, so the span-name set is
    independent of the worker count. *)
