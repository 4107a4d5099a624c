(* Tests for the model-checker core: the compact binary codec, the
   sharded visited store, the work-stealing deque, and the parallel
   explorer. The codec and the parallel explorer are only trustworthy if
   they are *observationally identical* to a search keyed by the readable
   Codec.string_key and to the single-worker search, so most of these
   tests are differential. *)

let two = Mc.Explore.two_chain
let three = Mc.Explore.three_chain

(* A mixed bag of configurations: sampled initials (correct routing) and
   corrupted-routing initials, so the codec sees routing-table variety
   too. *)
let sample_configs count =
  Mc.Explore.sample_initials (Prng.Splitmix.of_int 101) ~count two
  @ Mc.Explore.sample_initials_corrupted (Prng.Splitmix.of_int 102) ~count two

(* --------------- codec --------------- *)

(* Codec keys and string keys must induce the same partition: two
   (configuration, delivered) pairs collide under the codec iff they
   collide under the string rendering. *)
let test_codec_partition () =
  let enc = Mc.Codec.create () in
  let keyed =
    List.concat_map
      (fun states ->
        List.map
          (fun d ->
            Mc.Codec.encode enc states ~delivered:d;
            (Mc.Codec.key enc, Mc.Codec.string_key states ~delivered:d))
          [ 0; 1; 2 ])
      (sample_configs 80)
  in
  List.iter
    (fun (ck, sk) ->
      List.iter
        (fun (ck', sk') ->
          Alcotest.(check bool)
            "codec and string keys agree on equality" (String.equal sk sk')
            (String.equal ck ck'))
        keyed)
    keyed

let test_codec_deterministic () =
  let enc = Mc.Codec.create () and enc' = Mc.Codec.create () in
  List.iter
    (fun states ->
      Mc.Codec.encode enc states ~delivered:1;
      Mc.Codec.encode enc' states ~delivered:1;
      let k = Mc.Codec.key enc in
      Alcotest.(check string) "two encoders, same key" k (Mc.Codec.key enc');
      Alcotest.(check int) "two encoders, same hash" (Mc.Codec.hash enc)
        (Mc.Codec.hash enc');
      (* the incremental hash matches the one-shot string hash *)
      Alcotest.(check int) "incremental hash = hash of key bytes"
        (Mc.Codec.hash_string k) (Mc.Codec.hash enc);
      (* re-encoding reuses the scratch and reproduces the key *)
      Mc.Codec.encode enc states ~delivered:1;
      Alcotest.(check string) "re-encode reproduces the key" k
        (Mc.Codec.key enc))
    (sample_configs 20)

let test_codec_sensitivity () =
  let g = two.Mc.Explore.graph in
  let states = Array.init 2 (fun p -> Ssmfp.State.clean g p) in
  let enc = Mc.Codec.create () in
  let key_of states d =
    Mc.Codec.encode enc states ~delivered:d;
    Mc.Codec.key enc
  in
  let base = key_of states 0 in
  (* every canonical field flips the key... *)
  let flipped = Array.map Fun.id states in
  flipped.(0) <- { flipped.(0) with Ssmfp.State.request = true };
  Alcotest.(check bool) "request flag changes the key" false
    (String.equal base (key_of flipped 0));
  let planted = Array.map Fun.id states in
  let slot = Ssmfp.State.slot planted.(0) 1 in
  planted.(0) <-
    Ssmfp.State.with_slot planted.(0) 1
      {
        slot with
        Ssmfp.State.buf_r =
          Some (Ssmfp.Message.fresh_invalid ~at:0 ~last:1 ~color:2 "x");
      };
  Alcotest.(check bool) "buffer occupancy changes the key" false
    (String.equal base (key_of planted 0));
  Alcotest.(check bool) "delivery counter changes the key" false
    (String.equal base (key_of states 1));
  (* ...but the counter is clamped at 2 (past 2 nothing new can happen) *)
  Alcotest.(check string) "delivered clamped at 2" (key_of states 2)
    (key_of states 5);
  (* and the rr cursor is canonicalized away *)
  let rotated = Array.map Fun.id states in
  rotated.(0) <- Ssmfp.State.with_rr rotated.(0) 1;
  Alcotest.(check string) "rr cursor is not part of the key" base
    (key_of rotated 0)

(* --------------- store --------------- *)

(* String keys through the bytes front-end, hashed like codec keys. *)
let add_key ?hash s k =
  let hash = Option.value hash ~default:(Mc.Codec.hash_string k) in
  Mc.Store.Sharded.add_if_absent s ~hash (Bytes.of_string k)
    ~len:(String.length k)

let mem_key ?hash s k =
  let hash = Option.value hash ~default:(Mc.Codec.hash_string k) in
  Mc.Store.Sharded.mem s ~hash (Bytes.of_string k) ~len:(String.length k)

let test_store_grow () =
  let s = Mc.Store.Sharded.create ~capacity:16 () in
  let capacity0 = (Mc.Store.Sharded.stats s).Mc.Store.capacity in
  for i = 0 to 4_999 do
    Alcotest.(check bool) "fresh key inserted" true
      (add_key s ("key-" ^ string_of_int i))
  done;
  Alcotest.(check int) "cardinal" 5_000 (Mc.Store.Sharded.cardinal s);
  for i = 0 to 4_999 do
    let k = "key-" ^ string_of_int i in
    Alcotest.(check bool) "still present after growth" true (mem_key s k);
    Alcotest.(check bool) "duplicate rejected" false (add_key s k)
  done;
  Alcotest.(check bool) "absent key" false (mem_key s "key-5000");
  let st = Mc.Store.Sharded.stats s in
  Alcotest.(check int) "stats entries" 5_000 st.Mc.Store.entries;
  Alcotest.(check bool) "load below 3/4" true (st.Mc.Store.load <= 0.75);
  Alcotest.(check bool) "stripes grew" true
    (Mc.Store.Sharded.resizes s > 0 && st.Mc.Store.capacity > capacity0);
  let expected_bytes =
    List.fold_left
      (fun acc i -> acc + String.length ("key-" ^ string_of_int i))
      0
      (List.init 5_000 Fun.id)
  in
  Alcotest.(check int) "key bytes accounted" expected_bytes
    st.Mc.Store.key_bytes

let test_store_collisions () =
  (* distinct keys forced onto one fingerprint must coexist (the store
     compares bytes after the fingerprint matches) *)
  let s = Mc.Store.Sharded.create ~capacity:16 () in
  let hash = 42 in
  Alcotest.(check bool) "first" true (add_key ~hash s "a");
  Alcotest.(check bool) "second, same hash" true (add_key ~hash s "b");
  Alcotest.(check bool) "third, same hash" true (add_key ~hash s "c");
  Alcotest.(check bool) "a member" true (mem_key ~hash s "a");
  Alcotest.(check bool) "b member" true (mem_key ~hash s "b");
  Alcotest.(check bool) "d absent" false (mem_key ~hash s "d");
  Alcotest.(check bool) "a again rejected" false (add_key ~hash s "a");
  Alcotest.(check int) "three entries" 3 (Mc.Store.Sharded.cardinal s);
  (* hash 0 is the empty sentinel; the store must normalize it away *)
  Alcotest.(check bool) "hash 0 insert" true (add_key ~hash:0 s "zero");
  Alcotest.(check bool) "hash 0 member" true (mem_key ~hash:0 s "zero");
  Alcotest.(check bool) "hash 0 duplicate rejected" false
    (add_key ~hash:0 s "zero");
  Alcotest.(check int) "four entries" 4 (Mc.Store.Sharded.cardinal s)

let test_store_bytes_frontend () =
  let s = Mc.Store.Sharded.create () in
  let enc = Mc.Codec.create () in
  let keys = ref [] in
  List.iter
    (fun states ->
      Mc.Codec.encode enc states ~delivered:0;
      let hash = Mc.Codec.hash enc
      and raw = Mc.Codec.raw enc
      and len = Mc.Codec.length enc in
      let fresh = not (Mc.Store.Sharded.mem s ~hash raw ~len) in
      Alcotest.(check bool) "add agrees with mem" fresh
        (Mc.Store.Sharded.add_if_absent s ~hash raw ~len);
      Alcotest.(check bool) "present after add" true
        (Mc.Store.Sharded.mem s ~hash raw ~len);
      keys := Mc.Codec.key enc :: !keys)
    (sample_configs 30);
  (* the stored entries are owned copies of exactly the scratch bytes *)
  let stored = ref [] in
  Mc.Store.Sharded.iter s (fun ~hash:_ k -> stored := k :: !stored);
  Alcotest.(check (list string)) "stored keys = encoded keys"
    (List.sort_uniq compare !keys)
    (List.sort compare !stored)

(* --------------- differential exploration --------------- *)

let check_reports_equal ?(stats = false) label (a : Mc.Explore.safety_report)
    (b : Mc.Explore.safety_report) =
  Alcotest.(check int) (label ^ ": initial_count") a.Mc.Explore.initial_count
    b.Mc.Explore.initial_count;
  Alcotest.(check int) (label ^ ": explored") a.Mc.Explore.explored
    b.Mc.Explore.explored;
  Alcotest.(check int) (label ^ ": transitions") a.Mc.Explore.transitions
    b.Mc.Explore.transitions;
  Alcotest.(check bool) (label ^ ": duplicate") a.Mc.Explore.duplicate_delivery
    b.Mc.Explore.duplicate_delivery;
  Alcotest.(check (option string)) (label ^ ": lost") a.Mc.Explore.lost_valid
    b.Mc.Explore.lost_valid;
  Alcotest.(check (option string)) (label ^ ": deadlock") a.Mc.Explore.deadlock
    b.Mc.Explore.deadlock;
  Alcotest.(check int) (label ^ ": visited entries")
    a.Mc.Explore.visited.Mc.Store.entries b.Mc.Explore.visited.Mc.Store.entries;
  if stats then begin
    Alcotest.(check int) (label ^ ": visited capacity")
      a.Mc.Explore.visited.Mc.Store.capacity
      b.Mc.Explore.visited.Mc.Store.capacity;
    Alcotest.(check int) (label ^ ": visited key bytes")
      a.Mc.Explore.visited.Mc.Store.key_bytes
      b.Mc.Explore.visited.Mc.Store.key_bytes
  end

(* SSMFP searched under string keys: the same model with an encoder that
   writes the bytes of Codec.string_key, the codec's reference
   rendering. *)
let string_keyed ?(simultaneity = false) ?max_configs sc inits =
  let graph = sc.Mc.Explore.graph in
  let model =
    {
      (Mc.Explore.model graph) with
      Mc.Par.encode =
        (fun codec states delivered ->
          String.iter
            (fun c -> Mc.Codec.add_byte codec (Char.code c))
            (Mc.Codec.string_key states ~delivered));
    }
  in
  let r = Mc.Par.check_safety ~simultaneity ?max_configs ~graph model inits in
  {
    Mc.Explore.initial_count = r.Mc.Par.initial_count;
    explored = r.Mc.Par.explored;
    transitions = r.Mc.Par.transitions;
    duplicate_delivery = r.Mc.Par.violation <> None;
    lost_valid = r.Mc.Par.witness;
    deadlock = r.Mc.Par.deadlock;
    visited = r.Mc.Par.visited;
  }

(* String keys and codec keys must visit the *same* state space: same
   visited count, same transition count, same verdicts. *)
let test_differential_keys () =
  let cases =
    [
      ( "2chain",
        two,
        Mc.Explore.sample_initials (Prng.Splitmix.of_int 5) ~count:300 two,
        false );
      ( "3chain",
        three,
        Mc.Explore.sample_initials (Prng.Splitmix.of_int 5) ~count:100 three,
        false );
      ( "2chain-simultaneity",
        two,
        Mc.Explore.sample_initials (Prng.Splitmix.of_int 6) ~count:100 two,
        true );
    ]
  in
  List.iter
    (fun (label, sc, inits, simultaneity) ->
      let s = string_keyed ~simultaneity sc inits in
      let c = Mc.Explore.check_safety ~simultaneity sc inits in
      check_reports_equal label s c;
      Alcotest.(check bool) (label ^ ": verdict clean") false
        (c.Mc.Explore.duplicate_delivery
        || c.Mc.Explore.lost_valid <> None
        || c.Mc.Explore.deadlock <> None))
    cases

(* The report must be byte-identical for any worker count, including the
   visited-store footprint. *)
let test_workers_determinism () =
  let cases =
    [
      ( "3chain",
        three,
        Mc.Explore.sample_initials (Prng.Splitmix.of_int 5) ~count:150 three,
        false );
      ( "2chain-simultaneity",
        two,
        Mc.Explore.sample_initials (Prng.Splitmix.of_int 7) ~count:80 two,
        true );
    ]
  in
  List.iter
    (fun (label, sc, inits, simultaneity) ->
      let w1 = Mc.Explore.check_safety ~simultaneity ~workers:1 sc inits in
      let w2 = Mc.Explore.check_safety ~simultaneity ~workers:2 sc inits in
      let w4 = Mc.Explore.check_safety ~simultaneity ~workers:4 sc inits in
      check_reports_equal ~stats:true (label ^ " w1=w2") w1 w2;
      check_reports_equal ~stats:true (label ^ " w1=w4") w1 w4)
    cases

(* A violation's witness must also be schedule-independent: the literal-R5
   loss found with 4 workers is the one found sequentially. *)
let test_workers_witness_determinism () =
  let inits = Mc.Explore.enumerate_initials two in
  let variant =
    { Ssmfp.Protocol.faithful with Ssmfp.Protocol.literal_r5 = true }
  in
  let w1 = Mc.Explore.check_safety ~variant ~workers:1 two inits in
  let w4 = Mc.Explore.check_safety ~variant ~workers:4 two inits in
  Alcotest.(check bool) "loss found" true (w1.Mc.Explore.lost_valid <> None);
  check_reports_equal ~stats:true "literal-r5 w1=w4" w1 w4

(* The budget is exact: a search of E configurations succeeds with
   max_configs = E and fails with E - 1, naming the budget. *)
let test_budget_exact () =
  let inits = Mc.Explore.sample_initials (Prng.Splitmix.of_int 9) ~count:20 two in
  let r = Mc.Explore.check_safety two inits in
  let e = r.Mc.Explore.explored in
  let at_budget = Mc.Explore.check_safety ~max_configs:e two inits in
  Alcotest.(check int) "budget = explored succeeds" e
    at_budget.Mc.Explore.explored;
  Alcotest.check_raises "budget - 1 fails"
    (Failure
       (Printf.sprintf
          "Mc.check_safety: configuration budget exhausted (max_configs = %d)"
          (e - 1)))
    (fun () -> ignore (Mc.Explore.check_safety ~max_configs:(e - 1) two inits));
  (* same exactness under string keys and under workers > 1 *)
  Alcotest.check_raises "budget - 1 fails (string keys)"
    (Failure
       (Printf.sprintf
          "Mc.check_safety: configuration budget exhausted (max_configs = %d)"
          (e - 1)))
    (fun () -> ignore (string_keyed ~max_configs:(e - 1) two inits))

(* The sharded store under concurrent hammering: 4 domains insert
   overlapping key ranges (every key attempted by two domains, so
   add_if_absent races on every stripe) into a table created far too
   small (forcing every stripe through multiple resizes), while also
   issuing membership probes. The final entry set, the aggregate stats
   and the resize count must equal a sequential fill of an identical
   table — stats are a pure function of the key set, not of the
   interleaving. *)
let test_sharded_hammer () =
  let nkeys = 8192 in
  let key i = Printf.sprintf "hammer-key-%d-%s" i (String.make (i mod 7) 'x') in
  let keys = Array.init nkeys key in
  let hashes = Array.map Mc.Codec.hash_string keys in
  let fill_seq () =
    let t = Mc.Store.Sharded.create ~capacity:64 () in
    Array.iteri (fun i k -> ignore (add_key ~hash:hashes.(i) t k)) keys;
    t
  in
  let seq = fill_seq () in
  let conc = Mc.Store.Sharded.create ~capacity:64 () in
  let inserted = Atomic.make 0 in
  let worker d () =
    (* domain d inserts keys [d * n/4 .. d * n/4 + n/2), wrapping: every
       key is contended by exactly two domains *)
    let start = d * (nkeys / 4) in
    for j = 0 to (nkeys / 2) - 1 do
      let i = (start + j) mod nkeys in
      if add_key ~hash:hashes.(i) conc keys.(i) then Atomic.incr inserted;
      if j land 63 = 0 then assert (mem_key ~hash:hashes.(i) conc keys.(i))
    done
  in
  let domains = Array.init 4 (fun d -> Domain.spawn (worker d)) in
  Array.iter Domain.join domains;
  Alcotest.(check int) "each key inserted exactly once" nkeys
    (Atomic.get inserted);
  Alcotest.(check int) "cardinal" nkeys (Mc.Store.Sharded.cardinal conc);
  let collect t =
    let acc = ref [] in
    Mc.Store.Sharded.iter t (fun ~hash key -> acc := (hash, key) :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check bool) "entry sets equal" true (collect seq = collect conc);
  let s_seq = Mc.Store.Sharded.stats seq
  and s_conc = Mc.Store.Sharded.stats conc in
  Alcotest.(check int) "entries" s_seq.Mc.Store.entries s_conc.Mc.Store.entries;
  Alcotest.(check int) "capacity" s_seq.Mc.Store.capacity
    s_conc.Mc.Store.capacity;
  Alcotest.(check int) "key bytes" s_seq.Mc.Store.key_bytes
    s_conc.Mc.Store.key_bytes;
  Alcotest.(check bool) "resizes forced" true
    (Mc.Store.Sharded.resizes conc > 0);
  Alcotest.(check int) "resize count deterministic"
    (Mc.Store.Sharded.resizes seq)
    (Mc.Store.Sharded.resizes conc)

(* The ample-set reduction must never change a verdict, only shrink the
   explored counts — pinned against the unreduced search on every small
   net we can afford, including the ablated literal-R5 protocol whose
   reachable loss the checker is known to find. *)
let test_por_differential () =
  let star5 =
    {
      Mc.Explore.graph = Topology.Builders.star 5;
      dest = 0;
      src = 3;
      payload_pool = [ "v" ];
    }
  in
  let literal =
    { Ssmfp.Protocol.faithful with Ssmfp.Protocol.literal_r5 = true }
  in
  let cases =
    [
      ("2chain enumerate", two, None, Mc.Explore.enumerate_initials two);
      ( "2chain literal-r5",
        two,
        Some literal,
        Mc.Explore.enumerate_initials two );
      ( "3chain sampled",
        three,
        None,
        Mc.Explore.sample_initials (Prng.Splitmix.of_int 5) ~count:200 three );
      ( "3chain literal-r5",
        three,
        Some literal,
        Mc.Explore.sample_initials (Prng.Splitmix.of_int 11) ~count:100 three
      );
      ( "star5 sampled",
        star5,
        None,
        Mc.Explore.sample_initials (Prng.Splitmix.of_int 13) ~count:40 star5 );
    ]
  in
  List.iter
    (fun (label, sc, variant, inits) ->
      let off = Mc.Explore.check_safety ?variant ~por:false sc inits in
      let on_ = Mc.Explore.check_safety ?variant ~por:true sc inits in
      Alcotest.(check bool)
        (label ^ ": duplicate verdict") off.Mc.Explore.duplicate_delivery
        on_.Mc.Explore.duplicate_delivery;
      Alcotest.(check bool)
        (label ^ ": lost verdict")
        (off.Mc.Explore.lost_valid <> None)
        (on_.Mc.Explore.lost_valid <> None);
      Alcotest.(check bool)
        (label ^ ": deadlock verdict")
        (off.Mc.Explore.deadlock <> None)
        (on_.Mc.Explore.deadlock <> None);
      Alcotest.(check bool)
        (label ^ ": never explores more") true
        (on_.Mc.Explore.explored <= off.Mc.Explore.explored))
    cases;
  (* the loss must actually be surfaced under reduction, not just agreed
     away *)
  let loss =
    Mc.Explore.check_safety ~variant:literal ~por:true two
      (Mc.Explore.enumerate_initials two)
  in
  Alcotest.(check bool) "literal-r5 loss found under POR" true
    (loss.Mc.Explore.lost_valid <> None)

(* POR composes with the worker/determinism story: the reduced search is
   itself byte-identical across worker counts. *)
let test_por_workers_determinism () =
  let inits = Mc.Explore.sample_initials (Prng.Splitmix.of_int 5) ~count:150 three in
  let w1 = Mc.Explore.check_safety ~por:true ~workers:1 three inits in
  let w4 = Mc.Explore.check_safety ~por:true ~workers:4 three inits in
  check_reports_equal ~stats:true "por w1=w4" w1 w4

(* --------------- deque --------------- *)

(* Operations on two deques, 0 and 1; [Steal d] is deque [d] stealing
   from the other one. *)
type deque_op = Push of int | Push_many of int * int | Pop of int | Steal of int

let deque_op_to_string = function
  | Push d -> Printf.sprintf "push %d" d
  | Push_many (d, k) -> Printf.sprintf "push %d x%d" d k
  | Pop d -> Printf.sprintf "pop %d" d
  | Steal d -> Printf.sprintf "steal into %d" d

(* Against a list model (oldest entry first): the owner's pop is LIFO,
   a steal moves min 64 (max 1 (n/2)) of the victim's oldest entries,
   in order, to the thief's tail and returns that count, and the size
   hint is exact whenever the deque is idle. Bulk pushes grow the ring
   past its initial 64 slots and make the 64-entry steal cap bind. *)
let prop_deque_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 200)
        (frequency
           [
             (6, map (fun d -> Push d) (int_bound 1));
             (1, map2 (fun d k -> Push_many (d, k)) (int_bound 1) (int_range 40 160));
             (3, map (fun d -> Pop d) (int_bound 1));
             (2, map (fun d -> Steal d) (int_bound 1));
           ]))
  in
  QCheck.Test.make ~name:"deque matches a list model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map deque_op_to_string ops))
       gen)
    (fun ops ->
      let dq = [| Mc.Deque.create (); Mc.Deque.create () |] in
      let model = [| []; [] |] in
      let next = ref 0 in
      let push d =
        Mc.Deque.push dq.(d) !next;
        model.(d) <- model.(d) @ [ !next ];
        incr next
      in
      let step = function
        | Push d ->
            push d;
            true
        | Push_many (d, k) ->
            for _ = 1 to k do
              push d
            done;
            true
        | Pop d ->
            let expected =
              match List.rev model.(d) with
              | [] -> None
              | newest :: rest ->
                  model.(d) <- List.rev rest;
                  Some newest
            in
            Mc.Deque.pop dq.(d) = expected
        | Steal d ->
            let v = 1 - d in
            let n = List.length model.(v) in
            let take = if n = 0 then 0 else min 64 (max 1 (n / 2)) in
            model.(d) <- model.(d) @ List.filteri (fun i _ -> i < take) model.(v);
            model.(v) <- List.filteri (fun i _ -> i >= take) model.(v);
            Mc.Deque.steal ~victim:dq.(v) ~into:dq.(d) = take
      in
      let rec drain d acc =
        match Mc.Deque.pop dq.(d) with
        | Some x -> drain d (x :: acc)
        | None -> acc
      in
      List.for_all
        (fun op ->
          step op
          && Mc.Deque.size dq.(0) = List.length model.(0)
          && Mc.Deque.size dq.(1) = List.length model.(1))
        ops
      && drain 0 [] = model.(0)
      && drain 1 [] = model.(1))

(* Two owners pushing, popping and stealing from each other at once:
   every pushed entry is popped exactly once, and mutual theft never
   deadlocks. A lost entry cannot hang the test: each domain gives up
   after a long run of failed steals, and the count check then fails. *)
let test_deque_mutual_steal () =
  let per_domain = 20_000 in
  let total = 2 * per_domain in
  let dq = [| Mc.Deque.create (); Mc.Deque.create () |] in
  let taken = Atomic.make 0 in
  let worker d () =
    let own = dq.(d) and other = dq.(1 - d) in
    let got = ref [] in
    let take v =
      got := v :: !got;
      Atomic.incr taken
    in
    for k = 0 to per_domain - 1 do
      Mc.Deque.push own ((d * per_domain) + k);
      if k mod 3 = 0 then Option.iter take (Mc.Deque.pop own);
      if k mod 97 = 0 then ignore (Mc.Deque.steal ~victim:other ~into:own)
    done;
    let idle = ref 0 in
    while Atomic.get taken < total && !idle < 10_000_000 do
      match Mc.Deque.pop own with
      | Some v ->
          take v;
          idle := 0
      | None ->
          if Mc.Deque.steal ~victim:other ~into:own = 0 then begin
            incr idle;
            Domain.cpu_relax ()
          end
    done;
    !got
  in
  let domains = Array.init 2 (fun d -> Domain.spawn (worker d)) in
  let got = List.concat_map Domain.join (Array.to_list domains) in
  Alcotest.(check int) "popped count" total (List.length got);
  Alcotest.(check bool) "every entry exactly once" true
    (List.sort compare got = List.init total Fun.id);
  Alcotest.(check int) "both deques empty" 0
    (Mc.Deque.size dq.(0) + Mc.Deque.size dq.(1))

let () =
  Alcotest.run "mc_core"
    [
      ( "codec",
        [
          Alcotest.test_case "codec/string partition agreement" `Quick
            test_codec_partition;
          Alcotest.test_case "deterministic keys and hashes" `Quick
            test_codec_deterministic;
          Alcotest.test_case "field sensitivity and clamping" `Quick
            test_codec_sensitivity;
        ] );
      ( "store",
        [
          Alcotest.test_case "growth under 5000 keys" `Quick test_store_grow;
          Alcotest.test_case "forced collisions" `Quick test_store_collisions;
          Alcotest.test_case "bytes scratch front-end" `Quick
            test_store_bytes_frontend;
          Alcotest.test_case "sharded store 4-domain hammer" `Quick
            test_sharded_hammer;
        ] );
      ( "deque",
        [
          QCheck_alcotest.to_alcotest prop_deque_model;
          Alcotest.test_case "two-domain mutual steal" `Quick
            test_deque_mutual_steal;
        ] );
      ( "par",
        [
          Alcotest.test_case "string vs codec differential" `Slow
            test_differential_keys;
          Alcotest.test_case "workers 1/2/4 determinism" `Slow
            test_workers_determinism;
          Alcotest.test_case "witness determinism (literal R5)" `Slow
            test_workers_witness_determinism;
          Alcotest.test_case "exact budget boundary" `Quick test_budget_exact;
          Alcotest.test_case "POR on/off differential" `Slow
            test_por_differential;
          Alcotest.test_case "POR workers determinism" `Slow
            test_por_workers_determinism;
        ] );
    ]
