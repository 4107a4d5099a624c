(* Tests for the production-scale mp runtime internals: the rank/select
   bitset channel scheduler, the per-channel ring buffers, the
   hierarchical timer wheel, the sliding-window retransmission layer and
   its partial-synchrony timing model — plus the three contracts that
   hold the runtime together: (a) the bare [Mp.Network] replays, for the
   same seeds, the trajectories the pre-ring network loop recorded
   (pinned, group "differential"), (b) the synchronizer port replays
   pinned sliding-window trajectories exactly (golden pins), and (c) its
   pulses are the synchronous state model's rounds, event for event
   (lockstep differential). *)

(* ---------------- channel scheduler ---------------- *)

(* The bitset keeps the Fenwick tree's contract, so the four tests that
   pinned the tree keep their names and assertions. *)

let test_fenwick_single_nonempty () =
  let n = 10 in
  for i = 0 to n - 1 do
    let t = Mp.Bitset.create n in
    Mp.Bitset.set t i;
    Alcotest.(check int) "count" 1 (Mp.Bitset.count t);
    Alcotest.(check bool) "mem" true (Mp.Bitset.mem t i);
    Alcotest.(check int) "select finds the only flag" i (Mp.Bitset.select t 0)
  done

let test_fenwick_last_index () =
  (* powers of two straddle the old tree's internal node boundaries *)
  List.iter
    (fun n ->
      let t = Mp.Bitset.create n in
      for i = 0 to n - 1 do
        Mp.Bitset.set t i
      done;
      Alcotest.(check int) "full count" n (Mp.Bitset.count t);
      Alcotest.(check int)
        (Printf.sprintf "last select, n=%d" n)
        (n - 1)
        (Mp.Bitset.select t (n - 1));
      (* clear everything but the last flag *)
      for i = 0 to n - 2 do
        Mp.Bitset.clear t i
      done;
      Alcotest.(check int) "lone last flag" (n - 1) (Mp.Bitset.select t 0))
    [ 1; 2; 7; 8; 9; 15; 16; 17; 64; 100 ]

let test_fenwick_flag_flap () =
  (* the push-then-pop pattern of a channel repeatedly going
     empty/nonempty: set and clear must stay idempotent and the counts
     exact through arbitrary flapping *)
  let t = Mp.Bitset.create 8 in
  for _ = 1 to 100 do
    Mp.Bitset.set t 3;
    Mp.Bitset.set t 3;
    (* idempotent *)
    Alcotest.(check int) "one set" 1 (Mp.Bitset.count t);
    Mp.Bitset.clear t 3;
    Mp.Bitset.clear t 3;
    Alcotest.(check int) "cleared" 0 (Mp.Bitset.count t)
  done;
  Mp.Bitset.set t 1;
  Mp.Bitset.set t 6;
  Mp.Bitset.set t 1;
  Alcotest.(check int) "two flags" 2 (Mp.Bitset.count t);
  Alcotest.(check int) "first" 1 (Mp.Bitset.select t 0);
  Alcotest.(check int) "second" 6 (Mp.Bitset.select t 1)

(* Set and clear flags in a bitset and in a plain bool array, then check
   count and every select against the sorted list of set indices. *)
let matches_sorted_reference n ops =
  let t = Mp.Bitset.create n in
  let reference = Array.make n false in
  List.iter
    (fun (i, on) ->
      if on then Mp.Bitset.set t i else Mp.Bitset.clear t i;
      reference.(i) <- on)
    ops;
  let sorted =
    Array.of_list (List.filter (fun i -> reference.(i)) (List.init n Fun.id))
  in
  Mp.Bitset.count t = Array.length sorted
  && Array.for_all (fun i -> Mp.Bitset.mem t i = reference.(i)) (Array.init n Fun.id)
  && Array.for_all Fun.id (Array.mapi (fun k i -> Mp.Bitset.select t k = i) sorted)

(* The scheduler contract: one uniform draw in [0, count) through
   [select] must pick exactly the channel the historical implementation
   picked — the (k+1)-th nonempty channel in index order. Sizes run to
   5,000 flags, and half the indices sit on a word (32) or block (1,024)
   boundary or next to one. *)
let prop_fenwick_matches_sorted_reference =
  let edges = [ 31; 32; 33; 1023; 1024; 1025; 2047; 2048; 2049; 4095; 4096 ] in
  let gen =
    QCheck.Gen.(
      oneof
        [ int_range 1 64; oneofl (edges @ [ 5000 ]); int_range 65 5000 ]
      >>= fun n ->
      let index =
        oneof
          [
            int_bound (n - 1);
            map (fun e -> min (n - 1) e) (oneofl (0 :: n - 1 :: edges));
          ]
      in
      map (fun ops -> (n, ops)) (list_size (int_bound 400) (pair index bool)))
  in
  QCheck.Test.make ~name:"select = sorted-nonempty reference" ~count:300
    (QCheck.make
       ~print:(fun (n, ops) -> Printf.sprintf "n=%d, %d ops" n (List.length ops))
       gen)
    (fun (n, ops) -> matches_sorted_reference n ops)

(* Dense patterns at every word and block boundary the property only
   samples: all flags, every third, and only the flags next to a word
   boundary, each then thinned from the front. *)
let test_bitset_boundaries () =
  List.iter
    (fun n ->
      List.iter
        (fun keep ->
          let on = List.filter keep (List.init n Fun.id) in
          let ops = List.map (fun i -> (i, true)) on in
          let thinned =
            ops @ List.filteri (fun k _ -> k mod 2 = 0) (List.map (fun i -> (i, false)) on)
          in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d, %d set" n (List.length on))
            true
            (matches_sorted_reference n ops && matches_sorted_reference n thinned))
        [
          (fun _ -> true);
          (fun i -> i mod 3 = 0);
          (fun i -> List.mem (i land 31) [ 0; 31 ]);
        ])
    [ 31; 32; 33; 1023; 1024; 1025; 5000 ]

(* The scheduler's per-delivery operations allocate nothing: a million
   select/clear/set rounds add no minor word. *)
let test_bitset_allocates_nothing () =
  let n = 20_000 in
  let t = Mp.Bitset.create n in
  for i = 0 to n - 1 do
    if i mod 3 <> 0 then Mp.Bitset.set t i
  done;
  let words =
    Test_util.minor_words (fun () ->
        for r = 1 to 1_000_000 do
          let i = Mp.Bitset.select t (r * 7919 mod Mp.Bitset.count t) in
          Mp.Bitset.clear t i;
          Mp.Bitset.set t ((i + r) mod n)
        done)
  in
  Alcotest.(check (float 0.)) "minor words" 0. words

(* Same contract phrased as the scheduler uses it: feeding one shared
   PRNG stream to "draw k, select" against the bitset and against the
   sorted-nonempty list yields the identical channel sequence. *)
let test_fenwick_draw_sequence_unchanged () =
  let n = 12 in
  let t = Mp.Bitset.create n in
  let reference = Array.make n false in
  let flip rng =
    let i = Prng.Splitmix.int rng n in
    if reference.(i) then (
      Mp.Bitset.clear t i;
      reference.(i) <- false)
    else (
      Mp.Bitset.set t i;
      reference.(i) <- true)
  in
  let rng = Prng.Splitmix.of_int 4242 in
  let rng_ref = Prng.Splitmix.of_int 99 in
  for _ = 1 to 500 do
    flip rng;
    let sorted = List.filter (fun i -> reference.(i)) (List.init n Fun.id) in
    if sorted <> [] then begin
      let k = Prng.Splitmix.int rng_ref (List.length sorted) in
      Alcotest.(check int) "same channel drawn" (List.nth sorted k)
        (Mp.Bitset.select t k)
    end
  done

(* ---------------- ring buffers ---------------- *)

let test_ring_fifo_and_lazy_storage () =
  let r = Mp.Ring.create () in
  Alcotest.(check int) "no storage before first push" 0 (Mp.Ring.capacity r);
  Alcotest.(check bool) "empty" true (Mp.Ring.is_empty r);
  for i = 1 to 5 do
    Mp.Ring.push r i
  done;
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3; 4; 5 ] (Mp.Ring.to_list r);
  Alcotest.(check int) "pop front" 1 (Mp.Ring.pop r);
  Alcotest.(check int) "peek next" 2 (Mp.Ring.peek r);
  Mp.Ring.clear r;
  Alcotest.(check bool) "cleared" true (Mp.Ring.is_empty r);
  Alcotest.(check bool) "storage kept" true (Mp.Ring.capacity r > 0)

let test_ring_growth_while_wrapped () =
  (* force the head away from slot 0, then grow: the doubling must
     relinearize the wrapped contents *)
  let r = Mp.Ring.create () in
  for i = 0 to 5 do
    Mp.Ring.push r i
  done;
  ignore (Mp.Ring.pop r);
  ignore (Mp.Ring.pop r);
  let cap0 = Mp.Ring.capacity r in
  for i = 6 to 40 do
    Mp.Ring.push r i
  done;
  Alcotest.(check bool) "grew" true (Mp.Ring.capacity r > cap0);
  Alcotest.(check (list int)) "order preserved across growth"
    (List.init 39 (fun i -> i + 2))
    (Mp.Ring.to_list r)

let test_ring_insert_reorder () =
  let r = Mp.Ring.create () in
  List.iter (Mp.Ring.push r) [ "a"; "b"; "c" ];
  Mp.Ring.insert r 0 "x";
  (* overtakes everything *)
  Mp.Ring.insert r 2 "y";
  (* lands mid-queue *)
  Mp.Ring.insert r (Mp.Ring.length r) "z";
  (* insert at length = push *)
  Alcotest.(check (list string)) "reorder positions"
    [ "x"; "a"; "y"; "b"; "c"; "z" ]
    (Mp.Ring.to_list r);
  Alcotest.(check string) "get front" "x" (Mp.Ring.get r 0);
  Alcotest.(check string) "get mid" "y" (Mp.Ring.get r 2);
  Alcotest.check_raises "pop empty" (Invalid_argument "Ring.pop: empty")
    (fun () -> ignore (Mp.Ring.pop (Mp.Ring.create () : int Mp.Ring.t)))

(* [take] is [pop] that leaves [vacant] in the freed slot: once every
   slot of the backing array has been written, a taken item is no longer
   reachable from the ring, while a popped one stays until a push lands
   on its slot. *)
let test_ring_take_vacates () =
  let taken = Mp.Ring.create () and popped = Mp.Ring.create () in
  for _ = 1 to 8 do
    Mp.Ring.push taken [||];
    ignore (Mp.Ring.take taken ~vacant:[||]);
    Mp.Ring.push popped [||];
    ignore (Mp.Ring.pop popped)
  done;
  Mp.Ring.push taken (Array.make 10_000 0);
  Mp.Ring.push popped (Array.make 10_000 0);
  Alcotest.(check int) "take returns the front" 10_000
    (Array.length (Mp.Ring.take taken ~vacant:[||]));
  ignore (Mp.Ring.pop popped);
  let words r = Obj.reachable_words (Obj.repr r) in
  Alcotest.(check bool) "taken item unreachable" true (words taken < 100);
  Alcotest.(check bool) "popped item still reachable" true
    (words popped > 10_000);
  Alcotest.check_raises "take empty" (Invalid_argument "Ring.take: empty")
    (fun () -> ignore (Mp.Ring.take taken ~vacant:[||]))

(* Model test: a ring driven by random push/pop/take/insert (the
   duplication/reorder primitives of the unreliable link) agrees with a
   plain list model at every step. *)
let prop_ring_matches_list_model =
  QCheck.Test.make ~name:"ring = list model under push/pop/insert" ~count:200
    QCheck.(list (pair (int_range 0 2) small_nat))
    (fun ops ->
      let r = Mp.Ring.create () in
      let model = ref [] in
      List.for_all
        (fun (op, x) ->
          (match op with
          | 0 ->
              Mp.Ring.push r x;
              model := !model @ [ x ]
          | 1 ->
              if !model <> [] then begin
                let popped =
                  if x land 1 = 0 then Mp.Ring.pop r
                  else Mp.Ring.take r ~vacant:(-1)
                in
                let expect = List.hd !model in
                model := List.tl !model;
                assert (popped = expect)
              end
          | _ ->
              (* duplication-with-overtake: reinsert x at position
                 x mod (len+1) *)
              let pos = x mod (Mp.Ring.length r + 1) in
              Mp.Ring.insert r pos x;
              let rec ins i = function
                | rest when i = pos -> (x :: rest : int list)
                | [] -> [ x ]
                | y :: rest -> y :: ins (i + 1) rest
              in
              model := ins 0 !model);
          Mp.Ring.to_list r = !model
          && Mp.Ring.length r = List.length !model)
        ops)

(* ---------------- timer wheel ---------------- *)

(* Open the window up to [upto] and call [fire] on each due timer. *)
let advance w ~upto fire =
  Mp.Wheel.advance w ~upto;
  let rec drain () =
    let id = Mp.Wheel.next_due w in
    if id >= 0 then begin
      fire id;
      drain ()
    end
  in
  drain ()

let fire_log w upto =
  (* advance tick-by-tick so each firing is tagged with its exact tick *)
  let log = ref [] in
  while Mp.Wheel.now w < upto do
    let t = Mp.Wheel.now w + 1 in
    advance w ~upto:t (fun id -> log := (id, t) :: !log)
  done;
  List.rev !log

let test_wheel_cascade_boundaries () =
  (* deadlines straddling the 64-slot level boundaries must fire at
     exactly their tick, not a rounded one *)
  let deadlines = [ 1; 63; 64; 65; 4095; 4096; 4097 ] in
  let w = Mp.Wheel.create ~ids:(List.length deadlines) in
  List.iteri (fun id at -> Mp.Wheel.arm w id ~at) deadlines;
  Alcotest.(check int) "pending" (List.length deadlines) (Mp.Wheel.pending w);
  let log = fire_log w 5000 in
  Alcotest.(check (list (pair int int)))
    "each fires at its exact deadline"
    (List.mapi (fun id at -> (id, at)) deadlines)
    log;
  Alcotest.(check int) "drained" 0 (Mp.Wheel.pending w)

let test_wheel_cancel_and_supersede () =
  let w = Mp.Wheel.create ~ids:3 in
  Mp.Wheel.arm w 0 ~at:10;
  Mp.Wheel.arm w 1 ~at:10;
  Mp.Wheel.arm w 2 ~at:10;
  Mp.Wheel.cancel w 1;
  Mp.Wheel.cancel w 1;
  (* idempotent *)
  Mp.Wheel.arm w 2 ~at:20;
  (* supersedes the first arming *)
  Alcotest.(check bool) "0 armed" true (Mp.Wheel.armed w 0);
  Alcotest.(check bool) "1 disarmed" false (Mp.Wheel.armed w 1);
  Alcotest.(check int) "2 re-aimed" 20 (Mp.Wheel.deadline w 2);
  Alcotest.(check int) "unarmed deadline" (-1) (Mp.Wheel.deadline w 1);
  let log = fire_log w 30 in
  Alcotest.(check (list (pair int int)))
    "cancelled never fires, superseded fires once at the new tick"
    [ (0, 10); (2, 20) ]
    log

let test_wheel_idle_jump () =
  let w = Mp.Wheel.create ~ids:2 in
  Mp.Wheel.arm w 0 ~at:70_000;
  (* beyond two levels *)
  Alcotest.(check (option int)) "next finds far deadline" (Some 70_000)
    (Mp.Wheel.next w);
  let fired = ref [] in
  advance w ~upto:70_000 (fun id ->
      fired := (id, Mp.Wheel.now w) :: !fired);
  Alcotest.(check bool) "fired on the jump" true (List.mem_assoc 0 !fired);
  Alcotest.(check int) "clock landed" 70_000 (Mp.Wheel.now w);
  Alcotest.(check (option int)) "nothing pending" None (Mp.Wheel.next w)

let test_wheel_rearm_from_fire () =
  (* a timer re-armed by its own fire callback, for a tick still inside
     the advance window, fires in the same sweep *)
  let w = Mp.Wheel.create ~ids:1 in
  Mp.Wheel.arm w 0 ~at:5;
  let fires = ref [] in
  advance w ~upto:20 (fun id ->
      fires := id :: !fires;
      if List.length !fires = 1 then Mp.Wheel.arm w 0 ~at:12);
  Alcotest.(check int) "fired twice in one sweep" 2 (List.length !fires)

let test_wheel_rejects_past () =
  let w = Mp.Wheel.create ~ids:1 in
  ignore (fire_log w 10);
  Alcotest.(check bool) "arming in the past raises" true
    (try
       Mp.Wheel.arm w 0 ~at:10;
       false
     with Invalid_argument _ -> true)

(* ---------------- sliding-window protocol ---------------- *)

let seqs frames =
  List.filter_map
    (function Mp.Window.Data { seq; _ } -> Some seq | _ -> None)
    frames

let test_window_in_order_exactly_once () =
  let s : string Mp.Window.sender = Mp.Window.sender 4 in
  let r : string Mp.Window.receiver = Mp.Window.receiver 4 in
  let fs =
    List.concat_map (fun p -> Mp.Window.send s p) [ "a"; "b"; "c" ]
  in
  Alcotest.(check (list int)) "seqs 0,1,2" [ 0; 1; 2 ] (seqs fs);
  let delivered = ref [] in
  List.iter
    (fun f ->
      match f with
      | Mp.Window.Data { epoch; seq; body } ->
          let pays, _ack = Mp.Window.on_data r ~epoch ~seq body in
          delivered := !delivered @ pays
      | _ -> ())
    fs;
  Alcotest.(check (list string)) "in order" [ "a"; "b"; "c" ] !delivered;
  (* replay the first frame: exactly-once within the epoch *)
  (match List.hd fs with
  | Mp.Window.Data { epoch; seq; body } ->
      let pays, ack = Mp.Window.on_data r ~epoch ~seq body in
      Alcotest.(check (list string)) "duplicate not re-delivered" [] pays;
      (match ack with
      | Mp.Window.Ack { cum; _ } ->
          Alcotest.(check int) "cumulative ack at 2" 2 cum
      | _ -> Alcotest.fail "expected an ack")
  | _ -> Alcotest.fail "expected data");
  Alcotest.(check int) "receiver expects 3" 3 (Mp.Window.expected r)

let test_window_reorder_buffering_and_nak () =
  let r : string Mp.Window.receiver = Mp.Window.receiver 4 in
  let e = Mp.Window.receiver_epoch r in
  (* seq 2 arrives first: buffered, ack naks the gap at 0 *)
  let pays, ack = Mp.Window.on_data r ~epoch:e ~seq:2 "c" in
  Alcotest.(check (list string)) "gap buffers" [] pays;
  (match ack with
  | Mp.Window.Ack { cum; nak; _ } ->
      Alcotest.(check int) "nothing cumulative" (-1) cum;
      Alcotest.(check int) "nak first missing" 0 nak
  | _ -> Alcotest.fail "expected ack");
  let pays, _ = Mp.Window.on_data r ~epoch:e ~seq:0 "a" in
  Alcotest.(check (list string)) "0 unlocks itself" [ "a" ] pays;
  let pays, _ = Mp.Window.on_data r ~epoch:e ~seq:1 "b" in
  Alcotest.(check (list string)) "1 unlocks buffered 2" [ "b"; "c" ] pays

let test_window_full_backlog_and_ack_release () =
  let s : int Mp.Window.sender = Mp.Window.sender 2 in
  Alcotest.(check (list int)) "fits" [ 0 ] (seqs (Mp.Window.send s 10));
  Alcotest.(check (list int)) "fits" [ 1 ] (seqs (Mp.Window.send s 11));
  Alcotest.(check (list int)) "window full: backlogged" []
    (seqs (Mp.Window.send s 12));
  Alcotest.(check int) "backlog 1" 1 (Mp.Window.backlog s);
  Alcotest.(check int) "in flight 2" 2 (Mp.Window.in_flight s);
  let e = Mp.Window.sender_epoch s in
  let out = Mp.Window.on_ack s ~epoch:e ~cum:0 ~nak:(-1) in
  Alcotest.(check (list int)) "ack releases backlog as seq 2" [ 2 ] (seqs out);
  Alcotest.(check int) "backlog drained" 0 (Mp.Window.backlog s);
  Alcotest.(check bool) "still busy" true (Mp.Window.busy s)

let test_window_send_latest_conflation () =
  let s : int Mp.Window.sender = Mp.Window.sender 2 in
  Alcotest.(check (list int)) "fits" [ 0 ] (seqs (Mp.Window.send_latest s 10));
  Alcotest.(check (list int)) "fits" [ 1 ] (seqs (Mp.Window.send_latest s 11));
  Alcotest.(check (list int)) "full: backlogged" []
    (seqs (Mp.Window.send_latest s 12));
  Alcotest.(check (list int)) "newer supersedes" []
    (seqs (Mp.Window.send_latest s 13));
  Alcotest.(check int) "backlog conflated to 1" 1 (Mp.Window.backlog s);
  let e = Mp.Window.sender_epoch s in
  let out = Mp.Window.on_ack s ~epoch:e ~cum:1 ~nak:(-1) in
  Alcotest.(check (list int)) "ack releases one frame" [ 2 ] (seqs out);
  let bodies =
    List.filter_map
      (function Mp.Window.Data { body; _ } -> Some body | _ -> None)
      out
  in
  Alcotest.(check (list int)) "and it is the latest payload" [ 13 ] bodies;
  (* in-flight frames are not recalled by conflation *)
  Alcotest.(check int) "in flight" 1 (Mp.Window.in_flight s)

let test_window_rto_and_nak_retransmit () =
  let s : int Mp.Window.sender = Mp.Window.sender 4 in
  ignore (Mp.Window.send s 10);
  ignore (Mp.Window.send s 11);
  let before = Mp.Window.retransmits s in
  Alcotest.(check (list int)) "rto resends base" [ 0 ] (seqs (Mp.Window.on_rto s));
  let e = Mp.Window.sender_epoch s in
  let out = Mp.Window.on_ack s ~epoch:e ~cum:(-1) ~nak:1 in
  Alcotest.(check (list int)) "nak retransmits seq 1" [ 1 ] (seqs out);
  Alcotest.(check bool) "retransmits counted" true
    (Mp.Window.retransmits s >= before + 2);
  (* empty sender: rto is a no-op *)
  let s2 : int Mp.Window.sender = Mp.Window.sender 4 in
  Alcotest.(check (list int)) "idle rto silent" [] (seqs (Mp.Window.on_rto s2));
  Alcotest.(check bool) "idle not busy" false (Mp.Window.busy s2)

let test_window_epoch_adoption () =
  let r : string Mp.Window.receiver = Mp.Window.receiver 4 in
  let pays, _ = Mp.Window.on_data r ~epoch:4242 ~seq:0 "x" in
  Alcotest.(check (list string)) "foreign epoch adopted" [ "x" ] pays;
  Alcotest.(check int) "receiver moved" 4242 (Mp.Window.receiver_epoch r)

let test_window_crash_resync () =
  let s : string Mp.Window.sender = Mp.Window.sender 4 in
  let r : string Mp.Window.receiver = Mp.Window.receiver 4 in
  let relay frames =
    List.concat_map
      (function
        | Mp.Window.Data { epoch; seq; body } ->
            let pays, ack = Mp.Window.on_data r ~epoch ~seq body in
            ignore pays;
            (match ack with
            | Mp.Window.Ack { epoch; cum; nak } ->
                Mp.Window.on_ack s ~epoch ~cum ~nak
            | _ -> [])
        | _ -> [])
      frames
  in
  ignore (relay (Mp.Window.send s "a"));
  ignore (relay (Mp.Window.send s "b"));
  let e0 = Mp.Window.sender_epoch s in
  (* receiver crashes with amnesia: fresh epoch, empty window *)
  Mp.Window.reset_receiver r;
  (* next send lands as seq 2 in an epoch the receiver no longer
     tracks; the ack exchange must force the sender to resync *)
  let frames = Mp.Window.send s "c" in
  let resent = relay frames in
  Alcotest.(check bool) "sender resynced to fresh epoch" true
    (Mp.Window.sender_epoch s <> e0);
  (* the resync renumbers the unacked suffix from 0 *)
  Alcotest.(check (list int)) "renumbered from zero" [ 0 ] (seqs resent);
  ignore (relay resent);
  Alcotest.(check bool) "drained after resync" false (Mp.Window.busy s);
  Alcotest.(check int) "receiver adopted the new epoch"
    (Mp.Window.sender_epoch s)
    (Mp.Window.receiver_epoch r)

let test_window_reset_sender () =
  let s : int Mp.Window.sender = Mp.Window.sender 4 in
  ignore (Mp.Window.send s 1);
  ignore (Mp.Window.send s 2);
  let e0 = Mp.Window.sender_epoch s in
  Mp.Window.reset_sender s;
  Alcotest.(check int) "in flight dropped" 0 (Mp.Window.in_flight s);
  Alcotest.(check bool) "not busy" false (Mp.Window.busy s);
  Alcotest.(check bool) "fresh epoch" true (Mp.Window.sender_epoch s <> e0)

(* ---------------- partial synchrony ---------------- *)

let test_synchrony_validation () =
  Alcotest.(check bool) "delta 0 rejected" true
    (try
       ignore (Mp.Synchrony.make ~delta:0 ~gst:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative gst rejected" true
    (try
       ignore (Mp.Synchrony.make ~delta:4 ~gst:(-1));
       false
     with Invalid_argument _ -> true);
  let s = Mp.Synchrony.make ~delta:8 ~gst:2000 in
  Alcotest.(check int) "delta" 8 (Mp.Synchrony.delta s);
  Alcotest.(check int) "gst" 2000 (Mp.Synchrony.gst s);
  Alcotest.(check string) "to_string" "8/2000" (Mp.Synchrony.to_string s)

(* One relay hop over a loss=1.0 link: asynchronously the payload can
   never arrive; with GST already passed, fault draws are suppressed
   and it must. *)
let relay_once ?synchrony () =
  let arrived = ref false in
  let net =
    Mp.Network.create ~loss:1.0 ?synchrony
      ~init:(fun _ -> ())
      ~handler:(fun ~self ~from:_ () msg ->
        if self = 1 && msg = "payload" then arrived := true;
        ((), if self = 0 && msg = "go" then [ (1, "payload") ] else []))
      (Topology.Builders.path 2)
  in
  Mp.Network.inject net ~from:1 ~into:0 "go";
  let rng = Prng.Splitmix.of_int 5 in
  ignore (Mp.Network.run ~max_deliveries:100 net rng);
  (!arrived, Mp.Network.dropped net)

let test_synchrony_post_gst_reliable () =
  let arrived, dropped =
    relay_once ~synchrony:(Mp.Synchrony.make ~delta:4 ~gst:0) ()
  in
  Alcotest.(check bool) "post-GST delivery guaranteed" true arrived;
  Alcotest.(check int) "no post-GST drops" 0 dropped

let test_synchrony_pre_gst_lossy () =
  let arrived, dropped =
    relay_once ~synchrony:(Mp.Synchrony.make ~delta:4 ~gst:1_000_000) ()
  in
  Alcotest.(check bool) "pre-GST the knobs apply" false arrived;
  Alcotest.(check bool) "drop happened" true (dropped > 0)

let test_synchrony_bounded_age () =
  (* after GST, no channel may stay nonempty for more than delta + C
     steps: a continuously refilled network still serves every channel *)
  let delta = 4 in
  let g = Topology.Builders.ring 5 in
  let counts = Array.make 5 0 in
  let net =
    Mp.Network.create
      ~synchrony:(Mp.Synchrony.make ~delta ~gst:0)
      ~init:(fun p -> p)
      ~handler:(fun ~self ~from:_ p ttl ->
        counts.(self) <- counts.(self) + 1;
        (p, if ttl > 0 then [ ((self + 1) mod 5, ttl - 1) ] else []))
      g
  in
  for p = 0 to 4 do
    Mp.Network.inject net ~from:p ~into:((p + 1) mod 5) 400
  done;
  let rng = Prng.Splitmix.of_int 11 in
  ignore (Mp.Network.run ~max_deliveries:2000 net rng);
  Array.iteri
    (fun p c ->
      Alcotest.(check bool)
        (Printf.sprintf "processor %d served" p)
        true (c > 0))
    counts

(* ---------------- pinned network trajectories ---------------- *)

(* A TTL token relay on ring:6, one fault axis per case, from a fixed
   seed. The expected observables were recorded from the pre-ring
   network loop, which the ring-buffer [Mp.Network] replayed in
   lockstep, draw for draw, until the old loop was retired: the loop was
   frozen and the seeds are fixed, so its outputs are constants. A
   change to the channel draw, to the order or guard of a loss,
   duplication or reorder draw, or to crash evaporation moves them.
   Every such case drains: it ends idle, with every channel empty.
   [states] are the tokens each process received.

   That relay dies fast under faults (the lossy case drains after 24
   deliveries, flaky + crash after 9 with nothing duplicated or
   reordered), so with [resend] every process also sends a fresh 3-hop
   token to its successor from a periodic wheel timer, as b4's relay
   resends do. The tokens stay alive and the fault axes act together:
   such a case spends its whole step budget (a timer fire on empty
   channels is a step too) and pins, besides the counters and states,
   the contents of every successor channel ([channels]; the predecessor
   channels stay empty). Those values are the current network's; timer
   firing moves them too. *)
let differential ?(loss = 0.) ?(duplication = 0.) ?(reorder = 0.) ?crash
    ?(resend = false) ~seed ~budget ~deliveries ?(dropped = 0)
    ?(duplicated = 0) ?(reordered = 0) ?(dropped_while_down = 0)
    ?(channels = List.init 6 (fun _ -> [])) label states =
  let g = Topology.Builders.ring 6 in
  let n = Topology.Graph.n g in
  let next p = (p + 1) mod n in
  let handler ~self ~from:_ count ttl =
    (count + 1, if ttl > 0 then [ (next self, ttl - 1) ] else [])
  in
  let net =
    Mp.Network.create ~loss ~duplication ~reorder ~init:(fun _ -> 0) ~handler g
  in
  if resend then
    Mp.Network.set_timer_handler net ~keys:1 (fun ~self ~key count ->
        Mp.Network.arm_timer net ~self ~key ~after:(8 * n);
        (count, [ (next self, 3) ]));
  for p = 0 to n - 1 do
    if resend then Mp.Network.arm_timer net ~self:p ~key:0 ~after:(1 + (8 * p));
    Mp.Network.inject net ~from:p ~into:(next p) (20 + p)
  done;
  Option.iter (fun (p, down_for) -> Mp.Network.crash net p ~down_for) crash;
  let outcome =
    Mp.Network.run ~max_deliveries:budget net (Prng.Splitmix.of_int seed)
  in
  let chk name = Alcotest.(check int) (label ^ ": " ^ name) in
  Alcotest.(check bool)
    (label ^ ": outcome") true
    (outcome = if resend then `Max_deliveries else `Idle);
  chk "deliveries" deliveries (Mp.Network.deliveries net);
  chk "dropped" dropped (Mp.Network.dropped net);
  chk "duplicated" duplicated (Mp.Network.duplicated net);
  chk "reordered" reordered (Mp.Network.reordered net);
  chk "dropped while down" dropped_while_down
    (Mp.Network.dropped_while_down net);
  chk "in flight"
    (List.length (List.concat channels))
    (Mp.Network.in_flight net);
  Alcotest.(check (list int)) (label ^ ": states") states
    (List.init n (Mp.Network.state net));
  List.iteri
    (fun p want ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s: channel %d->%d" label p (next p))
        want
        (Mp.Network.channel_contents net ~from:p ~into:(next p)))
    channels

let test_differential_reliable () =
  differential ~seed:101 ~budget:5000 ~deliveries:141 "reliable"
    [ 23; 24; 23; 24; 23; 24 ]

let test_differential_lossy () =
  differential ~loss:0.2 ~seed:102 ~budget:5000 ~deliveries:24 ~dropped:6
    "lossy" [ 4; 3; 3; 4; 5; 5 ]

let test_differential_duplicating () =
  differential ~duplication:0.25 ~seed:103 ~budget:5000 ~deliveries:3631
    ~duplicated:740 "duplicating" [ 565; 710; 480; 608; 561; 707 ]

let test_differential_reordering () =
  differential ~reorder:0.3 ~seed:104 ~budget:5000 ~deliveries:141
    ~reordered:16 "reordering" [ 23; 24; 23; 24; 23; 24 ]

let test_differential_flaky_crash () =
  differential ~loss:0.3 ~duplication:0.1 ~reorder:0.2 ~crash:(2, 40)
    ~seed:105 ~budget:2000 ~deliveries:9 ~dropped:3 ~dropped_while_down:3
    "flaky+crash" [ 2; 2; 0; 1; 2; 2 ]

let test_resends_lossy () =
  differential ~loss:0.2 ~resend:true ~seed:106 ~budget:2000 ~deliveries:1401
    ~dropped:379 ~channels:[ []; []; [ 2 ]; []; []; [] ] "resends lossy"
    [ 231; 230; 236; 230; 235; 239 ]

let test_resends_flaky_crash () =
  differential ~loss:0.3 ~duplication:0.1 ~reorder:0.2 ~crash:(2, 40)
    ~resend:true ~seed:108 ~budget:2000 ~deliveries:1458 ~dropped:621
    ~duplicated:190 ~reordered:23 ~dropped_while_down:5
    ~channels:[ [ 2 ]; []; []; [ 2 ]; []; [] ] "resends flaky+crash"
    [ 258; 258; 228; 234; 234; 246 ]

let test_resends_lossy_crash () =
  differential ~loss:0.15 ~duplication:0.05 ~reorder:0.1 ~crash:(4, 200)
    ~resend:true ~seed:109 ~budget:3000 ~deliveries:2382 ~dropped:406
    ~duplicated:126 ~reordered:12 ~dropped_while_down:17
    ~channels:[ []; []; [ 2 ]; []; []; [] ] "resends lossy+crash"
    [ 399; 394; 409; 407; 387; 386 ]

(* ---------------- golden trajectory pins ---------------- *)

(* Exact end-of-run observables of the synchronizer port at its default
   sliding window (size 8): deliveries, pulses, channel fault counts and
   a digest of every core + pulse counter. Any change to the runtime,
   the window layer or the synchronizer that moves a trajectory shows
   up here; re-pin only on purpose. *)

let fingerprint t g =
  let n = Topology.Graph.n g in
  let buf = Buffer.create 256 in
  for p = 0 to n - 1 do
    Buffer.add_string buf (Marshal.to_string (Mp.Ssmfp_mp.core t p) []);
    Buffer.add_string buf (string_of_int (Mp.Ssmfp_mp.pulse_of t p))
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pin ?(spec = Harness.Fault.pristine) ?(channel_garbage = 0) ?(loss = 0.)
    ?(duplication = 0.) ?(reorder = 0.) ~seed ~per_processor
    ~deliveries ~max_pulse ?(lost = 0) ?(dup = 0) ?(reord = 0) ~fp label g =
  let n = Topology.Graph.n g in
  let rng = Prng.Splitmix.of_int ((seed * 1000) + 7) in
  let wl = Harness.Workload.uniform_random rng ~n ~per_processor in
  let t =
    Mp.Ssmfp_mp.create ~spec ~channel_garbage ~loss ~duplication ~reorder ~seed
      g wl
  in
  let r = Mp.Ssmfp_mp.run t in
  let st = Mp.Ssmfp_mp.channel_stats t in
  let chk name = Alcotest.(check int) (label ^ ": " ^ name) in
  Alcotest.(check bool) (label ^ ": done") true
    (r.Mp.Ssmfp_mp.outcome = `All_done);
  Alcotest.(check bool) (label ^ ": SP verdict") true
    r.Mp.Ssmfp_mp.verdict.Harness.Oracle.ok;
  chk "deliveries" deliveries r.Mp.Ssmfp_mp.channel_deliveries;
  chk "max pulse" max_pulse r.Mp.Ssmfp_mp.max_pulse;
  chk "lost" lost st.Mp.Ssmfp_mp.lost;
  chk "duplicated" dup st.Mp.Ssmfp_mp.duplicated;
  chk "reordered" reord st.Mp.Ssmfp_mp.reordered;
  Alcotest.(check string) (label ^ ": trajectory digest") fp (fingerprint t g);
  t

let test_pin_ring5_pristine () =
  ignore
    (pin ~seed:31 ~per_processor:2 ~deliveries:441 ~max_pulse:21
       ~fp:"ffbefc06b2078a9016b653bc62000020" "ring5-pristine"
       (Topology.Builders.ring 5))

let test_pin_ring6_adversarial () =
  ignore
    (pin ~spec:Harness.Fault.adversarial ~seed:44 ~per_processor:2
       ~deliveries:3207 ~max_pulse:119 ~fp:"96f3d900c4f6a5d2a32021d95eb288df"
       "ring6-adversarial" (Topology.Builders.ring 6))

let test_pin_path4_garbage () =
  ignore
    (pin ~spec:Harness.Fault.adversarial ~channel_garbage:6 ~seed:9
       ~per_processor:1 ~deliveries:991 ~max_pulse:77
       ~fp:"f2692c8dbda778861f12b6af7ee614ba" "path4-garbage"
       (Topology.Builders.path 4))

let test_pin_ring6_lossy () =
  ignore
    (pin ~loss:0.15 ~duplication:0.05 ~reorder:0.10 ~seed:7 ~per_processor:2
       ~deliveries:660 ~max_pulse:27 ~lost:109 ~dup:26 ~reord:30
       ~fp:"07e27f90f7815e59fcb04e990e7be3d6" "ring6-lossy"
       (Topology.Builders.ring 6))

let test_pin_fig2_flaky () =
  let t =
    pin ~spec:Harness.Fault.adversarial ~loss:0.30 ~duplication:0.10
      ~reorder:0.20 ~channel_garbage:4 ~seed:12 ~per_processor:1
      ~deliveries:1822 ~max_pulse:65 ~lost:702 ~dup:219 ~reord:88
      ~fp:"c5975421e21d5127e4220fd5847b4cb4" "fig2-flaky"
      Topology.Builders.paper_figure2
  in
  Alcotest.(check bool) "fig2-flaky: window layer retransmitted" true
    (Mp.Ssmfp_mp.window_retransmits t > 0)

let chaos_pin ~schedule ~seed ?(aftermath = 0) ?(channel_garbage = 0)
    ?(snapshot_every = 0) ~per_processor ~deliveries ~max_pulse ~fired
    ?(lost = 0) ?(dup = 0) ?(reord = 0) ?(down = 0) ?snap label g =
  let n = Topology.Graph.n g in
  let rng = Prng.Splitmix.of_int ((seed * 1000) + 7) in
  let wl = Harness.Workload.uniform_random rng ~n ~per_processor in
  let sch =
    match Chaos.Schedule.of_string schedule with
    | Ok s -> s
    | Error e -> failwith e
  in
  let o =
    Chaos.Mp_run.run ~spec:Harness.Fault.adversarial ~channel_garbage ~seed
      ~aftermath ~snapshot_every ~schedule:sch g wl
  in
  let chk name = Alcotest.(check int) (label ^ ": " ^ name) in
  Alcotest.(check bool) (label ^ ": done") true
    (o.Chaos.Mp_run.mp_outcome = `All_done);
  Alcotest.(check bool) (label ^ ": SP verdict") true
    o.Chaos.Mp_run.verdict.Harness.Oracle.ok;
  Alcotest.(check bool) (label ^ ": recovery verdict") true
    o.Chaos.Mp_run.report.Chaos.Recovery.ok;
  chk "deliveries" deliveries o.Chaos.Mp_run.channel_deliveries;
  chk "max pulse" max_pulse o.Chaos.Mp_run.max_pulse;
  Alcotest.(check (list (pair int int)))
    (label ^ ": bursts fired")
    fired o.Chaos.Mp_run.fired;
  chk "lost" lost o.Chaos.Mp_run.channel.Mp.Ssmfp_mp.lost;
  chk "duplicated" dup o.Chaos.Mp_run.channel.Mp.Ssmfp_mp.duplicated;
  chk "reordered" reord o.Chaos.Mp_run.channel.Mp.Ssmfp_mp.reordered;
  chk "dropped while down" down
    o.Chaos.Mp_run.channel.Mp.Ssmfp_mp.dropped_while_down;
  match (snap, o.Chaos.Mp_run.snapshot) with
  | None, None -> ()
  | Some (cuts, consistent), Some s ->
      chk "cuts" cuts s.Chaos.Mp_run.cuts;
      chk "consistent cuts" consistent s.Chaos.Mp_run.consistent;
      Alcotest.(check bool) (label ^ ": cut verdict agrees") true
        s.Chaos.Mp_run.cut_agrees
  | _ -> Alcotest.fail (label ^ ": snapshot outcome presence mismatch")

let test_pin_chaos_zerofault () =
  chaos_pin ~schedule:"none" ~seed:21 ~per_processor:2 ~deliveries:3007
    ~max_pulse:112 ~fired:[] "chaos-zerofault" (Topology.Builders.ring 6)

(* Crash bursts on lossy windowed channels: [chaos_pin] also requires
   the recovery verdict. *)
let test_pin_chaos_crash () =
  chaos_pin ~schedule:"4:rc:2@lossy" ~seed:23 ~aftermath:2 ~channel_garbage:3
    ~per_processor:2 ~deliveries:3725 ~max_pulse:132
    ~fired:[ (4, 2) ] ~lost:655 ~dup:207 ~reord:134 ~down:9 "chaos-crash"
    (Topology.Builders.ring 6)

let test_pin_chaos_snapshot () =
  chaos_pin ~schedule:"3:rb:1" ~seed:25 ~aftermath:1 ~snapshot_every:400
    ~per_processor:2 ~deliveries:1942 ~max_pulse:89 ~fired:[ (3, 1) ]
    ~snap:(5, 5) "chaos-snapshot" (Topology.Builders.ring 5)

(* ---------------- window-mode end-to-end ---------------- *)

let win_run ?(spec = Harness.Fault.pristine) ?(channel_garbage = 0)
    ?(loss = 0.) ?(duplication = 0.) ?(reorder = 0.) ?synchrony ~window ~seed
    ~per_processor g =
  let n = Topology.Graph.n g in
  let rng = Prng.Splitmix.of_int ((seed * 1000) + 7) in
  let wl = Harness.Workload.uniform_random rng ~n ~per_processor in
  let t =
    Mp.Ssmfp_mp.create ~spec ~channel_garbage ~loss ~duplication ~reorder
      ~window ?synchrony ~seed g wl
  in
  let r = Mp.Ssmfp_mp.run t in
  (t, r)

let test_window_port_pristine () =
  let t, r = win_run ~window:4 ~seed:31 ~per_processor:2 (Topology.Builders.ring 5) in
  Alcotest.(check bool) "done" true (r.Mp.Ssmfp_mp.outcome = `All_done);
  Alcotest.(check bool) "SP" true r.Mp.Ssmfp_mp.verdict.Harness.Oracle.ok;
  Alcotest.(check int) "window accessor" 4 (Mp.Ssmfp_mp.window t)

(* Passing the default window explicitly must replay the default-window
   pin exactly: same deliveries, same trajectory digest. *)
let test_window_port_flaky () =
  let g = Topology.Builders.paper_figure2 in
  let t, r =
    win_run ~spec:Harness.Fault.adversarial ~loss:0.30 ~duplication:0.10
      ~reorder:0.20 ~channel_garbage:4 ~window:8 ~seed:12 ~per_processor:1 g
  in
  Alcotest.(check bool) "done under flaky channels" true
    (r.Mp.Ssmfp_mp.outcome = `All_done);
  Alcotest.(check bool) "SP" true r.Mp.Ssmfp_mp.verdict.Harness.Oracle.ok;
  Alcotest.(check bool) "window layer retransmitted" true
    (Mp.Ssmfp_mp.window_retransmits t > 0);
  Alcotest.(check int) "deliveries match the fig2-flaky pin" 1822
    r.Mp.Ssmfp_mp.channel_deliveries;
  Alcotest.(check string) "digest matches the fig2-flaky pin"
    "c5975421e21d5127e4220fd5847b4cb4" (fingerprint t g)

let test_window_port_partial_synchrony () =
  let _, r =
    win_run ~loss:0.15 ~duplication:0.05 ~reorder:0.10 ~window:4
      ~synchrony:(Mp.Synchrony.make ~delta:8 ~gst:2000)
      ~seed:7 ~per_processor:2 (Topology.Builders.ring 6)
  in
  Alcotest.(check bool) "done" true (r.Mp.Ssmfp_mp.outcome = `All_done);
  Alcotest.(check bool) "SP" true r.Mp.Ssmfp_mp.verdict.Harness.Oracle.ok

let test_window_zero_rejected () =
  List.iter
    (fun window ->
      Alcotest.(check bool) (Printf.sprintf "window %d raises" window) true
        (try
           ignore
             (Mp.Ssmfp_mp.create ~window (Topology.Builders.ring 3)
                (Harness.Workload.empty ~n:3));
           false
         with Invalid_argument _ -> true))
    [ 0; Mp.Window.max_size + 1 ]

(* [@win=8] spells out the default, so this replays the chaos-crash pin. *)
let test_window_chaos_crash () =
  let g = Topology.Builders.ring 6 in
  let n = Topology.Graph.n g in
  let rng = Prng.Splitmix.of_int ((23 * 1000) + 7) in
  let wl = Harness.Workload.uniform_random rng ~n ~per_processor:2 in
  let sch =
    match Chaos.Schedule.of_string "4:rc:2@lossy@win=8" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let o =
    Chaos.Mp_run.run ~spec:Harness.Fault.adversarial ~channel_garbage:3
      ~seed:23 ~aftermath:2 ~schedule:sch g wl
  in
  Alcotest.(check bool) "recovery verdict under window layer" true
    o.Chaos.Mp_run.report.Chaos.Recovery.ok;
  Alcotest.(check int) "deliveries match the chaos-crash pin" 3725
    o.Chaos.Mp_run.channel_deliveries

let test_window_chaos_snapshot () =
  let g = Topology.Builders.ring 5 in
  let n = Topology.Graph.n g in
  let rng = Prng.Splitmix.of_int ((25 * 1000) + 7) in
  let wl = Harness.Workload.uniform_random rng ~n ~per_processor:2 in
  let sch =
    match Chaos.Schedule.of_string "3:rb:1@win=4@ps=16:3000" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let o =
    Chaos.Mp_run.run ~spec:Harness.Fault.adversarial ~seed:25 ~aftermath:1
      ~snapshot_every:400 ~schedule:sch g wl
  in
  Alcotest.(check bool) "recovery verdict" true
    o.Chaos.Mp_run.report.Chaos.Recovery.ok;
  match o.Chaos.Mp_run.snapshot with
  | None -> Alcotest.fail "snapshot layer missing"
  | Some s ->
      Alcotest.(check int) "all cuts consistent" s.Chaos.Mp_run.cuts
        s.Chaos.Mp_run.consistent;
      Alcotest.(check bool) "cut verdict agrees" true s.Chaos.Mp_run.cut_agrees

(* ---------------- guard cache ---------------- *)

let show_choice = function
  | None -> "none"
  | Some (a : Ssmfp.Protocol.action) ->
      Printf.sprintf "%s@%d" (Ssmfp.Protocol.rule_name a.rule) a.dest

(* At every barrier, the action the port's guard cache chose must be
   the reference guards' [first_enabled] on the same view. Returns the
   count of barriers checked. *)
let check_barriers label t =
  let g = Mp.Ssmfp_mp.graph t in
  let checked = ref 0 in
  Mp.Ssmfp_mp.set_barrier_hook t (fun ~pid view choice ->
      incr checked;
      let reference = Ssmfp.Protocol.first_enabled g view ~p:pid in
      if choice <> reference then
        Alcotest.failf "%s: barrier %d at p%d: cache %s, reference %s" label
          !checked pid (show_choice choice) (show_choice reference));
  checked

let check_all_barriers label t checked =
  Alcotest.(check int)
    (label ^ ": every barrier checked against the reference guards")
    (Mp.Ssmfp_mp.sync_stats t).Mp.Ssmfp_mp.barriers !checked

let prof_counter prof name =
  Obs.Prof.counter_total prof (Obs.Prof.counter prof name)

(* Planted garbage snapshots: adoptions and foreign mirrors. *)
let test_cache_garbage () =
  let g = Topology.Builders.ring 6 in
  let prof = Obs.Prof.create ~tracks:1 () in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 1007) ~n:6
      ~per_processor:2
  in
  let t =
    Mp.Ssmfp_mp.create ~spec:Harness.Fault.adversarial ~channel_garbage:30
      ~seed:1 ~prof g wl
  in
  let checked = check_barriers "garbage" t in
  let r = Mp.Ssmfp_mp.run t in
  Alcotest.(check bool) "drained" true (r.Mp.Ssmfp_mp.outcome = `All_done);
  Alcotest.(check bool) "adopted" true
    ((Mp.Ssmfp_mp.sync_stats t).Mp.Ssmfp_mp.adoptions > 0);
  check_all_barriers "garbage" t checked;
  let barriers = (Mp.Ssmfp_mp.sync_stats t).Mp.Ssmfp_mp.barriers in
  Alcotest.(check int) "mp.guard_checks: |N[p]| = 3 array pairs per barrier"
    (3 * barriers)
    (prof_counter prof "mp.guard_checks");
  let recomputes = prof_counter prof "mp.guard_recomputes" in
  Alcotest.(check bool)
    "some destinations recomputed, fewer than n per barrier" true
    (recomputes > 0 && recomputes < 6 * barriers)

(* A crash burst on lossy channels, then a core overwritten mid-run
   through [set_core]: amnesia, republished mirrors and a foreign core. *)
let test_cache_crash () =
  let g = Topology.Builders.ring 6 in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 2007) ~n:6
      ~per_processor:2
  in
  let t =
    Mp.Ssmfp_mp.create ~spec:Harness.Fault.adversarial ~loss:0.15
      ~duplication:0.05 ~reorder:0.10 ~seed:2 g wl
  in
  let checked = check_barriers "crash" t in
  let pulse_at_least k = fun t -> Mp.Ssmfp_mp.max_pulse t >= k in
  ignore (Mp.Ssmfp_mp.drive ~stop:(pulse_at_least 8) t);
  Mp.Ssmfp_mp.crash_process t 1 ~down_for:40;
  Mp.Ssmfp_mp.crash_process t 4 ~down_for:40;
  ignore (Mp.Ssmfp_mp.drive ~stop:(pulse_at_least 20) t);
  let old = Mp.Ssmfp_mp.core t 2 in
  let corrupted =
    Harness.Fault.initial_states ~rng:(Prng.Splitmix.of_int 9)
      Harness.Fault.adversarial g ~workload:(Harness.Workload.empty ~n:6) 2
  in
  Mp.Ssmfp_mp.set_core t 2
    { corrupted with Ssmfp.State.outbox = old.Ssmfp.State.outbox };
  let r = Mp.Ssmfp_mp.run t in
  Alcotest.(check bool) "drained" true (r.Mp.Ssmfp_mp.outcome = `All_done);
  check_all_barriers "crash" t checked

(* An idle network republishes the same arrays every pulse, so every
   barrier after a process's first compares only its |N[p]| = 3 array
   pairs and recomputes no destination. [disturb], run at pulse 5, may
   write at process 2 in ways that change no array's contents. *)
let idle_ring6 ?(disturb = fun _ -> ()) label =
  let g = Topology.Builders.ring 6 in
  let prof = Obs.Prof.create ~tracks:1 () in
  let t =
    Mp.Ssmfp_mp.create ~seed:3 ~prof g (Harness.Workload.empty ~n:6)
  in
  let checked = check_barriers label t in
  let pulse_at_least k t = Mp.Ssmfp_mp.max_pulse t >= k in
  ignore (Mp.Ssmfp_mp.drive ~stop:(pulse_at_least 5) t);
  disturb t;
  ignore (Mp.Ssmfp_mp.drive ~stop:(pulse_at_least 10) t);
  check_all_barriers label t checked;
  let barriers = (Mp.Ssmfp_mp.sync_stats t).Mp.Ssmfp_mp.barriers in
  Alcotest.(check bool) "several barriers per process" true (barriers > 6 * 5);
  Alcotest.(check int) "mp.guard_checks: 3 array pairs per barrier"
    (3 * barriers)
    (prof_counter prof "mp.guard_checks");
  Alcotest.(check int) "mp.guard_recomputes: only each first barrier" (6 * 6)
    (prof_counter prof "mp.guard_recomputes")

let test_cache_hits () = idle_ring6 "idle"

(* A core replaced by one over equal copies of its arrays: new
   identities, the same elements, so the diff recomputes nothing. *)
let test_cache_equal_copy () =
  idle_ring6 "equal copy" ~disturb:(fun t ->
      let core = Mp.Ssmfp_mp.core t 2 in
      Mp.Ssmfp_mp.set_core t 2
        {
          core with
          Ssmfp.State.slots = Array.copy core.Ssmfp.State.slots;
          routing = Array.copy core.Ssmfp.State.routing;
        })

(* Crash–recovery amnesia loses the mirrors, not the core: the
   republished mirrors share the core's arrays, so nothing is
   recomputed. *)
let test_cache_amnesia () =
  idle_ring6 "amnesia" ~disturb:(fun t ->
      Mp.Ssmfp_mp.crash_process t 2 ~down_for:40)

(* [set_core] with chaos's Buffers, Queues and Crash domains, each
   rewriting every slot of a core mid-run, then drained: every barrier
   agrees with the reference guards. *)
let test_cache_set_core_domains () =
  let g = Topology.Builders.ring 6 in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 3007) ~n:6
      ~per_processor:2
  in
  let t = Mp.Ssmfp_mp.create ~spec:Harness.Fault.adversarial ~seed:4 g wl in
  let checked = check_barriers "set_core domains" t in
  let rng = Prng.Splitmix.of_int 11 in
  List.iteri
    (fun i domain ->
      ignore
        (Mp.Ssmfp_mp.drive
           ~stop:(fun t -> Mp.Ssmfp_mp.max_pulse t >= 6 * (i + 1))
           t);
      let p = 1 + (2 * i) in
      Mp.Ssmfp_mp.set_core t p
        (Chaos.Inject.corrupt_state rng g ~p ~domains:[ domain ]
           (Mp.Ssmfp_mp.core t p)))
    Chaos.Schedule.[ Buffers; Queues; Crash ];
  let r = Mp.Ssmfp_mp.run t in
  Alcotest.(check bool) "drained" true (r.Mp.Ssmfp_mp.outcome = `All_done);
  check_all_barriers "set_core domains" t checked

(* ---------------- pulses are rounds ---------------- *)

(* Lockstep differential against the state model: the port and
   [Harness.Runner] under the synchronous daemon start from the same
   configuration (same spec, seed and workload). Without channel garbage
   the port never adopts, so every pulse advance is a barrier and pulse
   k at p must execute exactly the move round k + 1 of the state model
   executes at p, whatever the channels lose, duplicate or reorder. *)

let journal_line (e : Obs.Journal.entry) =
  Obs.Json.to_string (Obs.Journal.entry_to_json { e with step = 0 })

(* Ghost ids come from one global counter, so messages generated in a
   different order get different ids. A process generates at most one
   message per round: rename each port ghost to the state-model ghost
   generated at the same (pid, round); planted ghosts keep their ids. *)
let rename_ghosts ~state port =
  let born = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.Journal.entry) ->
      match (e.kind, e.gid) with
      | Obs.Journal.Generated, Some g -> Hashtbl.replace born (e.pid, e.round) g
      | _ -> ())
    state;
  let renamed = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.Journal.entry) ->
      if e.kind = Obs.Journal.Generated then
        match (e.gid, Hashtbl.find_opt born (e.pid, e.round)) with
        | Some g, Some g' -> Hashtbl.replace renamed g g'
        | _ -> ())
    port;
  List.map
    (fun (e : Obs.Journal.entry) ->
      match e.gid with
      | Some g -> (
          match Hashtbl.find_opt renamed g with
          | Some g' -> { e with gid = Some g' }
          | None -> e)
      | None -> e)
    port

let sorted_latencies o = List.sort compare (Harness.Oracle.latencies o)

let lockstep ~spec ~channel ~window ~seed label g =
  let label =
    Printf.sprintf "%s %s w%d" label
      (Chaos.Schedule.channel_to_string channel)
      window
  in
  let n = Topology.Graph.n g in
  let wl =
    Harness.Workload.uniform_random
      (Prng.Splitmix.of_int ((seed * 1000) + 7))
      ~n ~per_processor:2
  in
  Ssmfp.Message.reset_ghost_counter ();
  let sink = Obs.Sink.create ~with_journal:true () in
  let sm =
    Harness.Runner.run ~obs:sink
      (Harness.Runner.config ~spec ~daemon:Harness.Runner.Synchronous ~seed g
         wl)
  in
  let state =
    match Obs.Sink.journal sink with
    | Some j -> Obs.Journal.entries j
    | None -> Alcotest.fail "sink without journal"
  in
  Ssmfp.Message.reset_ghost_counter ();
  let k = Chaos.Schedule.channel_knobs channel in
  let t =
    Mp.Ssmfp_mp.create ~spec ~loss:k.Chaos.Schedule.loss
      ~duplication:k.Chaos.Schedule.duplication
      ~reorder:k.Chaos.Schedule.reorder ~window ~seed g wl
  in
  let checked = check_barriers label t in
  let port = ref [] in
  Mp.Ssmfp_mp.set_event_hook t (fun ~pid ~pulse ev ->
      port :=
        Obs.Journal.of_protocol_event ~step:0 ~round:(pulse + 1) ~pid ev
        :: !port);
  (* Window 1 over flaky channels needs about 5M deliveries on
     torus:4x4: every pulse waits for the slowest of its channels. *)
  let r = Mp.Ssmfp_mp.run ~max_deliveries:20_000_000 t in
  Alcotest.(check bool) (label ^ ": state model quiescent") true
    (sm.Harness.Runner.outcome = `Quiescent);
  Alcotest.(check bool) (label ^ ": port drained") true
    (r.Mp.Ssmfp_mp.outcome = `All_done);
  let lines es = List.sort compare (List.map journal_line es) in
  let expected = lines state in
  let got = lines (rename_ghosts ~state (List.rev !port)) in
  (* The first line the sorted sides disagree on names a (pid, round)
     where the two models part. *)
  let rec first_diff = function
    | x :: xs, y :: ys when x = y -> first_diff (xs, ys)
    | x :: _, y :: _ -> Printf.sprintf "state %s / port %s" x y
    | x :: _, [] -> "state only: " ^ x
    | [], y :: _ -> "port only: " ^ y
    | [], [] -> "none"
  in
  Alcotest.(check string)
    (label ^ ": events per (pid, round), first difference")
    "none"
    (first_diff (expected, got));
  Alcotest.(check (list (float 0.)))
    (label ^ ": latency multiset")
    (sorted_latencies sm.Harness.Runner.oracle)
    (sorted_latencies r.Mp.Ssmfp_mp.oracle);
  Alcotest.(check int)
    (label ^ ": invalid deliveries")
    (Harness.Oracle.invalid_delivered_total sm.Harness.Runner.oracle)
    (Harness.Oracle.invalid_delivered_total r.Mp.Ssmfp_mp.oracle);
  let st = Mp.Ssmfp_mp.sync_stats t in
  Alcotest.(check int) (label ^ ": adoptions") 0 st.Mp.Ssmfp_mp.adoptions;
  let pulses = ref 0 in
  for p = 0 to n - 1 do
    pulses := !pulses + Mp.Ssmfp_mp.pulse_of t p
  done;
  Alcotest.(check int) (label ^ ": every pulse advance is a barrier") !pulses
    st.Mp.Ssmfp_mp.barriers;
  check_all_barriers label t checked

let lockstep_grid ~seed label g () =
  List.iter
    (fun (start, spec) ->
      List.iter
        (fun channel ->
          List.iter
            (fun window ->
              lockstep ~spec ~channel ~window ~seed (label ^ " " ^ start) g)
            [ 1; 8 ])
        Chaos.Schedule.[ Reliable; Lossy; Flaky ])
    Harness.Fault.[ ("pristine", pristine); ("adversarial", adversarial) ]

(* Positive control: planted garbage snapshots claim pulses the network
   never reached, so processes must adopt them. *)
let test_garbage_adopts () =
  let g = Topology.Builders.ring 6 in
  let prof = Obs.Prof.create ~tracks:1 () in
  let wl =
    Harness.Workload.uniform_random (Prng.Splitmix.of_int 1007) ~n:6
      ~per_processor:2
  in
  let t =
    Mp.Ssmfp_mp.create ~spec:Harness.Fault.adversarial ~channel_garbage:30
      ~seed:1 ~prof g wl
  in
  let r = Mp.Ssmfp_mp.run t in
  Alcotest.(check bool) "drained" true (r.Mp.Ssmfp_mp.outcome = `All_done);
  Alcotest.(check bool) "SP" true r.Mp.Ssmfp_mp.verdict.Harness.Oracle.ok;
  let st = Mp.Ssmfp_mp.sync_stats t in
  Alcotest.(check bool) "adopted" true (st.Mp.Ssmfp_mp.adoptions > 0);
  Alcotest.(check bool) "a jump of at least one pulse" true
    (st.Mp.Ssmfp_mp.max_jump >= 1);
  let counter name = Obs.Prof.counter_total prof (Obs.Prof.counter prof name) in
  Alcotest.(check int) "mp.barriers" st.Mp.Ssmfp_mp.barriers
    (counter "mp.barriers");
  Alcotest.(check int) "mp.adoptions" st.Mp.Ssmfp_mp.adoptions
    (counter "mp.adoptions")

(* ---------------- schedule grammar modifiers ---------------- *)

let sched s =
  match Chaos.Schedule.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s: %s" s e

let test_schedule_window_modifier () =
  let t = sched "none@lossy@win=8" in
  Alcotest.(check (option int)) "window parsed" (Some 8) t.Chaos.Schedule.window;
  Alcotest.(check bool) "channel kept" true
    (t.Chaos.Schedule.channel = Chaos.Schedule.Lossy);
  Alcotest.(check string) "round trip" "none@lossy@win=8"
    (Chaos.Schedule.to_string t)

let test_schedule_synchrony_modifier () =
  let t = sched "40:rb:2@flaky@ps=8:2000" in
  (match t.Chaos.Schedule.synchrony with
  | None -> Alcotest.fail "synchrony missing"
  | Some s ->
      Alcotest.(check int) "delta" 8 (Mp.Synchrony.delta s);
      Alcotest.(check int) "gst" 2000 (Mp.Synchrony.gst s));
  Alcotest.(check string) "round trip" "40:rb:2@flaky@ps=8:2000"
    (Chaos.Schedule.to_string t)

let test_schedule_modifier_order_canonicalized () =
  Alcotest.(check string) "any order in, canonical order out"
    "none@lossy@win=4@ps=16:500"
    (Chaos.Schedule.to_string (sched "none@win=4@ps=16:500@lossy"))

let test_schedule_window_default () =
  Alcotest.(check (option int)) "absent win= leaves the default" None
    (sched "none").Chaos.Schedule.window;
  let t = sched "none@win=8" in
  Alcotest.(check (option int)) "explicit win=8" (Some 8) t.Chaos.Schedule.window;
  Alcotest.(check string) "round trip" "none@win=8" (Chaos.Schedule.to_string t)

let test_schedule_defaults_unchanged () =
  let t = sched "none" in
  Alcotest.(check (option int)) "no window modifier" None t.Chaos.Schedule.window;
  Alcotest.(check bool) "async" true (t.Chaos.Schedule.synchrony = None);
  Alcotest.(check string) "none unchanged" "none" (Chaos.Schedule.to_string t);
  Alcotest.(check string) "historical strings unchanged" "40:rb:2+90:b:1@lossy"
    (Chaos.Schedule.to_string (sched "40:rb:2+90:b:1@lossy"));
  Alcotest.(check bool) "is_none sees modifiers" false
    (Chaos.Schedule.is_none (sched "none@win=8"))

let test_schedule_modifier_errors () =
  List.iter
    (fun s ->
      match Chaos.Schedule.of_string s with
      | Ok _ -> Alcotest.failf "%s should not parse" s
      | Error _ -> ())
    [
      "none@win=0"; "none@win=x"; "none@win=100000000"; "none@ps=8";
      "none@ps=0:5"; "none@bogus";
    ]

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "mp_runtime"
    [
      ( "fenwick",
        [
          Alcotest.test_case "single nonempty" `Quick test_fenwick_single_nonempty;
          Alcotest.test_case "last index" `Quick test_fenwick_last_index;
          Alcotest.test_case "flag flap" `Quick test_fenwick_flag_flap;
          Alcotest.test_case "draw sequence unchanged" `Quick
            test_fenwick_draw_sequence_unchanged;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "word and block boundaries" `Quick
            test_bitset_boundaries;
          Alcotest.test_case "allocates nothing" `Quick
            test_bitset_allocates_nothing;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo + lazy storage" `Quick
            test_ring_fifo_and_lazy_storage;
          Alcotest.test_case "growth while wrapped" `Quick
            test_ring_growth_while_wrapped;
          Alcotest.test_case "insert reorder" `Quick test_ring_insert_reorder;
          Alcotest.test_case "take vacates its slot" `Quick
            test_ring_take_vacates;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "cascade boundaries" `Quick
            test_wheel_cascade_boundaries;
          Alcotest.test_case "cancel + supersede" `Quick
            test_wheel_cancel_and_supersede;
          Alcotest.test_case "idle jump" `Quick test_wheel_idle_jump;
          Alcotest.test_case "re-arm from fire" `Quick test_wheel_rearm_from_fire;
          Alcotest.test_case "rejects past deadline" `Quick
            test_wheel_rejects_past;
        ] );
      ( "window",
        [
          Alcotest.test_case "in order, exactly once" `Quick
            test_window_in_order_exactly_once;
          Alcotest.test_case "reorder buffering + nak" `Quick
            test_window_reorder_buffering_and_nak;
          Alcotest.test_case "full window backlog" `Quick
            test_window_full_backlog_and_ack_release;
          Alcotest.test_case "send_latest conflation" `Quick
            test_window_send_latest_conflation;
          Alcotest.test_case "rto + nak retransmit" `Quick
            test_window_rto_and_nak_retransmit;
          Alcotest.test_case "epoch adoption" `Quick test_window_epoch_adoption;
          Alcotest.test_case "crash resync" `Quick test_window_crash_resync;
          Alcotest.test_case "sender reset" `Quick test_window_reset_sender;
        ] );
      ( "synchrony",
        [
          Alcotest.test_case "validation" `Quick test_synchrony_validation;
          Alcotest.test_case "post-GST reliable" `Quick
            test_synchrony_post_gst_reliable;
          Alcotest.test_case "pre-GST lossy" `Quick test_synchrony_pre_gst_lossy;
          Alcotest.test_case "bounded age" `Quick test_synchrony_bounded_age;
        ] );
      ( "differential",
        [
          Alcotest.test_case "reliable" `Quick test_differential_reliable;
          Alcotest.test_case "lossy" `Quick test_differential_lossy;
          Alcotest.test_case "duplicating" `Quick test_differential_duplicating;
          Alcotest.test_case "reordering" `Quick test_differential_reordering;
          Alcotest.test_case "flaky + crash" `Quick test_differential_flaky_crash;
          Alcotest.test_case "resends lossy" `Quick test_resends_lossy;
          Alcotest.test_case "resends flaky + crash" `Quick
            test_resends_flaky_crash;
          Alcotest.test_case "resends lossy + crash" `Quick
            test_resends_lossy_crash;
        ] );
      ( "golden pins",
        [
          Alcotest.test_case "ring5 pristine" `Quick test_pin_ring5_pristine;
          Alcotest.test_case "ring6 adversarial" `Quick
            test_pin_ring6_adversarial;
          Alcotest.test_case "path4 garbage" `Quick test_pin_path4_garbage;
          Alcotest.test_case "ring6 lossy" `Quick test_pin_ring6_lossy;
          Alcotest.test_case "fig2 flaky" `Quick test_pin_fig2_flaky;
          Alcotest.test_case "chaos zero-fault" `Quick test_pin_chaos_zerofault;
          Alcotest.test_case "chaos crash" `Quick test_pin_chaos_crash;
          Alcotest.test_case "chaos snapshot" `Quick test_pin_chaos_snapshot;
        ] );
      ( "window mode",
        [
          Alcotest.test_case "pristine ring5" `Quick test_window_port_pristine;
          Alcotest.test_case "flaky fig2" `Quick test_window_port_flaky;
          Alcotest.test_case "partial synchrony" `Quick
            test_window_port_partial_synchrony;
          Alcotest.test_case "chaos crash" `Quick test_window_chaos_crash;
          Alcotest.test_case "chaos snapshot" `Quick test_window_chaos_snapshot;
          Alcotest.test_case "window 0 rejected" `Quick test_window_zero_rejected;
        ] );
      ( "pulses are rounds",
        [
          Alcotest.test_case "ring5" `Quick
            (lockstep_grid ~seed:3 "ring5" (Topology.Builders.ring 5));
          Alcotest.test_case "path4" `Quick
            (lockstep_grid ~seed:4 "path4" (Topology.Builders.path 4));
          Alcotest.test_case "fig2" `Quick
            (lockstep_grid ~seed:5 "fig2" Topology.Builders.paper_figure2);
          Alcotest.test_case "torus4x4" `Quick
            (lockstep_grid ~seed:6 "torus4x4" (Topology.Builders.torus ~rows:4 ~cols:4));
          Alcotest.test_case "garbage adopts" `Quick test_garbage_adopts;
        ] );
      ( "guard cache",
        [
          Alcotest.test_case "garbage ring6" `Quick test_cache_garbage;
          Alcotest.test_case "crash burst" `Quick test_cache_crash;
          Alcotest.test_case "hits when idle" `Quick test_cache_hits;
          Alcotest.test_case "equal copy when idle" `Quick
            test_cache_equal_copy;
          Alcotest.test_case "crash amnesia when idle" `Quick
            test_cache_amnesia;
          Alcotest.test_case "set_core chaos domains" `Quick
            test_cache_set_core_domains;
        ] );
      ( "schedule modifiers",
        [
          Alcotest.test_case "win=" `Quick test_schedule_window_modifier;
          Alcotest.test_case "win= absent" `Quick test_schedule_window_default;
          Alcotest.test_case "ps=" `Quick test_schedule_synchrony_modifier;
          Alcotest.test_case "order canonicalized" `Quick
            test_schedule_modifier_order_canonicalized;
          Alcotest.test_case "defaults unchanged" `Quick
            test_schedule_defaults_unchanged;
          Alcotest.test_case "errors" `Quick test_schedule_modifier_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fenwick_matches_sorted_reference; prop_ring_matches_list_model ]
      );
    ]
