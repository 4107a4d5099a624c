(* Tests for the fair choice queue and the color allocator. *)

let g5 = Topology.Builders.star 5 (* center 0, leaves 1..4 *)

let test_normalize_repairs_garbage () =
  (* center's members: {0, 1, 2, 3, 4} *)
  let q = Ssmfp.Choice.normalize g5 ~p:0 [ 7; 2; 2; -1; 4 ] in
  Alcotest.(check (list int)) "repaired" [ 2; 4; 0; 1; 3 ] q;
  Alcotest.(check bool) "well formed" true (Ssmfp.Choice.is_well_formed g5 ~p:0 q)

let test_normalize_identity_on_wellformed () =
  let q = [ 3; 0; 1; 2; 4 ] in
  Alcotest.(check (list int)) "kept" q (Ssmfp.Choice.normalize g5 ~p:0 q)

let test_normalize_empty () =
  let q = Ssmfp.Choice.normalize g5 ~p:0 [] in
  Alcotest.(check (list int)) "ascending members" [ 0; 1; 2; 3; 4 ] q

let test_normalize_leaf () =
  (* leaf 2's members: {2, 0} *)
  let q = Ssmfp.Choice.normalize g5 ~p:2 [ 0; 3; 2 ] in
  Alcotest.(check (list int)) "leaf queue" [ 0; 2 ] q

let test_select_first_candidate () =
  let q = [ 3; 0; 1; 2; 4 ] in
  Alcotest.(check (option int)) "first candidate" (Some 1)
    (Ssmfp.Choice.select ~candidate:(fun x -> x = 1 || x = 2) q);
  Alcotest.(check (option int)) "none" None
    (Ssmfp.Choice.select ~candidate:(fun _ -> false) q)

let test_serve_rotates () =
  let q = [ 3; 0; 1; 2; 4 ] in
  Alcotest.(check (list int)) "served to back" [ 3; 0; 2; 4; 1 ]
    (Ssmfp.Choice.serve 1 q);
  Alcotest.(check (list int)) "absent id appended" [ 3; 0; 1; 2; 4; 9 ]
    (Ssmfp.Choice.serve 9 q)

let test_rotation_bounds_waiting () =
  (* a candidate can be passed at most (queue length - 1) times before
     being served, whatever the adversary's interleaving of candidates *)
  let members = [ 0; 1; 2; 3; 4 ] in
  let queue = ref members in
  let target = 4 in
  let served = ref 0 and passes = ref 0 in
  for round = 0 to 99 do
    (* adversary: everyone is always a candidate *)
    match Ssmfp.Choice.select ~candidate:(fun _ -> true) !queue with
    | Some s ->
        if s = target then served := 1 + !served
        else if !served = 0 then incr passes;
        queue := Ssmfp.Choice.serve s !queue;
        ignore round
    | None -> ()
  done;
  Alcotest.(check bool) "passed at most 4 times before first service" true
    (!passes <= List.length members - 1);
  Alcotest.(check int) "served 20 times in 100 rounds" 20 !served

(* Color allocation *)

let delta = Topology.Graph.max_degree g5

let colors_env assignments q =
  match List.assoc_opt q assignments with
  | Some c -> Some (Ssmfp.Message.fresh_invalid ~at:q ~last:q ~color:c "m")
  | None -> None

let test_color_picks_free () =
  (* center 0 with neighbors 1..4 holding colors 0,1,2,3 -> only 4 free *)
  let env = colors_env [ (1, 0); (2, 1); (3, 2); (4, 3) ] in
  Alcotest.(check int) "picks the only free color" 4
    (Ssmfp.Color.pick g5 ~delta ~neighbor_buf_r:env ~p:0)

let test_color_smallest_free () =
  let env = colors_env [ (1, 0); (2, 2) ] in
  Alcotest.(check int) "smallest free" 1
    (Ssmfp.Color.pick g5 ~delta ~neighbor_buf_r:env ~p:0);
  Alcotest.(check (list int)) "free set" [ 1; 3; 4 ]
    (Ssmfp.Color.free_colors g5 ~delta ~neighbor_buf_r:env ~p:0)

let test_color_all_free () =
  let env _ = None in
  Alcotest.(check int) "0 when unconstrained" 0
    (Ssmfp.Color.pick g5 ~delta ~neighbor_buf_r:env ~p:0)

let test_color_out_of_range_ignored () =
  (* colors outside 0..delta in corrupted buffers must not crash *)
  let env = colors_env [ (1, 99); (2, -3) ] in
  Alcotest.(check int) "ignores out-of-range" 0
    (Ssmfp.Color.pick g5 ~delta ~neighbor_buf_r:env ~p:0)

(* Properties *)

let prop_normalize_always_permutation =
  QCheck.Test.make ~name:"normalize yields a permutation of N_p u {p}"
    ~count:300
    QCheck.(pair (int_range 0 4) (list (int_range (-3) 8)))
    (fun (p, q) ->
      let q' = Ssmfp.Choice.normalize g5 ~p q in
      Ssmfp.Choice.is_well_formed g5 ~p q')

let prop_serve_preserves_membership =
  QCheck.Test.make ~name:"serve keeps the queue a permutation" ~count:300
    QCheck.(pair (int_range 0 4) (int_range 0 4))
    (fun (p, s) ->
      let q = Ssmfp.Choice.normalize g5 ~p [] in
      let members = List.mem s q in
      let q' = Ssmfp.Choice.serve s q in
      (not members) || Ssmfp.Choice.is_well_formed g5 ~p q')

let prop_color_exists =
  (* pigeonhole: whatever the neighbors hold, a color is free *)
  QCheck.Test.make ~name:"a free color always exists" ~count:300
    QCheck.(list_of_size (QCheck.Gen.return 4) (int_range 0 4))
    (fun colors ->
      let assignments = List.mapi (fun i c -> (i + 1, c)) colors in
      let env = colors_env assignments in
      let c = Ssmfp.Color.pick g5 ~delta ~neighbor_buf_r:env ~p:0 in
      c >= 0 && c <= delta && not (List.mem c (List.map snd assignments)))

(* [Choice.normalize] as first written, over the polymorphic [List.mem],
   a hash table and [List.sort compare]: the int-only version must give
   the same queue on every graph, process and queue. *)
let normalize_reference g ~p queue =
  let allowed = p :: Topology.Graph.neighbors g p in
  let seen = Hashtbl.create 8 in
  let keep x =
    if List.mem x allowed && not (Hashtbl.mem seen x) then begin
      Hashtbl.replace seen x ();
      true
    end
    else false
  in
  let kept = List.filter keep queue in
  let missing = List.filter (fun x -> not (Hashtbl.mem seen x)) allowed in
  kept @ List.sort compare missing

let normalize_graphs =
  [|
    g5;
    Topology.Builders.ring 6;
    Topology.Builders.path 4;
    Topology.Builders.star 7;
    Topology.Builders.torus ~rows:3 ~cols:3;
    Topology.Builders.complete 5;
    Topology.Builders.paper_figure2;
  |]

let prop_normalize_matches_reference =
  QCheck.Test.make ~name:"normalize = the reference normalize" ~count:1000
    QCheck.(
      triple (int_bound (Array.length normalize_graphs - 1)) (int_bound 99)
        (list (int_range (-2) 10)))
    (fun (gi, pi, queue) ->
      let g = normalize_graphs.(gi) in
      let p = pi mod Topology.Graph.n g in
      Ssmfp.Choice.normalize g ~p queue = normalize_reference g ~p queue)

(* Protocol.choice against its reference, select over the normalized
   queue. Each member of N_p ∪ {p} feeds p for d with probability 1/2;
   a neighbor that does not feed may still hold a message routed
   elsewhere, and p may request a generation for another destination.
   Queues hold duplicates and out-of-range ids. *)
let choice_graphs =
  [
    g5;
    Topology.Builders.ring 6;
    Topology.Builders.path 4;
    Topology.Builders.torus ~rows:3 ~cols:3;
    Topology.Builders.paper_figure2;
  ]

let prop_choice_matches_reference =
  QCheck.Test.make ~name:"choice = select over the normalized queue"
    ~count:500
    QCheck.(
      triple (int_bound 4) (int_bound 100_000) (list (int_range (-2) 12)))
    (fun (gi, seed, queue) ->
      let g = List.nth choice_graphs gi in
      let n = Topology.Graph.n g in
      let rng = Prng.Splitmix.of_int seed in
      let p = Prng.Splitmix.int rng n and d = Prng.Splitmix.int rng n in
      let states = Test_util.config g [] in
      let feeders =
        List.filter
          (fun _ -> Prng.Splitmix.bool rng)
          (p :: Topology.Graph.neighbors g p)
      in
      List.iter
        (fun q ->
          let feeds = List.mem q feeders in
          if q = p then
            (* a non-feeding p: request down, or up for another
               destination, or up with an empty outbox *)
            let request, outbox =
              if feeds then (true, [ (d, "m") ])
              else
                match Prng.Splitmix.int rng 3 with
                | 0 -> (false, [ (d, "m") ])
                | 1 -> (true, [ ((d + 1) mod n, "m") ])
                | _ -> (true, [])
            in
            states.(p) <- { (states.(p)) with Ssmfp.State.request; outbox }
          else if feeds || Prng.Splitmix.bool rng then begin
            Test_util.set_buf states q d `E
              (Some (Ssmfp.Message.fresh_invalid ~at:q ~last:q ~color:0 "m"));
            let routing = Array.copy states.(q).Ssmfp.State.routing in
            routing.(d) <-
              { Routing.Selfstab.dist = 1; via = (if feeds then p else q) };
            states.(q) <- Ssmfp.State.with_routing states.(q) routing
          end)
        (p :: Topology.Graph.neighbors g p);
      let sl = Ssmfp.State.slot states.(p) d in
      states.(p) <- Ssmfp.State.with_slot states.(p) d { sl with Ssmfp.State.queue };
      let net = Test_util.net_of g states in
      let normalized = Ssmfp.Choice.normalize g ~p queue in
      let expected =
        Ssmfp.Choice.select ~candidate:(fun x -> List.mem x feeders) normalized
      in
      Ssmfp.Protocol.choice g net ~p ~d = expected
      && expected
         = Ssmfp.Choice.select
             ~candidate:(Ssmfp.Protocol.can_feed g net ~p ~d)
             normalized)

let () =
  Alcotest.run "choice & color"
    [
      ( "choice",
        [
          Alcotest.test_case "normalize repairs" `Quick test_normalize_repairs_garbage;
          Alcotest.test_case "normalize identity" `Quick
            test_normalize_identity_on_wellformed;
          Alcotest.test_case "normalize empty" `Quick test_normalize_empty;
          Alcotest.test_case "normalize leaf" `Quick test_normalize_leaf;
          Alcotest.test_case "select" `Quick test_select_first_candidate;
          Alcotest.test_case "serve rotates" `Quick test_serve_rotates;
          Alcotest.test_case "rotation bounds waiting" `Quick
            test_rotation_bounds_waiting;
        ] );
      ( "color",
        [
          Alcotest.test_case "picks free" `Quick test_color_picks_free;
          Alcotest.test_case "smallest free" `Quick test_color_smallest_free;
          Alcotest.test_case "all free" `Quick test_color_all_free;
          Alcotest.test_case "out of range ignored" `Quick
            test_color_out_of_range_ignored;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_normalize_always_permutation;
            prop_normalize_matches_reference;
            prop_serve_preserves_membership;
            prop_color_exists;
            prop_choice_matches_reference;
          ] );
    ]
