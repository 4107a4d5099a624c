(* Unit and property tests for the SplitMix64 PRNG. *)

let check = Alcotest.check
let int_t = Alcotest.int

let test_determinism () =
  let a = Prng.Splitmix.of_int 42 and b = Prng.Splitmix.of_int 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.Splitmix.next_int64 a)
      (Prng.Splitmix.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.Splitmix.of_int 1 and b = Prng.Splitmix.of_int 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Splitmix.next_int64 a = Prng.Splitmix.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_is_independent () =
  let a = Prng.Splitmix.of_int 7 in
  ignore (Prng.Splitmix.next_int64 a);
  let b = Prng.Splitmix.copy a in
  let xa = Prng.Splitmix.next_int64 a in
  (* advancing a does not disturb b's next draw *)
  let xb = Prng.Splitmix.next_int64 b in
  check Alcotest.int64 "copy replays" xa xb

let test_split_diverges () =
  let a = Prng.Splitmix.of_int 7 in
  let b = Prng.Splitmix.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Splitmix.next_int64 a = Prng.Splitmix.next_int64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_int_bounds () =
  let rng = Prng.Splitmix.of_int 3 in
  for bound = 1 to 50 do
    for _ = 1 to 50 do
      let x = Prng.Splitmix.int rng bound in
      Alcotest.(check bool) "in range" true (x >= 0 && x < bound)
    done
  done

let test_int_rejects_bad_bound () =
  let rng = Prng.Splitmix.of_int 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix.int: bound <= 0")
    (fun () -> ignore (Prng.Splitmix.int rng 0))

let test_int_in () =
  let rng = Prng.Splitmix.of_int 4 in
  for _ = 1 to 200 do
    let x = Prng.Splitmix.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_int_covers_all_values () =
  let rng = Prng.Splitmix.of_int 5 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Prng.Splitmix.int rng 8) <- true
  done;
  Alcotest.(check bool) "all residues seen" true (Array.for_all Fun.id seen)

let test_float_range () =
  let rng = Prng.Splitmix.of_int 6 in
  for _ = 1 to 500 do
    let x = Prng.Splitmix.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0. && x < 2.5)
  done

let test_bernoulli_extremes () =
  let rng = Prng.Splitmix.of_int 7 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 false" false (Prng.Splitmix.bernoulli rng 0.);
    Alcotest.(check bool) "p=1 true" true (Prng.Splitmix.bernoulli rng 1.)
  done

let test_bernoulli_rate () =
  let rng = Prng.Splitmix.of_int 8 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Prng.Splitmix.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_choose () =
  let rng = Prng.Splitmix.of_int 9 in
  for _ = 1 to 100 do
    let x = Prng.Splitmix.choose rng [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem x [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Splitmix.choose: empty list")
    (fun () -> ignore (Prng.Splitmix.choose rng []))

let test_shuffle_is_permutation () =
  let rng = Prng.Splitmix.of_int 10 in
  let xs = List.init 20 Fun.id in
  for _ = 1 to 20 do
    let ys = Prng.Splitmix.shuffle rng xs in
    check
      Alcotest.(list int_t)
      "same multiset" xs
      (List.sort compare ys)
  done

let test_sample_without_replacement () =
  let rng = Prng.Splitmix.of_int 11 in
  for _ = 1 to 50 do
    let s = Prng.Splitmix.sample_without_replacement rng 5 10 in
    check int_t "size" 5 (List.length s);
    check int_t "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter
      (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 10))
      s
  done

let test_nonempty_subset () =
  let rng = Prng.Splitmix.of_int 12 in
  for _ = 1 to 100 do
    let s = Prng.Splitmix.nonempty_subset rng [ 1; 2; 3; 4 ] in
    Alcotest.(check bool) "non-empty" true (s <> []);
    Alcotest.(check bool) "subset" true
      (List.for_all (fun x -> List.mem x [ 1; 2; 3; 4 ]) s)
  done

(* Stream pins: every draw function's first outputs for five seeds,
   recorded from the boxed-[int64] implementation before the stream moved
   into an unboxed byte buffer. [int] at [big_bound] (about 2^61.4, so a
   63-bit draw lands past the last whole block one time in three) takes
   the rejection path; the next [next_int64] then pins the stream
   position. Floats are pinned by their bits. *)
let big_bound = (max_int / 3 * 2) + 1

let transcript seed =
  let module S = Prng.Splitmix in
  let t = S.of_int seed in
  let out = ref [] in
  let add s = out := s :: !out in
  let i64 x = add (Printf.sprintf "%Lx" x) in
  let fl x = add (Printf.sprintf "%Lx" (Int64.bits_of_float x)) in
  let ints xs = add (String.concat "," (List.map string_of_int xs)) in
  for _ = 1 to 3 do
    i64 (S.next_int64 t)
  done;
  List.iter
    (fun b -> add (string_of_int (S.int t b)))
    [ 1; 2; 7; 1000; 1 lsl 30; max_int ];
  for _ = 1 to 6 do
    add (string_of_int (S.int t big_bound))
  done;
  i64 (S.next_int64 t);
  fl (S.float t 1.0);
  fl (S.float t 2.5);
  fl (S.float t 2.5);
  for _ = 1 to 4 do
    add (string_of_bool (S.bool t))
  done;
  for _ = 1 to 4 do
    add (string_of_bool (S.bernoulli t 0.3))
  done;
  add (string_of_bool (S.bernoulli t 0.0));
  add (string_of_bool (S.bernoulli t 1.0));
  let c = S.split t in
  i64 (S.next_int64 c);
  i64 (S.next_int64 c);
  i64 (S.next_int64 t);
  let g = S.split c in
  i64 (S.next_int64 g);
  let k = S.copy t in
  i64 (S.next_int64 k);
  i64 (S.next_int64 k);
  i64 (S.next_int64 t);
  i64 (S.next_int64 t);
  for _ = 1 to 3 do
    add (string_of_int (S.choose t [ 10; 11; 12; 13; 14; 15; 16 ]))
  done;
  add (string_of_int (S.choose_array t [| 20; 21; 22; 23 |]));
  ints (S.shuffle t (List.init 10 Fun.id));
  let a = Array.init 6 Fun.id in
  S.shuffle_in_place t a;
  ints (Array.to_list a);
  add (string_of_int (S.int_in t (-5) 5));
  ints (S.sample_without_replacement t 3 10);
  ints (S.subset t ~p:0.5 (List.init 8 Fun.id));
  ints (S.nonempty_subset t [ 1; 2; 3 ]);
  i64 (S.next_int64 t);
  List.rev !out

let pinned =
  [
    ( 0,
      [ "e220a8397b1dcdaf"; "6e789e6aa1b965f4"; "6c45d188009454f"; "0"; "1";
        "1"; "456"; "613111198"; "2266080580496311649"; "582314294304961497";
        "1758133890145534738"; "2046059198456965612"; "1707696731361383850";
        "1434984185583263359"; "1887981106604058546"; "d81a8d2b5a4485ac";
        "3feb602c05620173"; "3ffa688da6d3c5ee"; "40029736e4f513cb"; "false";
        "true"; "true"; "false"; "true"; "false"; "false"; "false"; "false";
        "true"; "e3b2a42fdda169fb"; "934edeac96f4f056"; "5582d37111ac529";
        "ff20b5e9f297c871"; "d254741f599dc6f7"; "69630f7593d108c3";
        "d254741f599dc6f7"; "69630f7593d108c3"; "14"; "10"; "13"; "20";
        "3,9,8,2,7,0,1,4,6,5"; "4,0,1,3,2,5"; "2"; "6,8,0"; "3,4,6,7"; "1,3";
        "9e60398c8d8553c0" ] );
    ( 1,
      [ "910a2dec89025cc1"; "beeb8da1658eec67"; "f893a2eefb32555e"; "0"; "0";
        "1"; "522"; "152289978"; "2633352815946178260"; "653096235313429765";
        "2509559956131093332"; "1121604228648436789"; "1814658457261909658";
        "946613732161323305"; "1540625848015299869"; "a534a6a6b7fd0b63";
        "3fea175a1b4ae575"; "3ffb44a8af779b6d"; "4001afbde4550eb4"; "false";
        "false"; "true"; "false"; "true"; "true"; "false"; "false"; "false";
        "true"; "7f41309066cad17d"; "edbadb3c7f1c2400"; "990cd70b12c5d084";
        "f394570cba87a976"; "962b1967c90789ba"; "65ace2685a072c6d";
        "962b1967c90789ba"; "65ace2685a072c6d"; "12"; "10"; "12"; "22";
        "3,7,9,5,2,8,4,6,1,0"; "2,0,5,1,4,3"; "-1"; "4,1,9"; "0,2,6"; "3";
        "99545b4ca73e0f3" ] );
    ( 42,
      [ "bdd732262feb6e95"; "28efe333b266f103"; "47526757130f9f52"; "0"; "1";
        "2"; "462"; "256841682"; "3135310438806241002"; "2630032850507075884";
        "1889885825713147103"; "1472565325112311220"; "1660786037497297096";
        "1721818780734852144"; "3060555364002503875"; "341452c54d7c33f2";
        "3fba83d752f35eb8"; "3ff3d1e8009e83f0"; "3fcde597f15ad282"; "false";
        "false"; "true"; "true"; "false"; "true"; "true"; "false"; "false";
        "true"; "6a5a22381fc3b3d2"; "11ca8f08678522a6"; "b1b59f1b53585e43";
        "86631346b423f7dd"; "ca376da14213d975"; "d72c1692509d2c5e";
        "ca376da14213d975"; "d72c1692509d2c5e"; "10"; "15"; "16"; "21";
        "4,1,7,9,3,5,8,0,2,6"; "0,5,2,4,3,1"; "3"; "4,3,7"; "0,5,6"; "2,3";
        "9f87c032b7d877b3" ] );
    ( -1,
      [ "e4d971771b652c20"; "e99ff867dbf682c9"; "382ff84cb27281e9"; "0"; "1";
        "2"; "482"; "298795058"; "2485797345912358467"; "112353042671515406";
        "133166573664397194"; "64364061667843437"; "1920370709506047072";
        "691608913952917128"; "1771509300996043881"; "2310bd4abe96ea03";
        "3fdb17b7d708ef88"; "3fed27ba865ffea6"; "3ffae6ff0030518c"; "true";
        "false"; "false"; "false"; "false"; "false"; "false"; "true"; "false";
        "true"; "2c4b38d42d46cff9"; "2545dcbeaeeac671"; "69d22506dd4562e7";
        "f8a4d154ff3a0766"; "f32a883a6fe8c041"; "9464fd3ad6ffc7e6";
        "f32a883a6fe8c041"; "9464fd3ad6ffc7e6"; "16"; "12"; "16"; "21";
        "4,6,7,3,9,1,2,5,8,0"; "0,4,5,1,2,3"; "5"; "6,7,3"; "0,2,5,7";
        "1,2,3"; "d803afa0b3d758fa" ] );
    ( max_int,
      [ "43df0885536978a6"; "101018cc4a4cadfd"; "f7123db96bb11521"; "0"; "0";
        "5"; "687"; "289585339"; "1124378152941392265"; "2124687166862334097";
        "489441540611652120"; "2509961409263284324"; "2094932805870061093";
        "1519291983786825334"; "2762857968950808071"; "ad69de818b8a9f7a";
        "3feb273bdb256a2c"; "3ff6046e2bf8cefd"; "3fe3a900714c70e7"; "false";
        "false"; "false"; "true"; "false"; "false"; "false"; "false"; "false";
        "true"; "584f60ad4feccee6"; "578298633c1cb225"; "d0fa60718a9cc04f";
        "fd18f312c2ce039f"; "502588050539d4fa"; "a6127a7e4cf18d75";
        "502588050539d4fa"; "a6127a7e4cf18d75"; "15"; "10"; "12"; "23";
        "8,1,7,0,9,4,3,5,6,2"; "0,1,5,3,4,2"; "4"; "2,1,4"; "0,3,5,6,7"; "3";
        "6a2a67298ae5e810" ] );
  ]

let test_pinned_streams () =
  List.iter
    (fun (seed, expected) ->
      check
        Alcotest.(list string)
        (Printf.sprintf "seed %d" seed)
        expected (transcript seed))
    pinned

(* [int]'s rejection rule restated on raw outputs: draw r = top 63 bits,
   keep r mod b unless r's block runs past [Int64.max_int]. The bound is
   large enough that some draws are redrawn, and the stream positions
   must agree afterwards. *)
let test_int_rejection_redraws () =
  let redrawn = ref 0 in
  List.iter
    (fun seed ->
      let rng = Prng.Splitmix.of_int seed in
      let raw = Prng.Splitmix.copy rng in
      let b = Int64.of_int big_bound in
      for _ = 1 to 20 do
        let rec reference () =
          let r = Int64.shift_right_logical (Prng.Splitmix.next_int64 raw) 1 in
          let v = Int64.rem r b in
          if Int64.(sub r v) > Int64.(sub (sub max_int b) 1L) then begin
            incr redrawn;
            reference ()
          end
          else Int64.to_int v
        in
        let want = reference () in
        check int_t "same value" want (Prng.Splitmix.int rng big_bound)
      done;
      check Alcotest.int64 "same position" (Prng.Splitmix.next_int64 raw)
        (Prng.Splitmix.next_int64 rng))
    [ 0; 1; 42; -1; max_int ];
  Alcotest.(check bool) "the rejection path ran" true (!redrawn > 0)

(* A draw keeps its int64 arithmetic unboxed: a million [int] draws
   allocate nothing. *)
let test_int_allocates_nothing () =
  let rng = Prng.Splitmix.of_int 5 in
  let sink = ref 0 in
  let words =
    Test_util.minor_words (fun () ->
        for i = 1 to 1_000_000 do
          sink := !sink lxor Prng.Splitmix.int rng (1 + (i land 1023))
        done)
  in
  Alcotest.(check (float 0.)) "minor words for 1M draws" 0. words;
  ignore (Sys.opaque_identity !sink)

(* Property-based *)

let prop_int_in_range =
  QCheck.Test.make ~name:"int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.Splitmix.of_int seed in
      let x = Prng.Splitmix.int rng bound in
      x >= 0 && x < bound)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Prng.Splitmix.of_int seed in
      List.sort compare (Prng.Splitmix.shuffle rng xs) = List.sort compare xs)

let prop_subset_preserves_order =
  QCheck.Test.make ~name:"subset preserves relative order" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Prng.Splitmix.of_int seed in
      let xs = List.mapi (fun i x -> (i, x)) xs in
      let ys = Prng.Splitmix.subset rng ~p:0.5 xs in
      List.sort compare ys = ys)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy independence" `Quick test_copy_is_independent;
          Alcotest.test_case "split divergence" `Quick test_split_diverges;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_int_rejects_bad_bound;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "int coverage" `Quick test_int_covers_all_values;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "nonempty subset" `Quick test_nonempty_subset;
          Alcotest.test_case "pinned streams" `Quick test_pinned_streams;
          Alcotest.test_case "int rejection redraws" `Quick
            test_int_rejection_redraws;
          Alcotest.test_case "int allocates nothing" `Quick
            test_int_allocates_nothing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_int_in_range; prop_shuffle_permutation; prop_subset_preserves_order ]
      );
    ]
