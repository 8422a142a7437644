module Tree = Tsj_tree.Tree
module Prng = Tsj_util.Prng
module Generator = Tsj_datagen.Generator
module Decay = Tsj_datagen.Decay
module Profiles = Tsj_datagen.Profiles

let test_capacity () =
  Alcotest.(check int) "f=1" 5 (Generator.capacity ~max_fanout:1 ~max_depth:5);
  Alcotest.(check int) "f=2,d=3" 7 (Generator.capacity ~max_fanout:2 ~max_depth:3);
  Alcotest.(check int) "f=3,d=5" 121 (Generator.capacity ~max_fanout:3 ~max_depth:5);
  Alcotest.(check int) "f=2,d=1" 1 (Generator.capacity ~max_fanout:2 ~max_depth:1);
  (* saturates instead of overflowing *)
  Alcotest.(check bool) "huge saturates" true
    (Generator.capacity ~max_fanout:10 ~max_depth:30 <= 1 lsl 30)

let test_clamp_size () =
  let p = { Generator.default with Generator.max_fanout = 2; max_depth = 3 } in
  (* capacity 7, safe cap 7 (7/10 = 0) *)
  Alcotest.(check int) "clamped" 7 (Generator.clamp_size p 100);
  Alcotest.(check int) "small passes" 3 (Generator.clamp_size p 3);
  Alcotest.(check int) "at least 1" 1 (Generator.clamp_size p 0)

let test_generator_respects_caps () =
  let rng = Prng.create 1 in
  List.iter
    (fun (f, d) ->
      let p =
        { Generator.default with Generator.max_fanout = f; max_depth = d; avg_size = 50 }
      in
      for _ = 1 to 50 do
        let t = Generator.random_tree rng p in
        Alcotest.(check bool)
          (Printf.sprintf "degree <= %d" f)
          true
          (Tree.degree t <= f);
        Alcotest.(check bool)
          (Printf.sprintf "depth <= %d" d)
          true
          (Tree.depth t <= d)
      done)
    [ (2, 4); (3, 5); (6, 8); (1, 10) ]

let test_generator_size_range () =
  let rng = Prng.create 2 in
  let p = { Generator.default with Generator.size_jitter = 0.25; avg_size = 80 } in
  for _ = 1 to 50 do
    let t = Generator.random_tree rng p in
    let s = Tree.size t in
    Alcotest.(check bool) "size in jitter range" true (s >= 60 && s <= 100)
  done

let test_generator_determinism () =
  let a = Generator.random_trees (Prng.create 7) Generator.default 10 in
  let b = Generator.random_trees (Prng.create 7) Generator.default 10 in
  Array.iteri (fun i t -> Alcotest.(check bool) "same trees" true (Tree.equal t b.(i))) a

let test_generator_validation () =
  let bad p msg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Generator.random_tree (Prng.create 0) p))
  in
  bad { Generator.default with Generator.max_fanout = 0 } "Generator: max_fanout must be >= 1";
  bad { Generator.default with Generator.max_depth = 0 } "Generator: max_depth must be >= 1";
  bad { Generator.default with Generator.n_labels = 0 } "Generator: n_labels must be >= 1";
  bad { Generator.default with Generator.avg_size = 0 } "Generator: avg_size must be >= 1";
  bad { Generator.default with Generator.size_jitter = 1.5 }
    "Generator: size_jitter must be in [0,1)"

let test_generator_label_alphabet () =
  let p = { Generator.default with Generator.n_labels = 4 } in
  let labels = Generator.alphabet p in
  Alcotest.(check int) "alphabet size" 4 (Array.length labels);
  let rng = Prng.create 3 in
  let t = Generator.random_tree rng p in
  List.iter
    (fun l -> Alcotest.(check bool) "label from alphabet" true (Array.mem l labels))
    (Tree.label_set t)

let test_mother_sampling () =
  let rng = Prng.create 11 in
  let m = Generator.Mother.create rng Generator.default in
  let mother_tree = Generator.Mother.tree m in
  let msize = Tree.size mother_tree in
  Alcotest.(check bool) "mother bigger than avg" true (msize >= Generator.default.Generator.avg_size);
  for _ = 1 to 20 do
    let target = 10 + Prng.int rng 60 in
    let s = Generator.Mother.sample rng m ~target_size:target in
    Alcotest.(check int) "exact sample size" (min target msize) (Tree.size s);
    (* the sample's root is the mother's root *)
    Alcotest.(check int) "same root label" mother_tree.Tree.label s.Tree.label;
    (* every sampled subtree path exists in the mother: depth can't exceed *)
    Alcotest.(check bool) "depth bounded by mother" true (Tree.depth s <= Tree.depth mother_tree)
  done

let test_decay_zero_is_identity () =
  let rng = Prng.create 5 in
  let t = Generator.random_tree rng Generator.default in
  let labels = Generator.alphabet Generator.default in
  let t' = Decay.perturb rng ~dz:0.0 ~labels t in
  Alcotest.(check bool) "dz=0 no change" true (Tree.equal t t')

let test_decay_ted_bounded () =
  (* decay applies Binomial(n, dz) ops, so TED is at most that count; with
     dz = 1 every node draws a change. *)
  let rng = Prng.create 6 in
  let labels = Generator.alphabet Generator.default in
  for _ = 1 to 10 do
    let t = Gen.random_tree rng 15 in
    let t' = Decay.perturb rng ~dz:0.3 ~labels t in
    Alcotest.(check bool) "ted bounded by size" true
      (Ted_reference.distance t t' <= Tree.size t)
  done

let test_decay_validation () =
  let t = Tree.leaf (Tsj_tree.Label.intern "x") in
  Alcotest.check_raises "dz out of range" (Invalid_argument "Decay.perturb: dz must be in [0,1]")
    (fun () -> ignore (Decay.perturb (Prng.create 0) ~dz:1.5 ~labels:Gen.default_alphabet t));
  Alcotest.check_raises "empty labels" (Invalid_argument "Decay.perturb: empty label alphabet")
    (fun () -> ignore (Decay.perturb (Prng.create 0) ~dz:0.5 ~labels:[||] t))

let test_profiles_registry () =
  Alcotest.(check int) "five profiles" 5 (List.length Profiles.all);
  Alcotest.(check bool) "find swissprot" true (Profiles.find "SwissProt" <> None);
  Alcotest.(check bool) "find redundant" true (Profiles.find "redundant" <> None);
  Alcotest.(check bool) "find unknown" true (Profiles.find "nope" = None)

let test_profiles_deterministic () =
  let a = Profiles.instantiate Profiles.sentiment ~seed:9 ~n:30 in
  let b = Profiles.instantiate Profiles.sentiment ~seed:9 ~n:30 in
  Array.iteri (fun i t -> Alcotest.(check bool) "same" true (Tree.equal t b.(i))) a;
  let c = Profiles.instantiate Profiles.sentiment ~seed:10 ~n:30 in
  Alcotest.(check bool) "different seed differs" true
    (Array.exists2 (fun x y -> not (Tree.equal x y)) a c)

let test_profiles_statistics () =
  (* Each stand-in should land near its namesake's published statistics. *)
  let check_profile profile expected_avg_size tolerance =
    let trees = Profiles.instantiate profile ~seed:3 ~n:300 in
    let sizes = Array.map (fun t -> float_of_int (Tree.size t)) trees in
    let avg = Tsj_util.Statistics.mean sizes in
    Alcotest.(check bool)
      (Printf.sprintf "%s avg size %.1f ~ %d" profile.Profiles.name avg expected_avg_size)
      true
      (abs_float (avg -. float_of_int expected_avg_size)
      <= tolerance *. float_of_int expected_avg_size)
  in
  check_profile Profiles.swissprot 62 0.15;
  check_profile Profiles.treebank 45 0.15;
  check_profile Profiles.sentiment 37 0.15;
  check_profile Profiles.synthetic 80 0.15

let test_profiles_have_similar_pairs () =
  (* The duplication model must produce a non-trivial join result —
     otherwise the benchmarks degenerate. *)
  List.iter
    (fun profile ->
      let trees = Profiles.instantiate profile ~seed:4 ~n:150 in
      let out = Tsj_core.Partsj.join ~trees ~tau:2 () in
      Alcotest.(check bool)
        (profile.Profiles.name ^ " has similar pairs")
        true
        (out.Tsj_join.Types.stats.Tsj_join.Types.n_results > 0))
    Profiles.all

let test_profiles_empty_and_zero () =
  Alcotest.(check int) "n=0" 0 (Array.length (Profiles.instantiate Profiles.synthetic ~seed:1 ~n:0));
  Alcotest.check_raises "negative n"
    (Invalid_argument "Profiles.instantiate: negative cardinality") (fun () ->
      ignore (Profiles.instantiate Profiles.synthetic ~seed:1 ~n:(-1)))

let test_describe () =
  let trees = Profiles.instantiate Profiles.synthetic ~seed:5 ~n:20 in
  let d = Profiles.describe trees in
  Alcotest.(check bool) "mentions count" true
    (String.length d > 0 && String.sub d 0 2 = "20");
  Alcotest.(check string) "empty dataset" "empty dataset" (Profiles.describe [||])

let suite =
  [
    Alcotest.test_case "capacity" `Quick test_capacity;
    Alcotest.test_case "clamp_size" `Quick test_clamp_size;
    Alcotest.test_case "generator respects caps" `Quick test_generator_respects_caps;
    Alcotest.test_case "generator size range" `Quick test_generator_size_range;
    Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
    Alcotest.test_case "generator validation" `Quick test_generator_validation;
    Alcotest.test_case "generator label alphabet" `Quick test_generator_label_alphabet;
    Alcotest.test_case "mother sampling" `Quick test_mother_sampling;
    Alcotest.test_case "decay dz=0 identity" `Quick test_decay_zero_is_identity;
    Alcotest.test_case "decay TED bounded" `Quick test_decay_ted_bounded;
    Alcotest.test_case "decay validation" `Quick test_decay_validation;
    Alcotest.test_case "profiles registry" `Quick test_profiles_registry;
    Alcotest.test_case "profiles deterministic" `Quick test_profiles_deterministic;
    Alcotest.test_case "profiles statistics" `Quick test_profiles_statistics;
    Alcotest.test_case "profiles yield similar pairs" `Quick test_profiles_have_similar_pairs;
    Alcotest.test_case "profiles n=0 / n<0" `Quick test_profiles_empty_and_zero;
    Alcotest.test_case "describe" `Quick test_describe;
  ]
