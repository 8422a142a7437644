(* End-to-end correctness of every join method: on random clustered
   datasets (where similar pairs actually exist), STR, SET and PartSJ must
   return exactly the nested-loop ground truth, for all thresholds. *)

module Tree = Tsj_tree.Tree
module Edit_op = Tsj_tree.Edit_op
module Prng = Tsj_util.Prng
module Types = Tsj_join.Types
module Nested_loop = Tsj_join.Nested_loop
module Str_join = Tsj_baselines.Str_join
module Set_join = Tsj_baselines.Set_join
module Binary_branch = Tsj_baselines.Binary_branch
module Partsj = Tsj_core.Partsj

(* A clustered dataset: [n_base] independent random trees, each with a few
   perturbed near-copies, so the join result is non-trivial at small tau. *)
let clustered_dataset ~seed ~n_base ~copies ~max_size ~max_edits =
  let rng = Prng.create seed in
  let acc = ref [] in
  for _ = 1 to n_base do
    let base = Gen.random_tree rng (1 + Prng.int rng max_size) in
    acc := base :: !acc;
    for _ = 1 to copies do
      let k = Prng.int_in rng 0 max_edits in
      let _, copy = Edit_op.random_script rng ~labels:Gen.default_alphabet k base in
      acc := copy :: !acc
    done
  done;
  Array.of_list !acc

let sorted_triples output =
  List.sort compare (List.map (fun p -> (p.Types.i, p.Types.j, p.Types.distance)) output.Types.pairs)

(* Every method decides its candidates with [Bounds.verify]: STR, SET and
   PRT with the cascade, whose counters partition the candidates, and NL
   with the kernel alone. *)
let check_verifier_counters name out =
  let s = out.Types.stats in
  if name = "NL" then
    Alcotest.(check int) "NL: kernel_verified = candidates" s.Types.n_candidates
      s.Types.cascade.Types.kernel_verified
  else
    Alcotest.(check int)
      (name ^ ": cascade counters = candidates")
      s.Types.n_candidates
      (Types.cascade_total s.Types.cascade)

let check_method_against_ground_truth name join_fn trees tau =
  let truth = Nested_loop.join ~trees ~tau () in
  let out = join_fn ~trees ~tau in
  Alcotest.(check (list (triple int int int)))
    (Printf.sprintf "%s = ground truth (tau=%d, %d trees)" name tau (Array.length trees))
    (sorted_triples truth) (sorted_triples out);
  (* every filter method verifies no fewer pairs than it reports and no
     more than the window *)
  Alcotest.(check bool) "candidates >= results" true
    (out.Types.stats.Types.n_candidates >= out.Types.stats.Types.n_results);
  Alcotest.(check bool) "candidates <= window" true
    (out.Types.stats.Types.n_candidates <= out.Types.stats.Types.n_window_pairs);
  check_verifier_counters name out;
  check_verifier_counters "NL" truth

let methods =
  [
    ("STR", fun ~trees ~tau -> Str_join.join ~trees ~tau ());
    ("SET", fun ~trees ~tau -> Set_join.join ~trees ~tau ());
    ("PRT", fun ~trees ~tau -> Partsj.join ~trees ~tau ());
    ( "PRT-random",
      fun ~trees ~tau -> Partsj.join ~partitioning:(Partsj.Random 7) ~trees ~tau () );
  ]

let test_all_methods_small_dataset () =
  let trees = clustered_dataset ~seed:11 ~n_base:12 ~copies:3 ~max_size:14 ~max_edits:3 in
  List.iter
    (fun tau ->
      List.iter (fun (name, fn) -> check_method_against_ground_truth name fn trees tau)
        methods)
    [ 0; 1; 2; 3; 4 ]

let test_all_methods_bigger_trees () =
  let trees = clustered_dataset ~seed:23 ~n_base:8 ~copies:3 ~max_size:40 ~max_edits:4 in
  List.iter
    (fun tau ->
      List.iter (fun (name, fn) -> check_method_against_ground_truth name fn trees tau)
        methods)
    [ 1; 3 ]

let test_all_methods_tiny_trees () =
  (* Trees smaller than delta exercise the sub-δ overflow path of PartSJ. *)
  let rng = Prng.create 5 in
  let trees = Array.init 30 (fun _ -> Gen.random_tree rng (1 + Prng.int rng 5)) in
  List.iter
    (fun tau ->
      List.iter (fun (name, fn) -> check_method_against_ground_truth name fn trees tau)
        methods)
    [ 0; 1; 2; 3 ]

let test_identical_trees () =
  let one = Gen.random_tree (Prng.create 3) 12 in
  let trees = Array.make 6 one in
  let out = Partsj.join ~trees ~tau:0 () in
  (* all 15 unordered pairs are duplicates *)
  Alcotest.(check int) "all pairs found" 15 out.Types.stats.Types.n_results;
  List.iter
    (fun p -> Alcotest.(check int) "distance 0" 0 p.Types.distance)
    out.Types.pairs;
  (* The cascade accepts every duplicate without a kernel run; the
     nested loop runs the kernel on each. *)
  List.iter
    (fun (name, out, early, kernel) ->
      let c = out.Types.stats.Types.cascade in
      Alcotest.(check (pair int int))
        (name ^ ": (early, kernel)")
        (early, kernel)
        (c.Types.early_accepted, c.Types.kernel_verified))
    [
      ("PRT", out, 15, 0);
      ("STR", Str_join.join ~trees ~tau:0 (), 15, 0);
      ("SET", Set_join.join ~trees ~tau:0 (), 15, 0);
      ("NL", Nested_loop.join ~trees ~tau:0 (), 0, 15);
    ]

let test_empty_and_singleton () =
  let out = Partsj.join ~trees:[||] ~tau:2 () in
  Alcotest.(check int) "empty: no pairs" 0 out.Types.stats.Types.n_results;
  let out = Partsj.join ~trees:[| Gen.random_tree (Prng.create 1) 5 |] ~tau:2 () in
  Alcotest.(check int) "singleton: no pairs" 0 out.Types.stats.Types.n_results;
  Alcotest.check_raises "negative tau" (Invalid_argument "Partsj.join: negative threshold")
    (fun () -> ignore (Partsj.join ~trees:[||] ~tau:(-1) ()))

let test_pair_indices_are_original () =
  (* Shuffle-resistant: result indices must refer to the input order. *)
  let a = Gen.random_tree (Prng.create 2) 20 in
  let b =
    let _, b = Edit_op.random_script (Prng.create 9) ~labels:Gen.default_alphabet 1 a in
    b
  in
  let unrelated = Gen.random_tree (Prng.create 77) 6 in
  let trees = [| unrelated; a; b |] in
  let out = Partsj.join ~trees ~tau:2 () in
  (match out.Types.pairs with
  | [ p ] ->
    Alcotest.(check int) "i" 1 p.Types.i;
    Alcotest.(check int) "j" 2 p.Types.j;
    Alcotest.(check int) "distance" (Ted_reference.distance a b) p.Types.distance
  | l -> Alcotest.failf "expected exactly one pair, got %d" (List.length l));
  ignore unrelated

let test_probe_stats_sane () =
  let trees = clustered_dataset ~seed:31 ~n_base:10 ~copies:2 ~max_size:16 ~max_edits:2 in
  let out, ps = Partsj.join_with_probe_stats ~trees ~tau:2 () in
  Alcotest.(check bool) "matched <= probed" true (ps.Partsj.n_matched <= ps.Partsj.n_probed);
  Alcotest.(check bool) "indexed subgraphs > 0" true (ps.Partsj.n_subgraphs_indexed > 0);
  Alcotest.(check bool) "results found" true (out.Types.stats.Types.n_results > 0)

let prop_partsj_equals_nested_loop =
  Gen.qtest ~count:60 "PartSJ = nested loop on random forests"
    (QCheck.make
       ~print:(fun (seed, tau) -> Printf.sprintf "seed=%d tau=%d" seed tau)
       (fun st -> (Random.State.int st 1000000, Random.State.int st 4)))
    (fun (seed, tau) ->
      let trees =
        clustered_dataset ~seed ~n_base:6 ~copies:2 ~max_size:12 ~max_edits:3
      in
      let truth = Nested_loop.join ~trees ~tau () in
      let prt = Partsj.join ~trees ~tau () in
      Types.equal_results truth prt)

let prop_str_set_equal_nested_loop =
  Gen.qtest ~count:40 "STR and SET = nested loop on random forests"
    (QCheck.make
       ~print:(fun (seed, tau) -> Printf.sprintf "seed=%d tau=%d" seed tau)
       (fun st -> (Random.State.int st 1000000, Random.State.int st 4)))
    (fun (seed, tau) ->
      let trees =
        clustered_dataset ~seed ~n_base:6 ~copies:2 ~max_size:12 ~max_edits:3
      in
      let truth = Nested_loop.join ~trees ~tau () in
      Types.equal_results truth (Str_join.join ~trees ~tau ())
      && Types.equal_results truth (Set_join.join ~trees ~tau ()))

let test_exact_verification_ablation () =
  (* The join verifies with the banded kernel; its pairs and distances
     must equal those of an all-pairs loop over the reference TED. *)
  let trees = clustered_dataset ~seed:61 ~n_base:10 ~copies:2 ~max_size:16 ~max_edits:3 in
  let n = Array.length trees in
  List.iter
    (fun tau ->
      let exact = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let d = Ted_reference.distance trees.(i) trees.(j) in
          if d <= tau then exact := (i, j, d) :: !exact
        done
      done;
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "banded = exact verification (tau=%d)" tau)
        (List.sort compare !exact)
        (sorted_triples (Partsj.join ~trees ~tau ())))
    [ 0; 1; 2; 3 ]

let test_constrained_metric_join () =
  (* With the constrained metric (>= TED) the same index remains a valid
     filter; all methods must agree on the constrained-join result too. *)
  let trees = clustered_dataset ~seed:55 ~n_base:10 ~copies:2 ~max_size:12 ~max_edits:2 in
  List.iter
    (fun tau ->
      let metric = Tsj_ted.Bounds.Constrained in
      let truth = Nested_loop.join ~metric ~trees ~tau () in
      check_verifier_counters "NL" truth;
      List.iter
        (fun (name, out) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s constrained join (tau=%d)" name tau)
            true
            (Types.equal_results truth out);
          check_verifier_counters name out)
        [
          ("STR", Str_join.join ~metric ~trees ~tau ());
          ("SET", Set_join.join ~metric ~trees ~tau ());
          ("PRT", Partsj.join ~metric ~trees ~tau ());
        ];
      (* the constrained result is a subset of the TED result *)
      let ted_truth = Nested_loop.join ~trees ~tau () in
      List.iter
        (fun p ->
          Alcotest.(check bool) "constrained pair is a TED pair" true
            (List.exists
               (fun q -> q.Types.i = p.Types.i && q.Types.j = p.Types.j)
               ted_truth.Types.pairs))
        truth.Types.pairs)
    [ 1; 2; 3 ]

(* Binary branch properties (the SET filter's foundation). *)

let prop_bib_bound =
  Gen.qtest ~count:200 "BIB <= 5 * TED" (Gen.arb_tree_pair ~max_size:12 ())
    (fun (a, b) ->
      let x1 = Binary_branch.bag_of_tree a in
      let x2 = Binary_branch.bag_of_tree b in
      Binary_branch.distance x1 x2 <= 5 * Ted_reference.distance a b)

let prop_bib_bag_size =
  Gen.qtest "binary branch bag has |T| elements" (Gen.arb_tree ~max_size:20 ())
    (fun x ->
      Tsj_util.Multiset.size (Binary_branch.bag_of_tree x) = Tree.size x)

let test_bib_paper_example () =
  (* Figure 3 reports BIB(T1, T2) = 6 reading its two trees directly as
     binary trees.  The SET transform (as in Yang et al.) first converts a
     general tree to its LC-RS binary form; under that convention the same
     two trees share the branches (1,2,ε) and (3,ε,ε), giving BIB = 4 —
     still consistent with BIB <= 5 * TED = 15. *)
  let t1 = Tsj_tree.Bracket.of_string_exn "{1{2}{1{3}}}" in
  let t2 = Tsj_tree.Bracket.of_string_exn "{1{2{1}{3}}}" in
  let x1 = Binary_branch.bag_of_tree t1 in
  let x2 = Binary_branch.bag_of_tree t2 in
  Alcotest.(check int) "BIB = 4 under LC-RS" 4 (Binary_branch.distance x1 x2);
  Alcotest.(check int) "lower bound = 1" 1 (Binary_branch.lower_bound x1 x2)

let test_bib_decode () =
  let tree = Tsj_tree.Bracket.of_string_exn "{a{b}}" in
  let bag = Binary_branch.bag_of_tree tree in
  let ids = Tsj_util.Multiset.to_array bag in
  Array.iter
    (fun id ->
      let node, _, _ = Binary_branch.decode id in
      Alcotest.(check bool) "decodable root label" true
        (Tsj_tree.Label.name node = "a" || Tsj_tree.Label.name node = "b"))
    ids

(* [verify_time_s] times the cascade and the kernels only: a join whose
   trees differ in size by more than τ has no candidate pair, so it
   reports no verification time however long the preprocessing took. *)
let test_verify_time_without_candidates () =
  let labels = Gen.default_alphabet in
  (* A root over [size - 1] leaves: exactly [size] nodes. *)
  let star size =
    Tree.node labels.(0)
      (List.init (size - 1) (fun k -> Tree.leaf labels.(k mod Array.length labels)))
  in
  let trees = Array.init 40 (fun i -> star (10 + (5 * i))) in
  let out = Partsj.join ~trees ~tau:2 () in
  Alcotest.(check int) "no candidates" 0 out.Types.stats.Types.n_candidates;
  Alcotest.(check (float 0.0)) "verify time" 0.0 out.Types.stats.Types.verify_time_s

(* Words a 1-domain join promotes from the minor to the major heap, per
   input node, on 400 generated synthetic trees at τ = 3.  State the join
   holds from the parallel prep until the sweep reaches each tree is
   promoted: with every tree's LC-RS form kept from prep to sweep this
   read 15.16; with the form derived from the postorder when the sweep
   reaches the tree it reads 11.05 (the same in every run).  The bound
   is that reading plus 5%. *)
let test_join_promoted_words_per_node () =
  let trees = Tsj_datagen.Profiles.instantiate Tsj_datagen.Profiles.synthetic ~seed:37 ~n:400 in
  let nodes = Array.fold_left (fun acc x -> acc + Tree.size x) 0 trees in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  ignore (Partsj.join ~domains:1 ~trees ~tau:3 ());
  Gc.minor ();
  let per_node = ((Gc.quick_stat ()).Gc.promoted_words -. before) /. float_of_int nodes in
  let bound = 11.05 *. 1.05 in
  if per_node > bound then
    Alcotest.failf "Partsj.join promotes %.2f words per input node (bound %.2f)" per_node bound

let suite =
  [
    Alcotest.test_case "all methods, small clustered dataset" `Slow
      test_all_methods_small_dataset;
    Alcotest.test_case "all methods, bigger trees" `Slow test_all_methods_bigger_trees;
    Alcotest.test_case "all methods, tiny trees (sub-delta)" `Quick
      test_all_methods_tiny_trees;
    Alcotest.test_case "identical trees, tau=0" `Quick test_identical_trees;
    Alcotest.test_case "empty/singleton/negative" `Quick test_empty_and_singleton;
    Alcotest.test_case "pair indices are original" `Quick test_pair_indices_are_original;
    Alcotest.test_case "probe stats sanity" `Quick test_probe_stats_sane;
    prop_partsj_equals_nested_loop;
    prop_str_set_equal_nested_loop;
    Alcotest.test_case "banded vs exact verification" `Quick
      test_exact_verification_ablation;
    Alcotest.test_case "constrained-metric join" `Quick test_constrained_metric_join;
    prop_bib_bound;
    prop_bib_bag_size;
    Alcotest.test_case "binary branch paper fig. 3" `Quick test_bib_paper_example;
    Alcotest.test_case "binary branch decode" `Quick test_bib_decode;
    Alcotest.test_case "no candidates, no verify time" `Quick
      test_verify_time_without_candidates;
    Alcotest.test_case "join promoted words per input node" `Quick
      test_join_promoted_words_per_node;
  ]
