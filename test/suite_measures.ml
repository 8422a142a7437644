(* Tests for the pq-gram alternative measure and top-k search. *)

module Tree = Tsj_tree.Tree
module Bracket = Tsj_tree.Bracket
module Prng = Tsj_util.Prng
module Edit_op = Tsj_tree.Edit_op
module Pq_gram = Tsj_baselines.Pq_gram
module Incremental = Tsj_core.Incremental
module Zhang_shasha = Tsj_ted.Zhang_shasha

let t s = Bracket.of_string_exn s

let test_pq_profile_size () =
  (* one gram per leaf, c + q - 1 per internal node with c children *)
  let check tree ~p ~q expected =
    Alcotest.(check int)
      (Printf.sprintf "|profile p=%d q=%d|" p q)
      expected
      (Pq_gram.size (Pq_gram.profile ~p ~q tree))
  in
  (* {a{b}{c}}: internal a (2 children), leaves b, c *)
  check (t "{a{b}{c}}") ~p:2 ~q:3 (2 + (2 + 3 - 1));
  check (t "{a{b}{c}}") ~p:1 ~q:1 (2 + 2);
  check (t "{a}") ~p:2 ~q:3 1;
  check (t "{a{b{c}}}") ~p:3 ~q:2 (1 + (1 + 1) + (1 + 1))

let prop_pq_profile_size =
  Gen.qtest "pq-gram profile size formula" (Gen.arb_tree ~max_size:25 ()) (fun x ->
      let expected = ref 0 in
      Tree.iter_postorder
        (fun (n : Tree.t) ->
          match n.Tree.children with
          | [] -> incr expected
          | cs -> expected := !expected + List.length cs + 3 - 1)
        x;
      Pq_gram.size (Pq_gram.profile ~p:2 ~q:3 x) = !expected)

let test_pq_distance_zero_on_equal () =
  let a = t "{a{b{c}}{d}}" in
  let pa = Pq_gram.profile a in
  Alcotest.(check int) "distance 0" 0 (Pq_gram.distance pa pa);
  Alcotest.(check (float 1e-9)) "normalized 0" 0.0 (Pq_gram.normalized_distance pa pa)

let test_pq_distance_sensitivity () =
  (* a single leaf rename changes a bounded number of grams *)
  let a = t "{a{b}{c}{d}}" in
  let b = t "{a{b}{x}{d}}" in
  let d = Pq_gram.distance (Pq_gram.profile a) (Pq_gram.profile b) in
  Alcotest.(check bool) "positive" true (d > 0);
  (* the renamed leaf appears in its own gram + q windows of the parent *)
  Alcotest.(check bool) "bounded" true (d <= 2 * (1 + 3))

let test_pq_p1_q1_is_label_bag () =
  let a = t "{a{b}{c}}" and b = t "{a{b}{z}}" in
  let d = Pq_gram.distance (Pq_gram.profile ~p:1 ~q:1 a) (Pq_gram.profile ~p:1 ~q:1 b) in
  (* 1,1-grams pair each node with one child (or the dummy for leaves);
     with q = 1 an internal node with c children has c windows.  Check
     symmetry and positivity here. *)
  Alcotest.(check bool) "positive" true (d > 0);
  Alcotest.(check int) "symmetric" d
    (Pq_gram.distance (Pq_gram.profile ~p:1 ~q:1 b) (Pq_gram.profile ~p:1 ~q:1 a))

let test_pq_validation () =
  Alcotest.check_raises "p" (Invalid_argument "Pq_gram.profile: p must be >= 1")
    (fun () -> ignore (Pq_gram.profile ~p:0 (t "{a}")));
  Alcotest.check_raises "q" (Invalid_argument "Pq_gram.profile: q must be >= 1")
    (fun () -> ignore (Pq_gram.profile ~q:0 (t "{a}")))

let prop_pq_normalized_range =
  Gen.qtest "pq normalized distance in [0,1]" (Gen.arb_tree_pair ~max_size:15 ())
    (fun (a, b) ->
      let d = Pq_gram.normalized_distance (Pq_gram.profile a) (Pq_gram.profile b) in
      d >= 0.0 && d <= 1.0)

let prop_pq_triangle_violation_allowed =
  (* pq-gram distance is a pseudo-metric on profiles: symmetric and zero
     on equal profiles.  Check those two properties. *)
  Gen.qtest "pq distance symmetric" (Gen.arb_tree_pair ~max_size:15 ()) (fun (a, b) ->
      let pa = Pq_gram.profile a and pb = Pq_gram.profile b in
      Pq_gram.distance pa pb = Pq_gram.distance pb pa)

(* --- top-k search --- *)

let test_nearest_basic () =
  let base = t "{a{b}{c}{d{e}}}" in
  let v1 = Edit_op.apply base (Edit_op.Rename { node = 0; label = Tsj_tree.Label.intern "zz1" }) in
  let v2 = Edit_op.apply v1 (Edit_op.Rename { node = 1; label = Tsj_tree.Label.intern "zz2" }) in
  let far = t "{q{w{x{y{z{w{q}}}}}}}" in
  let trees = [| far; v2; base; v1 |] in
  let idx = Incremental.create ~tau:3 () in
  Array.iter (Incremental.insert idx) trees;
  (match Incremental.nearest ~k:2 idx base with
  | [ (i1, d1); (i2, d2) ] ->
    Alcotest.(check int) "self first" 2 i1;
    Alcotest.(check int) "self distance" 0 d1;
    Alcotest.(check int) "then v1" 3 i2;
    Alcotest.(check int) "v1 distance" 1 d2
  | l -> Alcotest.failf "expected 2 hits, got %d" (List.length l));
  Alcotest.(check (list (pair int int))) "k=0" [] (Incremental.nearest ~k:0 idx base);
  Alcotest.check_raises "negative k" (Invalid_argument "Incremental.nearest: negative k")
    (fun () -> ignore (Incremental.nearest ~k:(-1) idx base))

let test_nearest_matches_brute_force () =
  let rng = Prng.create 44 in
  let acc = ref [] in
  for _ = 1 to 12 do
    let base = Gen.random_tree rng (4 + Prng.int rng 10) in
    acc := base :: !acc;
    let _, copy = Edit_op.random_script rng ~labels:Gen.default_alphabet 2 base in
    acc := copy :: !acc
  done;
  let trees = Array.of_list !acc in
  let tau = 3 in
  let idx = Incremental.create ~tau () in
  Array.iter (Incremental.insert idx) trees;
  for _ = 1 to 10 do
    let q = trees.(Prng.int rng (Array.length trees)) in
    let brute =
      Array.to_list (Array.mapi (fun i x -> (i, Zhang_shasha.distance q x)) trees)
      |> List.filter (fun (_, d) -> d <= tau)
      |> List.sort (fun (i1, d1) (i2, d2) ->
             if d1 <> d2 then compare d1 d2 else compare i1 i2)
    in
    List.iter
      (fun k ->
        let expected = List.filteri (fun i _ -> i < k) brute in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "nearest k=%d" k)
          expected
          (Incremental.nearest ~k idx q))
      [ 1; 3; 100 ]
  done

let suite =
  [
    Alcotest.test_case "pq profile sizes" `Quick test_pq_profile_size;
    prop_pq_profile_size;
    Alcotest.test_case "pq distance zero on equal" `Quick test_pq_distance_zero_on_equal;
    Alcotest.test_case "pq distance sensitivity" `Quick test_pq_distance_sensitivity;
    Alcotest.test_case "pq p=1 q=1" `Quick test_pq_p1_q1_is_label_bag;
    Alcotest.test_case "pq validation" `Quick test_pq_validation;
    prop_pq_normalized_range;
    prop_pq_triangle_violation_allowed;
    Alcotest.test_case "nearest basic" `Quick test_nearest_basic;
    Alcotest.test_case "nearest = brute force" `Quick test_nearest_matches_brute_force;
  ]
