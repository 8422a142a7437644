module Tree = Tsj_tree.Tree
module Bracket = Tsj_tree.Bracket
module Traversal = Tsj_tree.Traversal
module Edit_op = Tsj_tree.Edit_op
module String_edit = Tsj_ted.String_edit
module Zhang_shasha = Tsj_ted.Zhang_shasha
module Bounds = Tsj_ted.Bounds
module Ted = Tsj_ted.Ted
module Reference = Ted_reference
module Naive = Ted_reference.Naive

let t s = Bracket.of_string_exn s

let arr_of_string s = Array.map Char.code (Array.init (String.length s) (String.get s))

(* --- string edit distance --- *)

let test_sed_known () =
  let check a b expect =
    let a' = arr_of_string a and b' = arr_of_string b in
    Alcotest.(check int) (Printf.sprintf "reference sed(%s,%s)" a b) expect (Reference.sed a' b');
    Alcotest.(check int)
      (Printf.sprintf "banded sed(%s,%s)" a b)
      expect
      (String_edit.bounded_distance a' b' (String.length a + String.length b))
  in
  check "" "" 0;
  check "abc" "" 3;
  check "" "abc" 3;
  check "kitten" "sitting" 3;
  check "flaw" "lawn" 2;
  check "abc" "abc" 0;
  check "abc" "acb" 2

let arb_int_arrays =
  QCheck.(
    pair
      (array_of_size Gen.(int_bound 15) (int_bound 4))
      (array_of_size Gen.(int_bound 15) (int_bound 4)))

let prop_sed_banded_consistent =
  Gen.qtest "banded sed consistent with exact" arb_int_arrays (fun (a, b) ->
      let d = Reference.sed a b in
      let ok = ref true in
      for k = 0 to 8 do
        let bd = String_edit.bounded_distance a b k in
        if d <= k then begin
          if bd <> d then ok := false
        end
        else if bd <> k + 1 then ok := false;
        if String_edit.within a b k <> (d <= k) then ok := false
      done;
      !ok)

let test_sed_banded_negative () =
  Alcotest.(check bool) "within negative" false (String_edit.within [| 1 |] [| 1 |] (-1));
  Alcotest.check_raises "bounded negative"
    (Invalid_argument "String_edit.bounded_distance: negative threshold") (fun () ->
      ignore (String_edit.bounded_distance [| 1 |] [| 1 |] (-1)))

(* Every pair of strings of <= 6 symbols over {a, b} and <= 5 over
   {a, b, c}, empty strings included, at thresholds 0..7 (past both
   lengths): the diagonal-transition kernel against the full DP. *)
let test_sed_banded_exhaustive () =
  let strings ~symbols ~max_len =
    let rec of_len n =
      if n = 0 then [ [] ]
      else List.concat_map (fun s -> List.init symbols (fun c -> c :: s)) (of_len (n - 1))
    in
    Array.of_list
      (List.concat_map (fun n -> List.map Array.of_list (of_len n)) (List.init (max_len + 1) Fun.id))
  in
  let bad = ref 0 and first = ref "" in
  let sweep strs =
    Array.iter
      (fun a ->
        Array.iter
          (fun b ->
            let d = Reference.sed a b in
            for k = 0 to 7 do
              let bd = String_edit.bounded_distance a b k in
              if bd <> Int.min d (k + 1) || String_edit.within a b k <> (d <= k) then begin
                if !bad = 0 then
                  first :=
                    Printf.sprintf "a=[%s] b=[%s] k=%d: distance %d, bounded %d"
                      (String.concat ";" (Array.to_list (Array.map string_of_int a)))
                      (String.concat ";" (Array.to_list (Array.map string_of_int b)))
                      k d bd;
                incr bad
              end
            done)
          strs)
      strs
  in
  sweep (strings ~symbols:2 ~max_len:6);
  sweep (strings ~symbols:3 ~max_len:5);
  Alcotest.(check (pair int string)) "mismatching (pair, k) cases" (0, "") (!bad, !first)

(* --- TED: fixed examples --- *)

(* A known distance, through the library ([Ted.distance]: the banded
   kernel at the full band) and through the reference Zhang–Shasha. *)
let check_ted name expect t1 t2 =
  Alcotest.(check int) name expect (Ted.distance t1 t2);
  Alcotest.(check int) (name ^ " (reference)") expect (Reference.distance t1 t2)

let test_ted_identical () =
  let a = t "{a{b{c}}{d}}" in
  check_ted "identical" 0 a a

let test_ted_single_ops () =
  let check t1 t2 expect name = check_ted name expect (t t1) (t t2) in
  check "{a}" "{b}" 1 "rename";
  check "{a}" "{a{b}}" 1 "insert leaf";
  check "{a{b}}" "{a}" 1 "delete leaf";
  check "{a{b}{c}}" "{a{m{b}{c}}}" 1 "insert internal";
  check "{a{b}{c}}" "{a{c}{b}}" 2 "swap leaves"

let test_ted_paper_fig3 () =
  (* Figure 3 of the paper: TED(T1, T2) = 3 where T1 = {1{2}{1{3}}} drawn
     as l1 with children l2 and l1(child l3)... the figure's trees are
     binary: T1 = l1(l2, l1(l3)), T2 = l1(l2(l1, l3)). *)
  let t1 = t "{1{2}{1{3}}}" in
  let t2 = t "{1{2{1}{3}}}" in
  check_ted "TED = 3" 3 t1 t2;
  (* and the traversal-string bounds from the same figure *)
  Alcotest.(check int) "preorder sed = 0" 0
    (String_edit.bounded_distance (Traversal.preorder_labels t1) (Traversal.preorder_labels t2) 8);
  Alcotest.(check int) "postorder sed = 2" 2
    (String_edit.bounded_distance (Traversal.postorder_labels t1) (Traversal.postorder_labels t2) 8)

let test_ted_zs_classic () =
  (* The running example of the Zhang–Shasha paper: distance 2. *)
  let t1 = t "{f{d{a}{c{b}}}{e}}" in
  let t2 = t "{f{c{d{a}{b}}}{e}}" in
  check_ted "zs paper example" 2 t1 t2;
  Alcotest.(check int) "naive agrees" 2 (Naive.distance t1 t2)

let test_ted_empty_vs () =
  let single = t "{a}" in
  let five = t "{a{b}{c}{d}{e}}" in
  check_ted "grow by 4" 4 single five

(* The full band is |T1| + |T2| - 1, not max (|T1|, |T2|): a chain and
   a star of 4 nodes each, all labels distinct, map at most the roots
   and one more pair, so their TED is 2 renames + 2 deletes + 2 inserts
   = 6, and a band of 4 would answer 5. *)
let test_ted_full_band () =
  let chain = t "{a{b{c{d}}}}" and star = t "{w{x}{y}{z}}" in
  check_ted "chain vs star" 6 chain star;
  Alcotest.(check int) "naive agrees" 6 (Naive.distance chain star);
  let pc = Ted.preprocess chain and ps = Ted.preprocess star in
  Alcotest.(check int) "a band of max size clamps" 5 (Ted.bounded_distance_prep pc ps 4)

(* --- TED: differential and metric properties --- *)

let prop_zs_matches_naive =
  Gen.qtest ~count:150 "Zhang-Shasha = naive forest DP"
    (Gen.arb_tree_pair ~max_size:9 ()) (fun (a, b) ->
      Reference.distance a b = Naive.distance a b)

(* The reference on the left and the right decomposition, and the
   kernel at the full band. *)
let prop_ted_reference_mirror =
  Gen.qtest ~count:150 "reference left/right = full band" (Gen.arb_tree_pair ~max_size:14 ())
    (fun (a, b) ->
      let pa = Ted.preprocess a and pb = Ted.preprocess b in
      let l = Reference.distance_postorder (Ted.left_postorder pa) (Ted.left_postorder pb) in
      let r = Reference.distance_postorder (Ted.right_postorder pa) (Ted.right_postorder pb) in
      l = r && r = Ted.distance_prep pa pb)

let prop_ted_symmetry =
  Gen.qtest "TED is symmetric" (Gen.arb_tree_pair ~max_size:14 ()) (fun (a, b) ->
      Ted.distance a b = Ted.distance b a)

let prop_ted_identity =
  Gen.qtest "TED(t,t) = 0 and positivity" (Gen.arb_tree_pair ~max_size:14 ())
    (fun (a, b) ->
      Ted.distance a a = 0
      && (Tree.equal a b || Ted.distance a b > 0))

let prop_ted_triangle =
  Gen.qtest ~count:100 "triangle inequality" (Gen.arb_tree_triple ~max_size:10 ())
    (fun (a, b, c) ->
      Ted.distance a c
      <= Ted.distance a b + Ted.distance b c)

let prop_ted_edit_script_bound =
  Gen.qtest "TED(t, edits(t)) <= #edits" (Gen.arb_tree_with_edits ~max_edits:4 ())
    (fun (base, ops, result) ->
      Ted.distance base result <= List.length ops)

let prop_ted_size_diff =
  Gen.qtest "TED >= size difference" (Gen.arb_tree_pair ~max_size:14 ())
    (fun (a, b) -> Ted.distance a b >= abs (Tree.size a - Tree.size b))

(* The bound that makes the full band sound, on the reference. *)
let prop_ted_upper_bound =
  Gen.qtest "TED <= size1 + size2" (Gen.arb_tree_pair ~max_size:14 ()) (fun (a, b) ->
      (* delete everything but the root, rename it, insert the rest *)
      Reference.distance a b <= Tree.size a + Tree.size b - 1)

(* --- bounds --- *)

(* Each bound as a function of two trees: the forms' pairwise bounds,
   plus the two traversal strings the cascade's SED stage bounds. *)
let all_bounds =
  let on_forms f a b = f (Bounds.of_tree a) (Bounds.of_tree b) in
  let sed traversal a b = Reference.sed (traversal a) (traversal b) in
  [
    ("size", on_forms Bounds.size_bound);
    ("label_histogram", on_forms Bounds.label_bound);
    ("degree_histogram", on_forms Bounds.degree_bound);
    ("preorder_string", sed Tsj_tree.Traversal.preorder_labels);
    ("postorder_string", sed Tsj_tree.Traversal.postorder_labels);
    ("linear_lower", on_forms Bounds.linear_lower);
  ]

let prop_bounds_are_lower_bounds =
  Gen.qtest ~count:150 "every bound <= TED" (Gen.arb_tree_pair ~max_size:12 ())
    (fun (a, b) ->
      let d = Reference.distance a b in
      List.for_all
        (fun (name, f) ->
          let v = f a b in
          if v > d then
            QCheck.Test.fail_reportf "bound %s = %d > TED = %d on %s / %s" name v d
              (Gen.pp_tree a) (Gen.pp_tree b)
          else true)
        all_bounds)

let test_bounds_zero_on_equal () =
  let a = t "{a{b{c}}{d}}" in
  List.iter
    (fun (name, f) -> Alcotest.(check int) (name ^ " on equal trees") 0 (f a a))
    all_bounds

(* --- banded (threshold) TED --- *)

let prop_banded_ted_consistent =
  Gen.qtest ~count:200 "banded TED = min(TED, k+1)" (Gen.arb_tree_pair ~max_size:14 ())
    (fun (a, b) ->
      let exact = Reference.distance a b in
      let pa = Ted.preprocess a and pb = Ted.preprocess b in
      let ok = ref true in
      for k = 0 to 8 do
        if Ted.bounded_distance_prep pa pb k <> min exact (k + 1) then ok := false
      done;
      !ok)

(* The kernel on the left and on the mirrored postorders, at k = 0..5
   and at the full band. *)
let prop_banded_mirror_consistent =
  Gen.qtest ~count:100 "banded left/right = reference" (Gen.arb_tree_pair ~max_size:14 ())
    (fun (a, b) ->
      let pa = Ted.preprocess a and pb = Ted.preprocess b in
      let exact = Reference.distance a b in
      List.for_all
        (fun k ->
          List.for_all
            (fun postorder ->
              Zhang_shasha.bounded_distance_postorder (postorder pa) (postorder pb) k
              = min exact (k + 1))
            [ Ted.left_postorder; Ted.right_postorder ])
        [ 0; 1; 2; 3; 4; 5; Tree.size a + Tree.size b - 1 ])

(* The strip kernel against the reference Zhang–Shasha on every pair of
   trees of <= 5 nodes over {a, b} (550 trees): for k = 0..3 on the
   left and the mirrored postorders, and at the full band through
   [Ted.distance_prep]. *)
let test_banded_exhaustive () =
  let labels = List.map Tsj_tree.Label.intern [ "a"; "b" ] in
  let trees = Array.of_list (Edit_ball.trees_upto labels 5) in
  Alcotest.(check int) "trees of <= 5 nodes" 550 (Array.length trees);
  let preps = Array.map Ted.preprocess trees in
  let mismatches = ref 0 and first = ref None in
  let check ti tj what got want =
    if got <> want then begin
      incr mismatches;
      if !first = None then
        first :=
          Some
            (Printf.sprintf "%s / %s %s: %d, want %d" (Bracket.to_string ti)
               (Bracket.to_string tj) what got want)
    end
  in
  Array.iteri
    (fun i ti ->
      Array.iteri
        (fun j tj ->
          let exact =
            Reference.distance_postorder (Ted.left_postorder preps.(i))
              (Ted.left_postorder preps.(j))
          in
          check ti tj "full band" (Ted.distance_prep preps.(i) preps.(j)) exact;
          for k = 0 to 3 do
            List.iter
              (fun postorder ->
                check ti tj (Printf.sprintf "k=%d" k)
                  (Zhang_shasha.bounded_distance_postorder (postorder preps.(i))
                     (postorder preps.(j)) k)
                  (min exact (k + 1)))
              [ Ted.left_postorder; Ted.right_postorder ]
          done)
        trees)
    trees;
  Alcotest.(check int)
    (Printf.sprintf "mismatches (first: %s)" (Option.value !first ~default:"none"))
    0 !mismatches

(* Near pairs: a tree of 30-80 nodes and a copy a few edits away, so
   the optimal mapping runs close to the strip's edge. *)
let prop_banded_near_pairs =
  Gen.qtest ~count:300 "banded TED = min(TED, k+1) on near pairs"
    (Gen.arb_tree_with_edits ~min_size:30 ~max_size:80 ~max_edits:7 ())
    (fun (a, _, b) ->
      let exact = Reference.distance a b in
      let pa = Ted.preprocess a and pb = Ted.preprocess b in
      List.for_all
        (fun k ->
          List.for_all
            (fun postorder ->
              Zhang_shasha.bounded_distance_postorder (postorder pa) (postorder pb) k
              = min exact (k + 1))
            [ Ted.left_postorder; Ted.right_postorder ])
        [ 0; 1; 2; 3; 4; 5 ])

let test_banded_validation () =
  let a = Ted.preprocess (t "{a}") in
  Alcotest.check_raises "negative threshold"
    (Invalid_argument "Zhang_shasha.bounded_distance_postorder: negative threshold")
    (fun () -> ignore (Ted.bounded_distance_prep a a (-1)))

let test_arena_reshape_alternating_shapes () =
  (* Alternating (wide, narrow) and (narrow, wide) pairs exercises the
     reshape-in-place path of [Arena.reserve_matrices] (capacity
     suffices, stride changes).  Every distance must agree with the
     naive reference, which allocates fresh tables per call. *)
  let rng = Tsj_util.Prng.create 2026 in
  let wide = Gen.random_tree rng 34 in
  let narrow = Gen.random_tree rng 6 in
  let mid = Gen.random_tree rng 33 in
  let pairs =
    [ (wide, narrow); (narrow, wide); (wide, mid); (narrow, narrow);
      (mid, wide); (mid, narrow) ]
  in
  List.iteri
    (fun i (a, b) ->
      let pa = Ted.preprocess a and pb = Ted.preprocess b in
      let exact = Naive.distance a b in
      Alcotest.(check int) (Printf.sprintf "pair %d full band" i) exact (Ted.distance_prep pa pb);
      List.iter
        (fun k ->
          Alcotest.(check int)
            (Printf.sprintf "pair %d bounded k=%d" i k)
            (min exact (k + 1))
            (Ted.bounded_distance_prep pa pb k))
        [ 0; 2; 5 ])
    pairs

(* --- constrained edit distance --- *)

module Constrained = Tsj_ted.Constrained

let test_constrained_known () =
  let check t1s t2s expect name =
    Alcotest.(check int) name expect (Constrained.distance (t t1s) (t t2s))
  in
  check "{a}" "{a}" 0 "equal singletons";
  check "{a}" "{b}" 1 "rename";
  check "{a{b}}" "{a}" 1 "delete leaf";
  check "{a{b}{c}}" "{a{m{b}{c}}}" 1 "insert internal (constrained ok)";
  (* The classic separating example: a and b (separate subtrees of f) both
     map under the single new child g — forbidden for constrained
     mappings, so the constrained distance exceeds TED = 1. *)
  check "{f{a}{b}{c}}" "{f{g{a}{b}}{c}}" 3 "isolated-subtree violation";
  Alcotest.(check int) "its TED is 1" 1
    (Reference.distance (t "{f{a}{b}{c}}") (t "{f{g{a}{b}}{c}}"))

let test_constrained_within () =
  let a = t "{f{a}{b}{c}}" and b = t "{f{g{a}{b}}{c}}" in
  Alcotest.(check bool) "within 3" true (Constrained.within a b 3);
  Alcotest.(check bool) "not within 2" false (Constrained.within a b 2);
  Alcotest.(check bool) "negative" false (Constrained.within a b (-1))

let prop_constrained_upper_bounds_ted =
  Gen.qtest ~count:200 "TED <= constrained distance" (Gen.arb_tree_pair ~max_size:12 ())
    (fun (x, y) -> Reference.distance x y <= Constrained.distance x y)

let prop_constrained_metric =
  Gen.qtest ~count:120 "constrained distance is a metric"
    (Gen.arb_tree_triple ~max_size:10 ()) (fun (x, y, z) ->
      let d = Constrained.distance in
      d x x = 0
      && d x y = d y x
      && (Tree.equal x y || d x y > 0)
      && d x z <= d x y + d y z)

let prop_constrained_often_equals_ted =
  (* Not a theorem, but on small random trees the two coincide almost
     always; guard against systematic overestimation by requiring
     coincidence in at least half the samples. *)
  Gen.qtest ~count:1 "constrained ~ TED on random pairs"
    (QCheck.make ~print:(fun () -> "batch") (fun _ -> ()))
    (fun () ->
      let rng = Tsj_util.Prng.create 4242 in
      let equal_count = ref 0 in
      let total = 200 in
      for _ = 1 to total do
        let x = Gen.random_tree rng (1 + Tsj_util.Prng.int rng 10) in
        let y = Gen.random_tree rng (1 + Tsj_util.Prng.int rng 10) in
        if Constrained.distance x y = Reference.distance x y then incr equal_count
      done;
      !equal_count * 2 >= total)

let prop_constrained_size_bounds =
  Gen.qtest "constrained distance bounded by sizes" (Gen.arb_tree_pair ~max_size:14 ())
    (fun (x, y) ->
      let d = Constrained.distance x y in
      d >= abs (Tree.size x - Tree.size y) && d <= Tree.size x + Tree.size y)

(* --- Ted facade --- *)

let test_ted_within () =
  let pa = Ted.preprocess (t "{a{b}{c}}") in
  let pb = Ted.preprocess (t "{a{b}{c}{d}{e}}") in
  Alcotest.(check int) "tau 1" 2 (Ted.bounded_distance_prep pa pb 1);
  Alcotest.(check int) "tau 2" 2 (Ted.bounded_distance_prep pa pb 2);
  Alcotest.check_raises "negative tau"
    (Invalid_argument "Zhang_shasha.bounded_distance_postorder: negative threshold")
    (fun () -> ignore (Ted.bounded_distance_prep pa pa (-1)));
  Alcotest.(check int) "tau 0 self" 0 (Ted.bounded_distance_prep pa pa 0)

let test_ted_prep_accessors () =
  let tree = t "{a{b}}" in
  let p = Ted.preprocess tree in
  Alcotest.(check int) "size" 2 (Ted.size p);
  Alcotest.(check bool) "tree" true (Tree.equal tree (Ted.tree p))

let test_ted_naive_algorithm_facade () =
  let a = t "{a{b{x}}{c}}" and b = t "{a{c{x}}{b}}" in
  Alcotest.(check int) "facade = naive" (Naive.distance a b) (Ted.distance a b)

(* Systhreads share their domain's scratch arena and the runtime may
   switch threads in the middle of a kernel: kernels running
   concurrently on one domain must still return the sequential
   answers. *)
let test_kernels_under_systhreads () =
  let rng = Tsj_util.Prng.create 5150 in
  let pairs =
    Array.init 24 (fun _ ->
        let t1 = Gen.random_tree rng (40 + Tsj_util.Prng.int rng 40) in
        let _, t2 = Edit_op.random_script rng ~labels:Gen.default_alphabet 4 t1 in
        (t1, t2))
  in
  let preps = Array.map (fun (t1, t2) -> (Ted.preprocess t1, Ted.preprocess t2)) pairs in
  let labels = Array.map (fun (t1, t2) -> (Traversal.preorder_labels t1, Traversal.preorder_labels t2)) pairs in
  let run () =
    Array.mapi
      (fun i (p1, p2) ->
        let l1, l2 = labels.(i) in
        (Ted.bounded_distance_prep p1 p2 5, Ted.distance_prep p1 p2,
         String_edit.bounded_distance l1 l2 5))
      preps
  in
  let expected = run () in
  let mismatches = Atomic.make 0 in
  let worker () =
    for _ = 1 to 4 do
      if run () <> expected then Atomic.incr mismatches
    done
  in
  List.iter Thread.join (List.init 3 (fun _ -> Thread.create worker ()));
  Alcotest.(check int) "concurrent kernel runs that disagreed" 0 (Atomic.get mismatches)

let suite =
  [
    Alcotest.test_case "sed known values" `Quick test_sed_known;
    prop_sed_banded_consistent;
    Alcotest.test_case "sed negative thresholds" `Quick test_sed_banded_negative;
    Alcotest.test_case "ted identical" `Quick test_ted_identical;
    Alcotest.test_case "ted single ops" `Quick test_ted_single_ops;
    Alcotest.test_case "ted paper fig. 3" `Quick test_ted_paper_fig3;
    Alcotest.test_case "ted zhang-shasha classic" `Quick test_ted_zs_classic;
    Alcotest.test_case "ted growth" `Quick test_ted_empty_vs;
    Alcotest.test_case "ted full band (chain vs star)" `Quick test_ted_full_band;
    prop_zs_matches_naive;
    prop_ted_reference_mirror;
    prop_ted_symmetry;
    prop_ted_identity;
    prop_ted_triangle;
    prop_ted_edit_script_bound;
    prop_ted_size_diff;
    prop_ted_upper_bound;
    prop_bounds_are_lower_bounds;
    Alcotest.test_case "bounds zero on equal" `Quick test_bounds_zero_on_equal;
    prop_banded_ted_consistent;
    prop_banded_mirror_consistent;
    Alcotest.test_case "banded TED exhaustive on trees <= 5 nodes" `Quick test_banded_exhaustive;
    prop_banded_near_pairs;
    Alcotest.test_case "banded validation" `Quick test_banded_validation;
    Alcotest.test_case "constrained known values" `Quick test_constrained_known;
    Alcotest.test_case "constrained within" `Quick test_constrained_within;
    prop_constrained_upper_bounds_ted;
    prop_constrained_metric;
    prop_constrained_often_equals_ted;
    prop_constrained_size_bounds;
    Alcotest.test_case "ted within" `Quick test_ted_within;
    Alcotest.test_case "ted prep accessors" `Quick test_ted_prep_accessors;
    Alcotest.test_case "ted naive facade" `Quick test_ted_naive_algorithm_facade;
    Alcotest.test_case "kernels agree under concurrent systhreads" `Quick
      test_kernels_under_systhreads;
    Alcotest.test_case "arena reshape alternating shapes" `Quick
      test_arena_reshape_alternating_shapes;
    Alcotest.test_case "banded sed exhaustive on short strings" `Quick
      test_sed_banded_exhaustive;
  ]
