(* Tests for the verification filter cascade: the compiled bound forms,
   the greedy-mapping upper bound, the staged cascade's outcome soundness
   and the end-to-end guarantee that the cascaded PartSJ join returns the
   same pairs and distances as the uncascaded join and the nested-loop
   ground truth. *)

module Tree = Tsj_tree.Tree
module Traversal = Tsj_tree.Traversal
module Multiset = Tsj_util.Multiset
module Ted = Tsj_ted.Ted
module Bounds = Tsj_ted.Bounds
module Constrained = Tsj_ted.Constrained
module Partsj = Tsj_core.Partsj
module Nested_loop = Tsj_join.Nested_loop
module Types = Tsj_join.Types
module Prng = Tsj_util.Prng

let form t = Bounds.of_tree t

(* --- per-pair reference bounds, computed straight from the trees --- *)

let ref_degrees t =
  let acc = ref [] in
  Tree.iter_preorder (fun (n : Tree.t) -> acc := List.length n.children :: !acc) t;
  Array.of_list !acc

let ref_bag f a b =
  Multiset.symmetric_difference_size (Multiset.of_unsorted (f a)) (Multiset.of_unsorted (f b))

let ref_size a b = abs (Tree.size a - Tree.size b)

let ref_labels a b = (ref_bag Traversal.preorder_labels a b + 1) / 2

let ref_degree a b = (ref_bag ref_degrees a b + 2) / 3

let ref_linear a b = max (ref_size a b) (max (ref_labels a b) (ref_degree a b))

(* The exact TED of two forms, by the reference Zhang–Shasha on their
   left postorders. *)
let ref_ted fa fb =
  Ted_reference.distance_postorder
    (Ted.left_postorder (Bounds.prep fa))
    (Ted.left_postorder (Bounds.prep fb))

(* The greedy script: rename the roots if they differ, pair the children
   left to right, delete / insert the unmatched tail. *)
let rec ref_upper (a : Tree.t) (b : Tree.t) =
  let rec kids xs ys =
    match (xs, ys) with
    | x :: xs, y :: ys -> ref_upper x y + kids xs ys
    | rest, [] | [], rest -> List.fold_left (fun acc t -> acc + Tree.size t) 0 rest
  in
  (if a.label = b.label then 0 else 1) + kids a.children b.children

(* --- the forms agree with the per-pair reference bounds --- *)

let prop_compiled_matches_per_pair =
  Gen.qtest ~count:150 "compiled bounds = per-pair bounds"
    (Gen.arb_tree_pair ~max_size:12 ()) (fun (a, b) ->
      let ca = form a and cb = form b in
      Bounds.size_bound ca cb = ref_size a b
      && Bounds.label_bound ca cb = ref_labels a b
      && Bounds.degree_bound ca cb = ref_degree a b
      && Bounds.linear_lower ca cb = ref_linear a b
      && Bounds.upper ca cb = ref_upper a b)

(* The budget-degraded query path reads the stored forms; its [lo, hi]
   sandwiches must stay exactly the per-pair linear lower bounds (size,
   labels, degrees) and the greedy upper bound. *)
let prop_degraded_sandwiches_match_per_pair =
  Gen.qtest ~count:100 "degraded query sandwiches = per-pair bounds"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create (0xDE6 + seed) in
      let labels = Gen.alphabet 3 in
      let tau = 1 + Prng.int rng 3 in
      let trees = Array.init 10 (fun _ -> Gen.random_tree ~labels rng (1 + Prng.int rng 12)) in
      let inc = Tsj_core.Incremental.create ~tau () in
      Array.iter (fun t -> ignore (Tsj_core.Incremental.add inc t)) trees;
      let near = Prng.int rng (Array.length trees) in
      let _, q =
        Tsj_tree.Edit_op.random_script rng ~labels (Prng.int rng (tau + 1)) trees.(near)
      in
      let budget = Tsj_join.Budget.create () in
      Tsj_join.Budget.cancel budget;
      let r = Tsj_core.Incremental.query ~budget inc q in
      (* the edited source is within τ, so it must be sandwiched *)
      r.Tsj_core.Incremental.hits = []
      && List.exists (fun (id, _, _) -> id = near) r.Tsj_core.Incremental.unverified
      && List.for_all
           (fun (id, lo, hi) ->
             let c = trees.(id) in
             lo <= tau
             && lo = ref_linear q c
             && hi = ref_upper q c)
           r.Tsj_core.Incremental.unverified)

let prop_compiled_lower_bounds =
  Gen.qtest ~count:150 "every compiled lower bound <= TED"
    (Gen.arb_tree_pair ~max_size:12 ()) (fun (a, b) ->
      let ca = form a and cb = form b in
      let d = Ted_reference.distance a b in
      List.for_all
        (fun (name, v) ->
          if v > d then
            QCheck.Test.fail_reportf "compiled %s = %d > TED = %d on %s / %s"
              name v d (Gen.pp_tree a) (Gen.pp_tree b)
          else true)
        [
          ("size", Bounds.size_bound ca cb);
          ("labels", Bounds.label_bound ca cb);
          ("degrees", Bounds.degree_bound ca cb);
          ("linear", Bounds.linear_lower ca cb);
        ])

(* --- greedy-mapping upper bound --- *)

let prop_upper_bounds_ted =
  Gen.qtest ~count:200 "TED <= constrained <= greedy upper"
    (Gen.arb_tree_pair ~max_size:12 ()) (fun (a, b) ->
      let ub = Bounds.upper (form a) (form b) in
      let ted = Ted_reference.distance a b in
      let ced = Constrained.distance a b in
      if not (ted <= ced && ced <= ub) then
        QCheck.Test.fail_reportf "TED %d / CED %d / upper %d on %s / %s" ted ced
          ub (Gen.pp_tree a) (Gen.pp_tree b)
      else true)

let test_upper_zero_on_equal () =
  let t = Tsj_tree.Bracket.of_string_exn "{a{b{c}}{d}{e{f}}}" in
  Alcotest.(check int) "upper t t = 0" 0 (ref_upper t t);
  let c = form t in
  Alcotest.(check int) "compiled upper t t = 0" 0 (Bounds.upper c c)

(* --- cascade outcome soundness --- *)

let prop_cascade_sound =
  Gen.qtest ~count:200 "cascade outcomes are sound for tau in 0..5"
    (Gen.arb_tree_pair ~max_size:12 ()) (fun (a, b) ->
      let ca = form a and cb = form b in
      let exact = Ted_reference.distance a b in
      (* The stage that prunes is the first whose full bound exceeds τ:
         the cascade's label walk, which stops at 2τ + 1, must decide as
         the unbounded [label_bound] does. *)
      let first_linear tau =
        if Bounds.size_bound ca cb > tau then Some Bounds.Size
        else if Bounds.label_bound ca cb > tau then Some Bounds.Labels
        else if Bounds.degree_bound ca cb > tau then Some Bounds.Degrees
        else None
      in
      let check tau =
        match Bounds.cascade ~tau ca cb with
        | Bounds.Pruned stage ->
            if exact <= tau then
              QCheck.Test.fail_reportf
                "tau=%d pruned but TED = %d on %s / %s" tau exact
                (Gen.pp_tree a) (Gen.pp_tree b)
            else if Option.value (first_linear tau) ~default:Bounds.Sed <> stage then
              QCheck.Test.fail_reportf "tau=%d pruned at the wrong stage on %s / %s" tau
                (Gen.pp_tree a) (Gen.pp_tree b)
            else true
        | (Bounds.Accept _ | Bounds.Verify _) when first_linear tau <> None ->
            QCheck.Test.fail_reportf "tau=%d a linear bound exceeds tau on %s / %s" tau
              (Gen.pp_tree a) (Gen.pp_tree b)
        | Bounds.Accept d ->
            if d <> exact || d > tau then
              QCheck.Test.fail_reportf
                "tau=%d accepted with %d but TED = %d on %s / %s" tau d exact
                (Gen.pp_tree a) (Gen.pp_tree b)
            else true
        | Bounds.Verify { band } ->
            (* The banded kernel at the cascade's band must decide the
               pair exactly like the full kernel at tau would: the band
               only shrinks below tau when the upper bound certifies
               TED <= band + 1. *)
            let bd = Ted.bounded_distance_prep (Bounds.prep ca) (Bounds.prep cb) band in
            if band < 0 || band > tau then
              QCheck.Test.fail_reportf "tau=%d band=%d out of range" tau band
            else if exact <= tau && bd <> exact then
              QCheck.Test.fail_reportf
                "tau=%d band=%d kernel gives %d but TED = %d on %s / %s" tau
                band bd exact (Gen.pp_tree a) (Gen.pp_tree b)
            else if exact > tau && bd <= tau then
              QCheck.Test.fail_reportf
                "tau=%d band=%d kernel admits %d but TED = %d on %s / %s" tau
                band bd exact (Gen.pp_tree a) (Gen.pp_tree b)
            else true
      in
      List.for_all check [ 0; 1; 2; 3; 4; 5 ])

let test_cascade_negative_tau () =
  let c = form (Tsj_tree.Bracket.of_string_exn "{a}") in
  Alcotest.check_raises "negative"
    (Invalid_argument "Bounds.cascade: negative threshold") (fun () ->
      ignore (Bounds.cascade ~tau:(-1) c c))

let test_cascade_identical_trees () =
  (* Identical trees close the sandwich at 0: accepted without a kernel. *)
  let t = Tsj_tree.Bracket.of_string_exn "{a{b}{c{d}}}" in
  let c = form t in
  match Bounds.cascade ~tau:2 c c with
  | Bounds.Accept 0 -> ()
  | _ -> Alcotest.fail "expected Accept 0 on identical trees"

(* --- equal trees are decided by the bounds alone --- *)

(* A tree and a deep copy of it (equal, not [==]): every lower bound is
   0 and the greedy upper bound is 0, so the cascade accepts the pair at
   distance 0 before any kernel runs — for every τ. *)
let check_copy_accepted ~tau t ft ft' =
  match Bounds.cascade ~tau ft ft' with
  | Bounds.Accept 0 -> ()
  | Bounds.Accept d -> Alcotest.failf "tau=%d: %s vs its copy accepted at %d" tau (Gen.pp_tree t) d
  | Bounds.Pruned _ -> Alcotest.failf "tau=%d: %s vs its copy pruned" tau (Gen.pp_tree t)
  | Bounds.Verify { band } ->
    Alcotest.failf "tau=%d: %s vs its copy sent to the kernel (band %d)" tau
      (Gen.pp_tree t) band

let test_copies_accepted_exhaustive () =
  let labels = [ Tsj_tree.Label.intern "a"; Tsj_tree.Label.intern "b" ] in
  let trees = Edit_ball.trees_upto labels 7 in
  Alcotest.(check int) "trees of <= 7 nodes over {a, b}" 20134 (List.length trees);
  List.iter
    (fun t ->
      let ft = form t and ft' = form (Gen.deep_copy t) in
      for tau = 0 to 3 do
        check_copy_accepted ~tau t ft ft'
      done)
    trees

(* The same on larger trees, and end to end through an [Incremental]:
   adding the copy reports the original at distance 0, and a query with
   the copy hits it at distance 0 for every τ' <= τ. *)
let prop_copies_accepted_large =
  Gen.qtest ~count:40 "equal 50-150-node trees: Accept 0"
    (QCheck.make ~print:Gen.pp_tree (fun st ->
         let rng = Prng.create (Random.State.int st 0x3FFFFFFF) in
         Gen.random_tree rng (50 + Prng.int rng 101)))
    (fun t ->
      let copy = Gen.deep_copy t in
      let ft = form t and ft' = form copy in
      for tau = 0 to 3 do
        check_copy_accepted ~tau t ft ft'
      done;
      let inc = Tsj_core.Incremental.create ~tau:3 () in
      ignore (Tsj_core.Incremental.add inc t);
      List.for_all
        (fun tau ->
          (Tsj_core.Incremental.query ~tau inc copy).Tsj_core.Incremental.hits = [ (0, 0) ])
        [ 0; 1; 2; 3 ]
      && Tsj_core.Incremental.add inc copy = [ (0, 0) ])

(* --- exhaustive check on every small tree --- *)

let test_cascade_exhaustive () =
  let labels = [ Tsj_tree.Label.intern "a"; Tsj_tree.Label.intern "b" ] in
  let trees = Array.of_list (Edit_ball.trees_upto labels 5) in
  Alcotest.(check int) "trees of <= 5 nodes over {a, b}" 550 (Array.length trees);
  let forms = Array.map form trees in
  let fail fmt = Alcotest.failf fmt in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          let fa = forms.(i) and fb = forms.(j) in
          let ted = ref_ted fa fb in
          if Bounds.upper fa fb <> ref_upper a b then
            fail "upper %s / %s: %d <> reference %d" (Gen.pp_tree a) (Gen.pp_tree b)
              (Bounds.upper fa fb) (ref_upper a b);
          for tau = 0 to 3 do
            match Bounds.cascade ~tau fa fb with
            | Bounds.Pruned _ ->
              if ted <= tau then
                fail "tau=%d pruned %s / %s at TED %d" tau (Gen.pp_tree a) (Gen.pp_tree b) ted
            | Bounds.Accept d ->
              if d <> ted then
                fail "tau=%d accepted %s / %s at %d, TED %d" tau (Gen.pp_tree a)
                  (Gen.pp_tree b) d ted
            | Bounds.Verify { band } ->
              let k = Ted.bounded_distance_prep (Bounds.prep fa) (Bounds.prep fb) band in
              if k <> min ted (tau + 1) then
                fail "tau=%d band=%d kernel %d on %s / %s, TED %d" tau band k
                  (Gen.pp_tree a) (Gen.pp_tree b) ted
          done)
        trees)
    trees

(* --- the alignment certificate --- *)

let ab_trees n =
  Array.of_list (Edit_ball.trees_upto [ Tsj_tree.Label.intern "a"; Tsj_tree.Label.intern "b" ] n)

(* On every pair of trees of <= 5 nodes over {a, b}, at k = 0..4: a
   certificate is a valid mapping of cost <= k, so TED <= k.  It must
   also certify pairs that the greedy bound does not (upper > k), or
   the cascade's new stage would decide nothing. *)
let test_certificate_exhaustive () =
  let trees = ab_trees 5 in
  let forms = Array.map form trees in
  let beyond_greedy = ref 0 in
  Array.iteri
    (fun i fa ->
      Array.iteri
        (fun j fb ->
          let ted = ref_ted fa fb in
          for k = 0 to 4 do
            if Bounds.certify fa fb k then begin
              if ted > k then
                Alcotest.failf "k=%d certified %s / %s at TED %d" k (Gen.pp_tree trees.(i))
                  (Gen.pp_tree trees.(j)) ted;
              if Bounds.upper fa fb > k then incr beyond_greedy
            end
          done)
        forms)
    forms;
  if !beyond_greedy = 0 then Alcotest.fail "no pair certified beyond the greedy bound"

(* Postorder node -> preorder number, read off the tree. *)
let preorder_of_postorder (t : Tree.t) =
  let pre = Array.make (Tree.size t) 0 in
  let next_pre = ref 0 and next_post = ref 0 in
  let rec walk (n : Tree.t) =
    let p = !next_pre in
    incr next_pre;
    List.iter walk n.children;
    pre.(!next_post) <- p;
    incr next_post
  in
  walk t;
  pre

(* [Bounds.mapping_certifies] against a reference on every strictly
   increasing partial mapping between the postorders of every pair of
   trees of <= 4 nodes over {a, b}: a mapping is valid iff it keeps the
   preorder order too (checked pair by pair on preorder numbers), and
   it certifies k iff it is valid and costs <= k.  A valid mapping
   never costs less than TED. *)
let test_mapping_certifies_exhaustive () =
  let trees = ab_trees 4 in
  let forms = Array.map form trees in
  let pres = Array.map preorder_of_postorder trees in
  let labels = Array.map Traversal.postorder_labels trees in
  let checked = ref 0 in
  Array.iteri
    (fun i fa ->
      Array.iteri
        (fun j fb ->
          let na = Array.length labels.(i) and nb = Array.length labels.(j) in
          let ted = ref_ted fa fb in
          let mate = Array.make na (-1) in
          let check () =
            let valid = ref true and cost = ref (na + nb) in
            for x = 0 to na - 1 do
              let y = mate.(x) in
              if y >= 0 then begin
                cost := !cost - 2 + if labels.(i).(x) = labels.(j).(y) then 0 else 1;
                for x' = 0 to x - 1 do
                  let y' = mate.(x') in
                  if y' >= 0 && pres.(i).(x') < pres.(i).(x) <> (pres.(j).(y') < pres.(j).(y))
                  then valid := false
                done
              end
            done;
            if !valid && !cost < ted then
              Alcotest.failf "valid mapping of cost %d < TED %d" !cost ted;
            List.iter
              (fun k ->
                incr checked;
                if Bounds.mapping_certifies fa fb mate k <> (!valid && !cost <= k) then
                  Alcotest.failf "k=%d mapping [%s] of %s / %s: valid %b, cost %d" k
                    (String.concat ";" (Array.to_list (Array.map string_of_int mate)))
                    (Gen.pp_tree trees.(i)) (Gen.pp_tree trees.(j)) !valid !cost)
              [ !cost - 1; !cost ]
          in
          (* Every strictly increasing choice of mates for x .. na - 1. *)
          let rec enum x last =
            if x = na then check ()
            else begin
              mate.(x) <- -1;
              enum (x + 1) last;
              for y = last + 1 to nb - 1 do
                mate.(x) <- y;
                enum (x + 1) y
              done;
              mate.(x) <- -1
            end
          in
          enum 0 (-1))
        forms)
    forms;
  Alcotest.(check bool) "mappings checked" true (!checked > 100_000)

(* Near pairs of 50–150-node trees over three labels, at most [k]
   random edits apart: an accepted distance is TED, and a certificate
   at k implies TED <= k. *)
let prop_certificate_near_pairs =
  Gen.qtest ~count:60 "certificate on 50-150-node near pairs"
    (Gen.arb_tree_with_edits ~min_size:50 ~max_size:150 ~max_edits:5 ~labels:(Gen.alphabet 3) ())
    (fun (a, ops, b) ->
      let fa = form a and fb = form b in
      let k = List.length ops in
      let ted = Ted_reference.distance a b in
      (if Bounds.certify fa fb k && ted > k then
         QCheck.Test.fail_reportf "certified at k=%d, TED %d" k ted);
      List.for_all
        (fun tau ->
          match Bounds.cascade ~tau fa fb with
          | Bounds.Accept d when d <> ted ->
            QCheck.Test.fail_reportf "tau=%d accepted at %d, TED %d" tau d ted
          | Bounds.Pruned _ when ted <= tau ->
            QCheck.Test.fail_reportf "tau=%d pruned at TED %d" tau ted
          | _ -> true)
        [ k; 5 ])

(* The certificate is a Tai mapping, not a constrained one, so it is
   off under [Constrained]: the verifier's answers there are exactly
   the constrained distance's, on every pair of trees of <= 5 nodes. *)
let test_constrained_exhaustive () =
  let trees = ab_trees 5 in
  let forms = Array.map form trees in
  Array.iteri
    (fun i fa ->
      Array.iteri
        (fun j fb ->
          let ced = Constrained.distance trees.(i) trees.(j) in
          for tau = 0 to 3 do
            let ok =
              match Bounds.verify ~metric:Bounds.Constrained ~cascade:true ~tau fa fb with
              | Bounds.Accepted d | Bounds.Verified d -> if ced <= tau then d = ced else d > tau
              | Bounds.Pruned _ -> ced > tau
              | Bounds.Unverified -> false
            in
            if not ok then
              Alcotest.failf "tau=%d constrained verify disagrees on %s / %s (CED %d)" tau
                (Gen.pp_tree trees.(i)) (Gen.pp_tree trees.(j)) ced
          done)
        forms)
    forms

(* No cascade stage allocates: beyond its two-word outcome, a cascade
   run on near pairs that reach the certificate allocates nothing. *)
let test_cascade_allocates_nothing () =
  let rng = Prng.create 77 in
  let labels = Gen.alphabet 3 in
  let pairs =
    Array.init 50 (fun _ ->
        let a = Gen.random_tree ~labels rng 120 in
        let _, b = Tsj_tree.Edit_op.random_script rng ~labels 3 a in
        (form a, form b))
  in
  let run () =
    Array.fold_left
      (fun n (fa, fb) ->
        match Bounds.cascade ~tau:3 fa fb with
        | Bounds.Accept _ | Bounds.Verify _ -> n + 1
        | Bounds.Pruned _ -> n)
      0 pairs
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let boxed = run () in
  let words = Gc.minor_words () -. before in
  let certified =
    Array.fold_left
      (fun n (fa, fb) -> if Bounds.upper fa fb > 3 && Bounds.certify fa fb 3 then n + 1 else n)
      0 pairs
  in
  Alcotest.(check bool) "some pairs reach the certificate" true (certified > 0);
  if words > float_of_int ((2 * boxed) + 8) then
    Alcotest.failf "%d cascade runs allocated %.0f words" (Array.length pairs) words

(* --- end-to-end: cascaded join = uncascaded join = ground truth --- *)

let forest_of_seed seed n max_size =
  let rng = Prng.create seed in
  Array.of_list (Gen.random_forest rng ~n ~max_size)

let arb_forest =
  QCheck.make
    ~print:(fun (seed, n, max_size) ->
      Printf.sprintf "seed=%d n=%d max_size=%d" seed n max_size)
    (fun st ->
      ( Random.State.int st 0x3FFFFFFF,
        2 + Random.State.int st 14,
        4 + Random.State.int st 12 ))

let prop_cascade_join_equals_truth (seed, n, max_size) =
  let trees = forest_of_seed seed n max_size in
  let tau = 1 + (seed mod 3) in
  let truth = Nested_loop.join ~trees ~tau () in
  let off = Partsj.join ~cascade:false ~trees ~tau () in
  let on_ = Partsj.join ~cascade:true ~trees ~tau () in
  if not (Types.equal_results truth off) then
    QCheck.Test.fail_reportf "cascade:false differs from nested loop (seed=%d)"
      seed
  else if not (Types.equal_results truth on_) then
    QCheck.Test.fail_reportf "cascade:true differs from nested loop (seed=%d)"
      seed
  else if off.Types.stats.Types.n_candidates <> on_.Types.stats.Types.n_candidates
  then
    QCheck.Test.fail_reportf "cascade changed the candidate count (seed=%d)"
      seed
  else if
    Types.cascade_total on_.Types.stats.Types.cascade
    <> on_.Types.stats.Types.n_candidates
  then
    QCheck.Test.fail_reportf
      "cascade counters do not partition the candidates (seed=%d)" seed
  else if
    off.Types.stats.Types.cascade.Types.kernel_verified
    <> off.Types.stats.Types.n_candidates
  then
    QCheck.Test.fail_reportf "cascade:false left a candidate to a filter (seed=%d)" seed
  else true

let prop_cascade_join_constrained_metric (seed, n, max_size) =
  (* The greedy script is a valid constrained script, so the cascade stays
     lossless when the verifier metric is the constrained edit distance. *)
  let trees = forest_of_seed seed n max_size in
  let tau = 1 + (seed mod 3) in
  let off = Partsj.join ~metric:Tsj_ted.Bounds.Constrained ~cascade:false ~trees ~tau () in
  let on_ = Partsj.join ~metric:Tsj_ted.Bounds.Constrained ~cascade:true ~trees ~tau () in
  Types.equal_results off on_

let test_cascade_counters_clustered () =
  (* Near-duplicate-heavy forest: all six counters should be exercised and
     must partition the candidate set exactly. *)
  let rng = Prng.create 7171 in
  let acc = ref [] in
  for _ = 1 to 30 do
    let base = Gen.random_tree rng (4 + Prng.int rng 12) in
    acc := base :: !acc;
    let _, copy =
      Tsj_tree.Edit_op.random_script rng ~labels:Gen.default_alphabet 2 base
    in
    acc := copy :: !acc
  done;
  let trees = Array.of_list !acc in
  List.iter
    (fun tau ->
      let out = Partsj.join ~trees ~tau () in
      let s = out.Types.stats in
      Alcotest.(check int)
        (Printf.sprintf "tau=%d counters partition candidates" tau)
        s.Types.n_candidates
        (Types.cascade_total s.Types.cascade);
      (* Early accepts + kernel runs can only admit result pairs, and every
         result came from one of the two. *)
      let c = s.Types.cascade in
      Alcotest.(check bool)
        (Printf.sprintf "tau=%d results <= early + kernel" tau)
        true
        (s.Types.n_results <= c.Types.early_accepted + c.Types.kernel_verified))
    [ 0; 1; 2; 3 ]

let suite =
  [
    prop_compiled_matches_per_pair;
    prop_compiled_lower_bounds;
    prop_upper_bounds_ted;
    Alcotest.test_case "upper zero on equal" `Quick test_upper_zero_on_equal;
    prop_cascade_sound;
    Alcotest.test_case "cascade negative tau" `Quick test_cascade_negative_tau;
    Alcotest.test_case "cascade identical trees" `Quick test_cascade_identical_trees;
    Gen.qtest ~count:25 "cascaded join = uncascaded = nested loop" arb_forest
      prop_cascade_join_equals_truth;
    Gen.qtest ~count:15 "cascade lossless under constrained metric" arb_forest
      prop_cascade_join_constrained_metric;
    Alcotest.test_case "cascade counters (clustered)" `Quick
      test_cascade_counters_clustered;
    prop_degraded_sandwiches_match_per_pair;
    Alcotest.test_case "cascade exhaustive on trees <= 5 nodes" `Quick
      test_cascade_exhaustive;
    Alcotest.test_case "copy of a tree <= 7 nodes: Accept 0" `Quick
      test_copies_accepted_exhaustive;
    prop_copies_accepted_large;
    Alcotest.test_case "certificate exhaustive on trees <= 5 nodes" `Quick
      test_certificate_exhaustive;
    Alcotest.test_case "mapping check = reference on trees <= 4 nodes" `Quick
      test_mapping_certifies_exhaustive;
    prop_certificate_near_pairs;
    Alcotest.test_case "constrained verify exhaustive on trees <= 5 nodes" `Quick
      test_constrained_exhaustive;
    Alcotest.test_case "cascade allocates nothing" `Quick test_cascade_allocates_nothing;
  ]
