module Tree = Tsj_tree.Tree
module Bracket = Tsj_tree.Bracket
module Binary_tree = Tsj_tree.Binary_tree
module Edit_op = Tsj_tree.Edit_op
module Prng = Tsj_util.Prng
module Partition = Tsj_core.Partition
module Subgraph = Tsj_core.Subgraph
module Two_layer_index = Tsj_core.Two_layer_index
module Size_bands = Tsj_core.Size_bands

let t s = Bracket.of_string_exn s

let lcrs x = Binary_tree.of_postorder (Tsj_tree.Form.of_tree x).left

let bt s = lcrs (t s)

(* --- partitionable / max_min_size --- *)

let test_partitionable_chain () =
  (* A 6-node chain: LC-RS keeps it a chain of left children. *)
  let b = bt "{a{b{c{d{e{f}}}}}}" in
  Alcotest.(check bool) "(2,3)" true (Partition.partitionable b ~delta:2 ~gamma:3);
  Alcotest.(check bool) "(3,2)" true (Partition.partitionable b ~delta:3 ~gamma:2);
  Alcotest.(check bool) "(2,4)" false (Partition.partitionable b ~delta:2 ~gamma:4);
  Alcotest.(check bool) "(6,1)" true (Partition.partitionable b ~delta:6 ~gamma:1);
  Alcotest.(check bool) "(7,1)" false (Partition.partitionable b ~delta:7 ~gamma:1)

let test_partitionable_star () =
  (* A root with 5 leaf children: LC-RS is root with a left-child chain of
     5 siblings.  Still a 6-node binary tree. *)
  let b = bt "{a{b}{c}{d}{e}{f}}" in
  Alcotest.(check bool) "(3,2)" true (Partition.partitionable b ~delta:3 ~gamma:2);
  Alcotest.(check bool) "(2,3)" true (Partition.partitionable b ~delta:2 ~gamma:3)

let test_partitionable_args () =
  let b = bt "{a{b}}" in
  Alcotest.check_raises "delta 0" (Invalid_argument "Partition.partitionable: delta must be >= 1")
    (fun () -> ignore (Partition.partitionable b ~delta:0 ~gamma:1));
  Alcotest.check_raises "gamma 0" (Invalid_argument "Partition.partitionable: gamma must be >= 1")
    (fun () -> ignore (Partition.partitionable b ~delta:1 ~gamma:0));
  Alcotest.check_raises "partition, delta 0"
    (Invalid_argument "Partition.partition: delta must be >= 1")
    (fun () -> ignore (Partition.partition b ~delta:0));
  Alcotest.check_raises "partition, tree too small"
    (Invalid_argument "Partition.partition: tree of 2 nodes has no 3-partitioning")
    (fun () -> ignore (Partition.partition b ~delta:3))

let test_paper_unbalanced_example () =
  (* Section 3.3's motivating observation, scaled down: a binary tree made
     of a root joining two size-s branches through single connectors can
     never be split into 3 components of n/3 each; MaxMinSize finds the
     best achievable γ, which is at most s. *)
  let chain n seed =
    let rng = Prng.create seed in
    Gen.random_tree rng n
  in
  ignore chain;
  (* Build the Figure 8 shape directly: root ℓj with left subtree s4-ish
     and a child ℓi holding two size-5 chains; sizes: 5+5+5+2 = 17. *)
  let block p = Printf.sprintf "{%s1{%s2{%s3{%s4{%s5}}}}}" p p p p p in
  let tree_s =
    Printf.sprintf "{j%s{i%s%s}}" (block "a") (block "b") (block "c")
  in
  let b = bt tree_s in
  Alcotest.(check int) "17 nodes" 17 b.Binary_tree.size;
  let gamma = Partition.max_min_size b ~delta:3 in
  Alcotest.(check bool) "gamma at most 17/3" true (gamma <= 5);
  Alcotest.(check bool) "gamma feasible" true
    (Partition.partitionable b ~delta:3 ~gamma);
  Alcotest.(check bool) "gamma maximal" true
    (gamma = 17 / 3 || not (Partition.partitionable b ~delta:3 ~gamma:(gamma + 1)))

let test_max_min_size_small () =
  let b = bt "{a}" in
  Alcotest.(check int) "delta 1 on single node" 1 (Partition.max_min_size b ~delta:1);
  Alcotest.check_raises "delta too big"
    (Invalid_argument "Partition.max_min_size: tree of 1 nodes has no 2-partitioning")
    (fun () -> ignore (Partition.max_min_size b ~delta:2))

(* Brute force: try all (delta-1)-subsets of edges; the best achievable
   minimum component size.  Components of a cut-edge set are exactly what
   Partition.assignment computes, so rebuild them independently here. *)
let brute_force_max_min (b : Binary_tree.t) ~delta =
  let n = b.Binary_tree.size in
  let parent = Binary_tree.parents b in
  let best = ref 0 in
  let edges = Array.init (n - 1) (fun i -> i) in
  let rec choose start chosen k =
    if k = 0 then begin
      (* component root of v: nearest cut-or-tree-root ancestor *)
      let cut = Array.make n false in
      List.iter (fun c -> cut.(c) <- true) chosen;
      let comp_root = Array.make n (-1) in
      for v = n - 1 downto 0 do
        if v = n - 1 || cut.(v) then comp_root.(v) <- v
      done;
      (* nodes in descending order: parents have larger ids *)
      for v = n - 2 downto 0 do
        if comp_root.(v) < 0 then comp_root.(v) <- comp_root.(parent.(v))
      done;
      let sizes = Hashtbl.create 8 in
      Array.iter
        (fun r ->
          Hashtbl.replace sizes r (1 + Option.value ~default:0 (Hashtbl.find_opt sizes r)))
        comp_root;
      let min_size = Hashtbl.fold (fun _ s acc -> min s acc) sizes max_int in
      if min_size > !best then best := min_size
    end
    else
      for i = start to n - 2 do
        choose (i + 1) (edges.(i) :: chosen) (k - 1)
      done
  in
  choose 0 [] (delta - 1);
  !best

let prop_max_min_size_matches_brute_force =
  Gen.qtest ~count:80 "MaxMinSize = brute force" (Gen.arb_tree ~max_size:9 ())
    (fun x ->
      let b = lcrs x in
      let ok = ref true in
      List.iter
        (fun delta ->
          if b.Binary_tree.size >= delta then begin
            let fast = Partition.max_min_size b ~delta in
            let brute = brute_force_max_min b ~delta in
            if fast <> brute then begin
              ok := false;
              Printf.eprintf "delta=%d fast=%d brute=%d tree=%s\n" delta fast brute
                (Gen.pp_tree x)
            end
          end)
        [ 1; 2; 3; 4 ];
      !ok)

(* --- partition extraction invariants --- *)

let check_partition_invariants ?(expect_gamma = true) (p : Partition.t) =
  let b = p.Partition.btree in
  let n = b.Binary_tree.size in
  let delta = p.Partition.delta in
  let assignment = Partition.assignment p and parent = Binary_tree.parents b in
  (* assignment total and within range *)
  Array.iter (fun k -> assert (k >= 0 && k < delta)) assignment;
  (* roots strictly increasing, last = tree root, assigned to own component *)
  Array.iteri
    (fun k r ->
      assert (assignment.(r) = k);
      if k > 0 then assert (r > p.Partition.roots.(k - 1)))
    p.Partition.roots;
  assert (p.Partition.roots.(delta - 1) = n - 1);
  (* sizes >= gamma *)
  let sizes = Partition.component_sizes p in
  let counted = Array.make delta 0 in
  Array.iter (fun k -> counted.(k) <- counted.(k) + 1) assignment;
  assert (sizes = counted);
  Array.iter (fun s -> assert (s >= 1)) sizes;
  if expect_gamma then Array.iter (fun s -> assert (s >= p.Partition.gamma)) sizes;
  assert (Array.fold_left ( + ) 0 sizes = n);
  (* connectivity: every non-root component member's parent is in the same
     component *)
  for v = 0 to n - 1 do
    let k = assignment.(v) in
    if v <> p.Partition.roots.(k) then
      assert (assignment.(parent.(v)) = k)
  done;
  (* exactly delta - 1 bridging edges *)
  assert (List.length (Partition.bridging_edges p) = delta - 1)

let prop_partition_invariants =
  Gen.qtest ~count:150 "balanced partition invariants" (Gen.arb_tree ~max_size:40 ())
    (fun x ->
      let b = lcrs x in
      List.iter
        (fun tau ->
          let delta = (2 * tau) + 1 in
          if b.Binary_tree.size >= delta then begin
            let p = Partition.partition b ~delta in
            check_partition_invariants p;
            assert (p.Partition.gamma = Partition.max_min_size b ~delta)
          end)
        [ 0; 1; 2; 3 ];
      true)

let prop_random_partition_invariants =
  Gen.qtest ~count:150 "random partition invariants" (Gen.arb_tree ~max_size:40 ())
    (fun x ->
      let b = lcrs x in
      let rng = Prng.create (Tree.hash x land 0xFFFFF) in
      List.iter
        (fun delta ->
          if b.Binary_tree.size >= delta then
            check_partition_invariants ~expect_gamma:false
              (Partition.random_partition rng b ~delta))
        [ 1; 2; 3; 5; 7 ];
      true)

let test_partition_delta_one () =
  let b = bt "{a{b}{c}}" in
  let p = Partition.partition b ~delta:1 in
  Alcotest.(check int) "one component" 1 p.Partition.delta;
  Alcotest.(check (array int)) "all in component 0" [| 0; 0; 0 |] (Partition.assignment p);
  Alcotest.(check int) "no bridging edges" 0 (List.length (Partition.bridging_edges p))

(* --- subgraphs and matching --- *)

let test_subgraph_self_match () =
  let b = bt "{a{b{c{d}{e}}}{f}{g{h{i{j}}}}}" in
  let p = Partition.partition b ~delta:3 in
  let subs = Subgraph.of_partition ~tree_id:0 p in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "matches own root" true
        (Subgraph.matches s b s.Subgraph.root);
      Alcotest.(check bool) "occurs in own tree" true (Subgraph.occurs_in s b))
    subs

let test_subgraph_ranks_and_keys () =
  let b = bt "{a{b{c{d}{e}}}{f}{g{h{i{j}}}}}" in
  let p = Partition.partition b ~delta:3 in
  let subs = Subgraph.of_partition ~tree_id:7 p in
  Alcotest.(check int) "three subgraphs" 3 (Array.length subs);
  Array.iteri
    (fun k s ->
      Alcotest.(check int) "rank" (k + 1) s.Subgraph.rank;
      Alcotest.(check int) "tree_id" 7 s.Subgraph.tree_id;
      Alcotest.(check int) "tree_size" 10 s.Subgraph.tree_size;
      let l, _, _ = Subgraph.label_key s in
      Alcotest.(check int) "key root label" b.Binary_tree.label.(s.Subgraph.root) l)
    subs;
  Alcotest.(check int) "last subgraph rooted at tree root"
    (Binary_tree.root b)
    subs.(2).Subgraph.root

let test_subgraph_no_match_on_label_change () =
  let base = t "{a{b{c{d}{e}}}{f}{g{h{i{j}}}}}" in
  let b = lcrs base in
  let p = Partition.partition b ~delta:3 in
  let subs = Subgraph.of_partition ~tree_id:0 p in
  (* Rename every node in turn; the subgraph containing the renamed node
     must stop occurring (fresh label not present anywhere else). *)
  let fresh = Tsj_tree.Label.intern "zz-not-elsewhere" in
  for v_general = 0 to Tree.size base - 1 do
    let changed = Edit_op.apply base (Edit_op.Rename { node = v_general; label = fresh }) in
    let cb = lcrs changed in
    let occur_count =
      Array.fold_left (fun acc s -> acc + if Subgraph.occurs_in s cb then 1 else 0) 0 subs
    in
    (* at least delta - 1 = 2 subgraphs must still occur (Lemma 1: one
       rename changes at most 1 subgraph here) *)
    Alcotest.(check bool) "at most one subgraph lost" true (occur_count >= 2)
  done

(* Lemma 2, the core filter guarantee: if TED(T, T') <= tau then some
   subgraph of any (2tau+1)-partitioning of T's binary form occurs in T''s
   binary form. *)
let lemma2_check ~partitioner (x, ops, x') =
  let tau = List.length ops in
  let delta = (2 * tau) + 1 in
  let b = lcrs x in
  if b.Binary_tree.size < delta then true
  else begin
    let p = partitioner b ~delta in
    let subs = Subgraph.of_partition ~tree_id:0 p in
    let b' = lcrs x' in
    Array.exists (fun s -> Subgraph.occurs_in s b') subs
  end

let prop_lemma2_balanced =
  Gen.qtest ~count:400 "Lemma 2 (balanced partitioning)"
    (Gen.arb_tree_with_edits ~max_size:30 ~max_edits:3 ())
    (lemma2_check ~partitioner:Partition.partition)

let prop_lemma2_random =
  Gen.qtest ~count:400 "Lemma 2 (random partitioning)"
    (Gen.arb_tree_with_edits ~max_size:30 ~max_edits:3 ())
    (fun input ->
      let rng = Prng.create 99 in
      lemma2_check ~partitioner:(fun b ~delta -> Partition.random_partition rng b ~delta)
        input)

(* Index completeness: probing T' through the two-layer index must
   rediscover T whenever TED(T, T') <= tau — this exercises the postorder
   windows and the twig keys on top of Lemma 2. *)
let index_completeness_check (x, ops, x') =
  let tau = List.length ops in
  let delta = (2 * tau) + 1 in
  (* The join always indexes the smaller tree and probes with the larger
     one (trees are processed in ascending size order); mirror that. *)
  let x, x' = if Tree.size x <= Tree.size x' then (x, x') else (x', x) in
  let b = lcrs x in
  let b' = lcrs x' in
  if b.Binary_tree.size < delta then true
  else begin
    let p = Partition.partition b ~delta in
    let idx = Two_layer_index.create ~tau () in
    Array.iter (Two_layer_index.insert idx) (Subgraph.of_partition ~tree_id:42 p);
    let found = ref false in
    let size = b'.Binary_tree.size in
    Two_layer_index.probe idx (Two_layer_index.cursor b') ~lo:(size - tau) ~hi:size
      (fun s v -> if (not !found) && Subgraph.matches s b' v then found := true);
    !found
  end

let prop_index_completeness =
  Gen.qtest ~count:400 "two-layer index completeness"
    (Gen.arb_tree_with_edits ~max_size:30 ~max_edits:3 ())
    index_completeness_check

(* Pinned counterexample to the paper's rank-tightened postorder windows
   (Section 3.4): [large] is [small] plus ONE insertion (TED = 1), yet no
   subgraph of the balanced 3-partitioning of [small] is found inside
   [large] when subgraph s_k is only registered under positions
   p_k ± (tau - floor(k/2)).  The insertion adopts most of the root's
   children, landing after the untouched subgraphs in postorder and
   shifting their end-relative positions past the k >= 2 windows, while
   the rank-1 subgraph (whose window would be wide enough) is exactly the
   changed one.  The sound start-window default finds the pair.  A randomized
   hunt reproduces this class of failure roughly 100 times per million
   random (tree, script) draws. *)
let test_paper_rank_windows_incomplete () =
  let small = t "{h3{h0}{h3{h2}{h1}}{h1{h3}}{h3{h3}{h5}{h0}{h0}{h1}}{h2}{h4}{h2}}" in
  let large = t "{h3{h0{h0}{h3{h2}{h1}}{h1{h3}}{h3{h3}{h5}{h0}{h0}{h1}}{h2}{h4}}{h2}}" in
  let tau = 1 in
  Alcotest.(check int) "TED is 1" 1 (Ted_reference.distance small large);
  let b = lcrs small and b' = lcrs large in
  let p = Partition.partition b ~delta:((2 * tau) + 1) in
  let subs = Subgraph.of_partition ~tree_id:0 p in
  let probe_finds mode =
    let idx = Two_layer_index.create ~mode ~tau () in
    Array.iter (Two_layer_index.insert idx) subs;
    let found = ref false in
    let size = b'.Binary_tree.size in
    Two_layer_index.probe idx (Two_layer_index.cursor b') ~lo:(size - tau) ~hi:size
      (fun s v -> if (not !found) && Subgraph.matches s b' v then found := true);
    !found
  in
  (* Lemma 2 itself holds: a subgraph does occur... *)
  Alcotest.(check bool) "some subgraph occurs" true
    (Array.exists (fun s -> Subgraph.occurs_in s b') subs);
  (* ...the sound windows find it... *)
  Alcotest.(check bool) "start window finds it" true
    (probe_finds Two_layer_index.Start_window);
  (* ...and the paper's windows do not. *)
  Alcotest.(check bool) "paper windows miss it" false
    (probe_finds Two_layer_index.Paper_rank)

(* Pinned regression for DESIGN.md finding 3: deleting the second child
   of the root (postorder 5, the inner l5) splices its three children into
   the root, which moves l6 into the deleted node's sibling-chain slot and
   flips l6's incoming-edge category from left to right.  Under the
   paper's kind-strict matching that deletion touches THREE subgraphs of
   the 3-partitioning — one per component — so no subgraph of [base]
   occurred in [result] and the tau = 1 join missed the pair.  The relaxed
   root check (incoming-edge existence only) must find it. *)
let test_lemma1_deletion_regression () =
  let base = t "{l1{l2}{l5{l6{l1}}{l5}{l0}}{l7}{l0}}" in
  let result = Edit_op.apply base (Edit_op.Delete { node = 5 }) in
  Alcotest.(check bool) "expected shape" true
    (Tree.equal result (t "{l1{l2}{l6{l1}}{l5}{l0}{l7}{l0}}"));
  Alcotest.(check int) "TED 1" 1 (Ted_reference.distance base result);
  let b = lcrs base in
  let p = Partition.partition b ~delta:3 in
  let subs = Subgraph.of_partition ~tree_id:0 p in
  let b' = lcrs result in
  Alcotest.(check bool) "Lemma 2 holds under relaxed matching" true
    (Array.exists (fun s -> Subgraph.occurs_in s b') subs);
  let out = Tsj_core.Partsj.join ~trees:[| base; result |] ~tau:1 () in
  Alcotest.(check int) "join finds the pair" 1
    out.Tsj_join.Types.stats.Tsj_join.Types.n_results

(* Lossless edit balls (Lemmas 1-2 through the whole index path): every
   tree within one node edit of an ordered tree of <= 7 nodes over
   {a, b}, and within two edits of one of <= 5 nodes, is a candidate of
   it through [Size_bands.probe] with the sound windows.  At tau = 1 the
   paper's rank windows miss 256 of those pairs over the trees of <= 6
   nodes (finding 2).  The tau = 2 sweep over <= 6 nodes is
   [fuzz_main ball]. *)
let test_edit_ball_sweep () =
  let labels = List.map Tsj_tree.Label.intern [ "a"; "b" ] in
  let on_miss t t' =
    Alcotest.failf "%s is not a candidate of %s" (Bracket.to_string t') (Bracket.to_string t)
  in
  Alcotest.(check int) "start-window misses, tau = 1, <= 7 nodes" 0
    (Edit_ball.sweep ~labels ~tau:1 ~on_miss (Edit_ball.trees_upto labels 7));
  Alcotest.(check int) "start-window misses, tau = 2, <= 5 nodes" 0
    (Edit_ball.sweep ~labels ~tau:2 ~on_miss (Edit_ball.trees_upto labels 5));
  Alcotest.(check int) "paper-rank misses, tau = 1, <= 6 nodes" 256
    (Edit_ball.sweep ~mode:Two_layer_index.Paper_rank ~labels ~tau:1
       (Edit_ball.trees_upto labels 6))

(* [Size_bands.probe] against a linear scan: an indexed tree is a
   candidate iff its size is in the window and it is sub-δ, or one of
   its subgraphs matches the probe tree at a node inside that subgraph's
   postorder window for the mode (the twig filter is implied by
   [Subgraph.matches]).  The trees are built directly with [Tree.node]
   on label ids past 2^40 that agree with small ids in their low bits,
   and on ids whose index keys collide with a small id's one position or
   one size further ([2^21 + 1], [2^42 + 1]): a key that drops or
   aliases wide fields adds or loses candidates. *)
let wide_labels =
  [| 1; 2; (1 lsl 21) + 1; (1 lsl 40) + 1; (1 lsl 40) + 2; (1 lsl 42) + 1; max_int |]

let mode_name = function
  | Two_layer_index.Start_window -> "start"
  | Two_layer_index.Paper_rank -> "paper-rank"
  | Two_layer_index.Label_only -> "label-only"

let rec show_wide (x : Tree.t) =
  Printf.sprintf "{%d%s}" x.Tree.label (String.concat "" (List.map show_wide x.Tree.children))

let reference_candidates mode ~tau indexed b ~lo ~hi =
  let m = b.Binary_tree.size and delta = (2 * tau) + 1 in
  let in_window (s : Subgraph.t) v =
    let p = b.Binary_tree.gpost.(v) and pk = s.Subgraph.root_gpost in
    let shift_end = abs (m - 1 - p - (s.Subgraph.tree_size - 1 - pk)) in
    match mode with
    | Two_layer_index.Start_window -> abs (p - pk) <= tau
    | Two_layer_index.Paper_rank -> shift_end <= tau - (s.Subgraph.rank / 2)
    | Two_layer_index.Label_only -> true
  in
  List.filter_map
    (fun (id, bt) ->
      let n = bt.Binary_tree.size in
      let candidate =
        lo <= n && n <= hi
        && (n < delta
           || Array.exists
                (fun s ->
                  List.exists
                    (fun v -> in_window s v && Subgraph.matches s b v)
                    (List.init m Fun.id))
                (Subgraph.of_partition ~tree_id:id (Partition.partition bt ~delta)))
      in
      if candidate then Some id else None)
    indexed

let arb_probe_case =
  QCheck.make
    ~print:(fun (mode, tau, trees, q) ->
      Printf.sprintf "mode=%s tau=%d trees=[%s] probe=%s"
        (mode_name mode)
        tau
        (String.concat " " (List.map show_wide trees))
        (show_wide q))
    (fun st ->
      let rng = Prng.create (Random.State.int st 0x3FFFFFFF) in
      let mode =
        Prng.choice rng
          [| Two_layer_index.Start_window; Two_layer_index.Paper_rank; Two_layer_index.Label_only |]
      in
      let tau = Prng.int rng 3 in
      let trees =
        List.init (2 + Prng.int rng 20) (fun _ ->
            Gen.random_tree ~labels:wide_labels rng (1 + Prng.int rng 14))
      in
      (* Half the probes are near copies of an indexed tree, so the
         windows and twigs decide, not the labels alone. *)
      let q =
        if Prng.bool rng then
          snd
            (Edit_op.random_script rng ~labels:wide_labels (Prng.int rng (tau + 1))
               (List.nth trees (Prng.int rng (List.length trees))))
        else Gen.random_tree ~labels:wide_labels rng (1 + Prng.int rng 14)
      in
      (mode, tau, trees, q))

let prop_probe_matches_linear_scan =
  Gen.qtest ~count:300 "Size_bands.probe = linear scan (all modes, wide labels)"
    arb_probe_case (fun (mode, tau, trees, q) ->
      let bands = Size_bands.create ~mode ~tau () in
      let indexed = List.mapi (fun id x -> (id, lcrs x)) trees in
      List.iter (fun (id, bt) -> ignore (Size_bands.insert bands id bt)) indexed;
      let b = lcrs q in
      let lo = b.Binary_tree.size - tau and hi = b.Binary_tree.size + tau in
      let got = (Size_bands.probe bands ~lo ~hi b).Size_bands.candidates in
      List.sort compare got = reference_candidates mode ~tau indexed b ~lo ~hi
      && List.length (List.sort_uniq compare got) = List.length got)

(* --- the compact subgraph encoding --- *)

(* Subgraph matching as the partition defines it, on the LC-RS tree and
   the component map [a] (the form [Subgraph.t] held before it became
   an int code): same labels and edges at every component node, any child
   behind a bridging edge, and a root that keeps whether it has an
   incoming edge but not that edge's left/right category (DESIGN.md,
   finding 3). *)
let ref_matches (p : Partition.t) a k (target : Binary_tree.t) v =
  let src = p.Partition.btree in
  let root = p.Partition.roots.(k) in
  let rec walk u v =
    src.Binary_tree.label.(u) = target.Binary_tree.label.(v)
    && check src.Binary_tree.left.(u) target.Binary_tree.left.(v)
    && check src.Binary_tree.right.(u) target.Binary_tree.right.(v)
  and check uc vc =
    if uc < 0 then vc < 0 else if a.(uc) <> k then vc >= 0 else vc >= 0 && walk uc vc
  in
  (root = Binary_tree.root src) = (v = Binary_tree.root target) && walk root v

(* A serialization of what [ref_matches] reads of component [k]: two
   components with the same one match at the same nodes. *)
let ref_signature (p : Partition.t) a k =
  let src = p.Partition.btree in
  let buf = Buffer.create 32 in
  let rec emit u =
    Buffer.add_string buf (string_of_int src.Binary_tree.label.(u));
    List.iter
      (fun c ->
        if c < 0 then Buffer.add_char buf '.'
        else if a.(c) <> k then Buffer.add_char buf '|'
        else begin
          Buffer.add_char buf '(';
          emit c;
          Buffer.add_char buf ')'
        end)
      [ src.Binary_tree.left.(u); src.Binary_tree.right.(u) ]
  in
  let root = p.Partition.roots.(k) in
  Buffer.add_char buf (if root = Binary_tree.root src then 'R' else 'C');
  emit root;
  Buffer.contents buf

(* The partition cutting the edges into [cuts] (child endpoints,
   ascending), as [Partition.random_partition] builds one. *)
let partition_of_cuts (b : Binary_tree.t) cuts =
  let n = b.Binary_tree.size and delta = List.length cuts + 1 in
  let subtree_size = Binary_tree.subtree_sizes b in
  let assignment = Array.make n (delta - 1) in
  let assigned = Array.make n false in
  List.iteri
    (fun k root ->
      for v = root - subtree_size.(root) + 1 to root do
        if not assigned.(v) then begin
          assignment.(v) <- k;
          assigned.(v) <- true
        end
      done)
    cuts;
  let sizes = Array.make delta 0 in
  Array.iter (fun k -> sizes.(k) <- sizes.(k) + 1) assignment;
  { Partition.btree = b; delta; gamma = 0; roots = Array.of_list (cuts @ [ n - 1 ]); sizes }

let rec choose k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest -> List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest

(* Every component of every δ-partitioning (δ = 3, 5) of every ordered
   tree of <= 6 nodes over {a, b}: [Subgraph.matches] agrees with
   [ref_matches] at every node of every such tree.  Components that
   read alike (same [ref_signature]) must get the same code, and then
   one of them stands for all. *)
let test_compact_encoding_exhaustive () =
  let labels = List.map Tsj_tree.Label.intern [ "a"; "b" ] in
  let trees = List.map lcrs (Edit_ball.trees_upto labels 6) in
  let codes = Hashtbl.create 4096 in
  let reps = ref [] in
  let n_components = ref 0 in
  List.iter
    (fun (b : Binary_tree.t) ->
      List.iter
        (fun delta ->
          if b.Binary_tree.size >= delta then
            List.iter
              (fun cuts ->
                let p = partition_of_cuts b cuts in
                let a = Partition.assignment p in
                Array.iter
                  (fun (s : Subgraph.t) ->
                    incr n_components;
                    let k = a.(s.Subgraph.root) in
                    let signature = ref_signature p a k in
                    match Hashtbl.find_opt codes signature with
                    | Some code ->
                      if code <> s.Subgraph.code then
                        Alcotest.failf "component %s encoded two ways" signature
                    | None ->
                      Hashtbl.add codes signature s.Subgraph.code;
                      reps := (s, p, a, k, signature) :: !reps)
                  (Subgraph.of_partition ~tree_id:0 p))
              (choose (delta - 1) (List.init (b.Binary_tree.size - 1) Fun.id)))
        [ 3; 5 ])
    trees;
  Alcotest.(check bool) "every partitioning enumerated" true (!n_components > 150_000);
  List.iter
    (fun (s, p, a, k, signature) ->
      List.iter
        (fun (target : Binary_tree.t) ->
          for v = 0 to target.Binary_tree.size - 1 do
            if Subgraph.matches s target v <> ref_matches p a k target v then
              Alcotest.failf "component %s at node %d of %s: matches = %b" signature v
                (Bracket.to_string (Binary_tree.to_tree target))
                (Subgraph.matches s target v)
          done)
        trees)
    !reps

(* --- the flat index against a list-based model --- *)

(* The index as a list: every posting [insert] makes, newest first,
   with its bucket, its window clipped to that bucket, and its exact
   fields.  [model_probe] is [probe]'s contract read literally: size
   bands (width 2τ + 1) ascending, then nodes, then the node's distinct
   twig variants (ll, lr), (ll, ε), (ε, lr), (ε, ε) whose shape (which
   slots are set) some posting has, each variant's postings newest
   first, those in the bucket of the node's coordinate whose window
   holds it. *)
type model_posting = {
  m_size : int;
  m_bucket : int;
  m_first : int;
  m_last : int;
  m_key : int * int * int;
  m_sub : Subgraph.t;
}

(* Centre and half-width of a subgraph's window in the mode's
   coordinate. *)
let model_window mode ~tau (s : Subgraph.t) =
  match mode with
  | Two_layer_index.Start_window -> (s.Subgraph.root_gpost, tau)
  | Two_layer_index.Paper_rank ->
    (s.Subgraph.tree_size - 1 - s.Subgraph.root_gpost, tau - (s.Subgraph.rank / 2))
  | Two_layer_index.Label_only -> (0, 0)

let model_coordinate mode (b : Binary_tree.t) v =
  match mode with
  | Two_layer_index.Start_window -> b.Binary_tree.gpost.(v)
  | Two_layer_index.Paper_rank -> b.Binary_tree.size - 1 - b.Binary_tree.gpost.(v)
  | Two_layer_index.Label_only -> 0

(* One posting per bucket that a position of the window falls in, over
   the window's positions from 0 on. *)
let model_insert mode ~tau model (s : Subgraph.t) =
  let w = (2 * tau) + 1 and c, h = model_window mode ~tau s in
  let positions =
    List.filter (fun x -> x >= 0) (List.init (max 0 ((2 * h) + 1)) (fun i -> c - h + i))
  in
  let buckets = List.sort_uniq compare (List.map (fun x -> x / w) positions) in
  List.rev_map
    (fun bucket ->
      let inside = List.filter (fun x -> x / w = bucket) positions in
      {
        m_size = s.Subgraph.tree_size;
        m_bucket = bucket;
        m_first = List.fold_left min max_int inside;
        m_last = List.fold_left max min_int inside;
        m_key = Subgraph.label_key s;
        m_sub = s;
      })
    buckets
  @ model

let model_shape (left, right) =
  (left <> Tsj_tree.Label.epsilon, right <> Tsj_tree.Label.epsilon)

let model_probe mode ~tau model (b : Binary_tree.t) ~lo ~hi =
  let calls = ref [] in
  let n = b.Binary_tree.size and w = (2 * tau) + 1 in
  let child lane v =
    if lane.(v) < 0 then Tsj_tree.Label.epsilon else b.Binary_tree.label.(lane.(v))
  in
  let held =
    List.map (fun m -> let _, left, right = m.m_key in model_shape (left, right)) model
  in
  let scan band p v =
    let e = Tsj_tree.Label.epsilon in
    let ll = child b.Binary_tree.left v and lr = child b.Binary_tree.right v in
    let variants =
      List.fold_left
        (fun acc x ->
          if List.mem x acc || not (List.mem (model_shape x) held) then acc else acc @ [ x ])
        [] [ (ll, lr); (ll, e); (e, lr); (e, e) ]
    in
    List.iter
      (fun (vl, vr) ->
        List.iter
          (fun m ->
            let label, left, right = m.m_key in
            if
              m.m_size / w = band && lo <= m.m_size && m.m_size <= hi
              && m.m_bucket = p / w && m.m_first <= p && p <= m.m_last
              && label = b.Binary_tree.label.(v)
              && left = vl && right = vr
            then calls := (m.m_sub.Subgraph.tree_id, v) :: !calls)
          model)
      variants
  in
  for band = max 1 lo / w to hi / w do
    for v = 0 to n - 1 do
      scan band (model_coordinate mode b v) v
    done
  done;
  List.rev !calls

(* Synthetic subgraphs: a root twig encoded directly, with positions,
   sizes and labels chosen so that packed keys collide: a position in
   bucket 2^21 and past packs like the next size band, a label past
   2^21 like the next bucket, one past 2^42 like the next band. *)
let collide_offsets ~tau =
  Array.map (( * ) ((2 * tau) + 1)) [| 0; 1 lsl 21; (1 lsl 21) - 1; 1 lsl 42 |]

(* Labels whose twig terms cancel a band or twig-variant difference.
   [key] adds [left * m1 + right * m2] (mod 2^63) with odd [m1], [m2],
   so the inverse of [m1] solves for a left label:
   - [band_up] (or [band_down]) as a node's left child makes the key of
     its (ll, ε) variant in band b + 1 (b - 1) the key of an (ε, ε)
     posting in band b: the walk meets a posting outside its band, which
     only the band clamp of [visit]'s size check drops;
   - [twig_left] as a posting's left slot makes its (twig_left, ε) key
     the key of a node's (ε, twig_right) variant: the walk meets a
     posting whose twig cannot match, which only [visit]'s twig check
     drops.
   [twig_left] is never a probed label, so no node's own variants share
   a key (checked below); the model walks each variant's postings in
   turn, which holds only then. *)
let inverse m =
  let x = ref m in
  for _ = 1 to 6 do
    x := !x * (2 - (m * !x))
  done;
  !x

let twig_key ~band ~left ~right = Two_layer_index.key ~band ~bucket:0 ~label:0 ~left ~right
let m1 = twig_key ~band:0 ~left:1 ~right:0 - twig_key ~band:0 ~left:0 ~right:0
let m2 = twig_key ~band:0 ~left:0 ~right:1 - twig_key ~band:0 ~left:0 ~right:0
let band_step = twig_key ~band:1 ~left:0 ~right:0 - twig_key ~band:0 ~left:0 ~right:0
let band_up = -band_step * inverse m1
let band_down = band_step * inverse m1
let twig_right = 3
let twig_left = twig_right * m2 * inverse m1
let posting_labels = Array.append wide_labels [| twig_left; twig_right |]
let probed_labels = Array.append wide_labels [| band_up; band_down; twig_right |]

let test_colliding_labels () =
  let key = Two_layer_index.key ~bucket:5 ~label:7 in
  Alcotest.(check int) "band_up" (key ~band:3 ~left:0 ~right:0)
    (key ~band:4 ~left:band_up ~right:0);
  Alcotest.(check int) "band_down" (key ~band:3 ~left:0 ~right:0)
    (key ~band:2 ~left:band_down ~right:0);
  Alcotest.(check int) "twig_left" (key ~band:3 ~left:0 ~right:twig_right)
    (key ~band:3 ~left:twig_left ~right:0);
  let e = Tsj_tree.Label.epsilon in
  Array.iter
    (fun ll ->
      Array.iter
        (fun lr ->
          let variants =
            List.sort_uniq compare [ (ll, lr); (ll, e); (e, lr); (e, e) ]
          in
          let keys =
            List.sort_uniq compare
              (List.map (fun (left, right) -> key ~band:3 ~left ~right) variants)
          in
          if List.length keys <> List.length variants then
            Alcotest.failf "probed twig (%d, %d): two variants share a key" ll lr)
        (Array.append [| e |] probed_labels))
    (Array.append [| e |] probed_labels)

let twig_code rng =
  let label () = Prng.choice rng posting_labels in
  let side () =
    match Prng.int rng 3 with
    | 0 -> (0, [])
    | 1 -> (1, [])
    | _ -> (2, [ label (); 0 ])
  in
  let lk, lc = side () and rk, rc = side () in
  Array.of_list ((Prng.int rng 2 :: label () :: (lk lor (rk lsl 2)) :: lc) @ rc)

let arb_index_case =
  QCheck.make
    ~print:(fun (seed, mode, tau, n) ->
      Printf.sprintf "seed=%d mode=%s tau=%d subgraphs=%d" seed
        (mode_name mode)
        tau n)
    (fun st ->
      ( Random.State.int st 0x3FFFFFFF,
        [| Two_layer_index.Start_window; Two_layer_index.Paper_rank; Two_layer_index.Label_only |].(Random.State.int st 3),
        Random.State.int st 4,
        200 + Random.State.int st 800 ))

let prop_probe_matches_model =
  Gen.qtest ~count:40 "Two_layer_index.probe = list model (f calls, in order)"
    arb_index_case (fun (seed, mode, tau, n) ->
      let rng = Prng.create seed in
      let idx = Two_layer_index.create ~mode ~tau () in
      let model = ref [] in
      let base_sizes = [| 3; 5; (1 lsl 21) + 3 |] in
      (* One twig shape in five cases is left out of the index, so the
         probe skips its variants. *)
      let dropped =
        List.nth
          [ Some (false, false); Some (true, false); Some (false, true); Some (true, true); None ]
          (Prng.int rng 5)
      in
      let rec subgraph id =
        let code = twig_code rng in
        let s =
          {
            Subgraph.tree_id = id;
            tree_size = Prng.choice rng base_sizes + Prng.int rng 3;
            root = 0;
            root_gpost = Prng.choice rng (collide_offsets ~tau) + Prng.int rng 6;
            rank = 1 + Prng.int rng 5;
            n_nodes = (Array.length code - 1) / 2;
            code;
          }
        in
        let _, left, right = Subgraph.label_key s in
        if Some (model_shape (left, right)) = dropped then subgraph id else s
      in
      for id = 0 to n - 1 do
        let s = subgraph id in
        Two_layer_index.insert idx s;
        model := model_insert mode ~tau !model s
      done;
      List.for_all
        (fun _ ->
          let tree = Gen.random_tree ~labels:probed_labels rng (1 + Prng.int rng 7) in
          let b = lcrs tree in
          let shift = Prng.choice rng (collide_offsets ~tau) in
          let b = { b with Binary_tree.gpost = Array.map (( + ) shift) b.Binary_tree.gpost } in
          let size = Prng.choice rng base_sizes + Prng.int rng 3 in
          let lo = size - Prng.int rng 3 and hi = size + Prng.int rng 3 in
          let got = ref [] in
          Two_layer_index.probe idx (Two_layer_index.cursor b) ~lo ~hi (fun s v ->
              got := (s.Subgraph.tree_id, v) :: !got);
          List.rev !got = model_probe mode ~tau !model b ~lo ~hi)
        (List.init 8 Fun.id))

(* Real subgraphs of shape (ε, ε): a tree of δ to 2δ - 1 nodes is
   partitioned with γ = 1, so some components are single nodes, a twig
   shape the subgraphs of larger trees seldom have.  The index holds
   them beside the other shapes, and each probe must call [f] as the
   list model does. *)
let test_probe_model_empty_twigs () =
  let rng = Prng.create 34 in
  List.iter
    (fun (mode, tau) ->
      let delta = (2 * tau) + 1 in
      let idx = Two_layer_index.create ~mode ~tau () and model = ref [] in
      let trees = Array.init 60 (fun _ -> Gen.random_tree rng (delta + Prng.int rng delta)) in
      Array.iteri
        (fun id x ->
          Array.iter
            (fun s ->
              Two_layer_index.insert idx s;
              model := model_insert mode ~tau !model s)
            (Subgraph.of_partition ~tree_id:id (Partition.partition (lcrs x) ~delta)))
        trees;
      let empty s =
        let _, left, right = Subgraph.label_key s in
        model_shape (left, right) = (false, false)
      in
      if not (List.exists (fun m -> empty m.m_sub) !model) then
        Alcotest.failf "tau = %d: no subgraph of shape (ε, ε)" tau;
      let empty_calls = ref 0 in
      Array.iter
        (fun x ->
          let b = lcrs x in
          let size = b.Binary_tree.size in
          let got = ref [] in
          Two_layer_index.probe idx (Two_layer_index.cursor b) ~lo:(size - tau) ~hi:(size + tau)
            (fun s v ->
              if empty s then incr empty_calls;
              got := (s.Subgraph.tree_id, v) :: !got);
          if List.rev !got <> model_probe mode ~tau !model b ~lo:(size - tau) ~hi:(size + tau)
          then Alcotest.failf "tau = %d: probe of %s differs from the list model" tau
                 (Bracket.to_string x))
        trees;
      if !empty_calls = 0 then Alcotest.failf "tau = %d: no (ε, ε) subgraph reached" tau)
    (List.concat_map
       (fun mode -> List.map (fun tau -> (mode, tau)) [ 0; 1; 2; 3 ])
       [ Two_layer_index.Start_window; Two_layer_index.Paper_rank; Two_layer_index.Label_only ])

(* A window that straddles two position buckets is registered in both.
   For each mode and τ = 1..3, a subgraph whose window [[c − h, c + h]]
   starts in one bucket of 2τ + 1 positions and ends in the next is
   found from its own root node placed at either end of the window, and
   not one position past either end.  [Label_only] keys every subgraph
   at position 0 with h = 0, so both ends are position 0. *)
let test_probe_window_across_buckets () =
  let rng = Prng.create 36 in
  List.iter
    (fun (mode, tau) ->
      let w = (2 * tau) + 1 in
      let b = lcrs (Gen.random_tree rng (4 * w)) in
      let n = b.Binary_tree.size in
      let s = (Subgraph.of_partition ~tree_id:0 (Partition.partition b ~delta:w)).(0) in
      (* Centre c on the first position of bucket 3, so that c − τ lies
         in bucket 2; rank 0 gives [Paper_rank] h = τ too. *)
      let c = 3 * w in
      let s =
        match mode with
        | Two_layer_index.Start_window -> { s with Subgraph.root_gpost = c }
        | Two_layer_index.Paper_rank -> { s with Subgraph.root_gpost = n - 1 - c; rank = 0 }
        | Two_layer_index.Label_only -> s
      in
      let c, h = model_window mode ~tau s in
      if mode <> Two_layer_index.Label_only && (c - h) / w = (c + h) / w then
        Alcotest.failf "tau = %d: the window does not straddle a bucket boundary" tau;
      let idx = Two_layer_index.create ~mode ~tau () in
      Two_layer_index.insert idx s;
      let root = s.Subgraph.root in
      (* The probe tree is [b] with its postorder numbers shifted so that
         [root]'s coordinate is [at]. *)
      let finds at =
        let g =
          match mode with
          | Two_layer_index.Paper_rank -> n - 1 - at
          | Two_layer_index.Start_window | Two_layer_index.Label_only -> at
        in
        let shift = g - b.Binary_tree.gpost.(root) in
        let b' = { b with Binary_tree.gpost = Array.map (( + ) shift) b.Binary_tree.gpost } in
        let found = ref false in
        Two_layer_index.probe idx (Two_layer_index.cursor b') ~lo:n ~hi:n (fun _ v ->
            if v = root then found := true);
        !found
      in
      let name = mode_name mode in
      if not (finds (c - h)) then Alcotest.failf "%s, tau = %d: missed from c - h" name tau;
      if not (finds (c + h)) then Alcotest.failf "%s, tau = %d: missed from c + h" name tau;
      if mode <> Two_layer_index.Label_only then begin
        if finds (c - h - 1) then Alcotest.failf "%s, tau = %d: found from c - h - 1" name tau;
        if finds (c + h + 1) then Alcotest.failf "%s, tau = %d: found from c + h + 1" name tau
      end)
    (List.concat_map
       (fun mode -> List.map (fun tau -> (mode, tau)) [ 1; 2; 3 ])
       [ Two_layer_index.Start_window; Two_layer_index.Paper_rank; Two_layer_index.Label_only ])

(* --- memory --- *)

(* Words the streaming index holds per stored node, on 400 generated
   swissprot trees at τ = 2.  Subgraphs that kept their tree's LC-RS form
   and component map, with boxed postings, read 27.2 here; the compact
   subgraphs and flat postings read 19.2, and 19.1 once one walk built
   every form.  A presence filter of 32 to 64 bits per key read 19.3.
   One key table, with each subgraph in the one or two position buckets
   its window meets, reads 17.12 (six postings a subgraph in two tables
   read 19.27).  The bound is that reading plus 5%: a subgraph that
   retains the LC-RS tree again (four arrays a node), or a return to six
   postings a subgraph, crosses it. *)
let test_incremental_words_per_node () =
  let trees = Tsj_datagen.Profiles.instantiate Tsj_datagen.Profiles.swissprot ~seed:25 ~n:400 in
  let inc = Tsj_core.Incremental.create ~tau:2 () in
  Array.iter (fun x -> ignore (Tsj_core.Incremental.add inc x)) trees;
  let nodes = Array.fold_left (fun acc x -> acc + Tree.size x) 0 trees in
  let per_node = float_of_int (Obj.reachable_words (Obj.repr inc)) /. float_of_int nodes in
  let bound = 17.12 *. 1.05 in
  if per_node > bound then
    Alcotest.failf "Incremental holds %.2f words per stored node (bound %.2f)" per_node bound

let test_index_counters () =
  let b = bt "{a{b{c{d}{e}}}{f}{g{h{i{j}}}}}" in
  let p = Partition.partition b ~delta:3 in
  let idx = Two_layer_index.create ~tau:1 () in
  Array.iter (Two_layer_index.insert idx) (Subgraph.of_partition ~tree_id:0 p);
  Alcotest.(check int) "three subgraphs" 3 (Two_layer_index.n_subgraphs idx);
  Alcotest.(check bool) "buckets exist" true (Two_layer_index.n_groups idx >= 3)

let test_index_rejects_negative_tau () =
  Alcotest.check_raises "negative tau"
    (Invalid_argument "Two_layer_index.create: negative threshold") (fun () ->
      ignore (Two_layer_index.create ~tau:(-1) ()))

let test_index_exact_duplicate_found () =
  (* tau = 0: only exact matches; a duplicate tree must be found, a
     renamed one must not produce any matching probe. *)
  let x = t "{a{b{c}}{d}}" in
  let b = lcrs x in
  let p = Partition.partition b ~delta:1 in
  let idx = Two_layer_index.create ~tau:0 () in
  Array.iter (Two_layer_index.insert idx) (Subgraph.of_partition ~tree_id:5 p);
  let probe_matches target =
    let tb = lcrs target in
    let found = ref false in
    let size = tb.Binary_tree.size in
    Two_layer_index.probe idx (Two_layer_index.cursor tb) ~lo:size ~hi:size (fun s v ->
        if Subgraph.matches s tb v then found := true);
    !found
  in
  Alcotest.(check bool) "duplicate found" true (probe_matches (t "{a{b{c}}{d}}"));
  Alcotest.(check bool) "different tree not matched" false
    (probe_matches (t "{a{b{x}}{d}}"))

(* --- one walk against the builders it replaced --- *)

(* Every form {!Tsj_tree.Form.of_tree} fills, the LC-RS form
   {!Tsj_tree.Binary_tree.of_postorder} derives from its postorder, and
   the partition and subgraph codes read off that LC-RS form at δ = 3, 5
   and 7, equal the reference builders' ([Form_reference]). *)
let check_one_walk x =
  let module R = Form_reference in
  let f = Tsj_tree.Form.of_tree x in
  let fail what = Alcotest.failf "one walk: %s differs on %s" what (Bracket.to_string x) in
  let left, mirror = R.postorders x in
  if f.left <> left then fail "the postorder";
  if f.mirror <> mirror then fail "the mirror's postorder";
  if f.degrees <> R.degrees left then fail "the degree histogram";
  let bag = Tsj_util.Multiset.(to_array (of_unsorted f.left.labels)) in
  if Array.to_list bag <> R.sorted_bag left.labels then fail "the label bag";
  let b = R.lcrs x and lcrs = Binary_tree.of_postorder f.left in
  if lcrs <> b then fail "the LC-RS form derived from the postorder";
  List.iter
    (fun delta ->
      if b.size >= delta then begin
        let p = Partition.partition lcrs ~delta and r = R.partition b ~delta in
        if
          p.gamma <> r.gamma || p.roots <> r.roots
          || Partition.assignment p <> r.assignment
          || Partition.component_sizes p
             <> Array.init delta (fun k ->
                    Array.fold_left (fun c k' -> if k' = k then c + 1 else c) 0 r.assignment)
        then fail (Printf.sprintf "the partition at delta = %d" delta);
        if Subgraph.of_partition ~tree_id:7 p <> R.subgraphs ~tree_id:7 b r then
          fail (Printf.sprintf "a subgraph code at delta = %d" delta)
      end)
    [ 3; 5; 7 ]

let test_one_walk_exhaustive () =
  let labels = List.map Tsj_tree.Label.intern [ "a"; "b" ] in
  List.iter check_one_walk (Edit_ball.trees_upto labels 7)

let test_one_walk_profiles () =
  List.iter
    (fun profile ->
      Array.iter check_one_walk (Tsj_datagen.Profiles.instantiate profile ~seed:32 ~n:60))
    Tsj_datagen.Profiles.all

let suite =
  [
    Alcotest.test_case "partitionable chain" `Quick test_partitionable_chain;
    Alcotest.test_case "partitionable star" `Quick test_partitionable_star;
    Alcotest.test_case "partitionable arg checks" `Quick test_partitionable_args;
    Alcotest.test_case "paper fig. 8 imbalance" `Quick test_paper_unbalanced_example;
    Alcotest.test_case "max_min_size small trees" `Quick test_max_min_size_small;
    prop_max_min_size_matches_brute_force;
    prop_partition_invariants;
    prop_random_partition_invariants;
    Alcotest.test_case "partition delta=1" `Quick test_partition_delta_one;
    Alcotest.test_case "subgraph self match" `Quick test_subgraph_self_match;
    Alcotest.test_case "subgraph ranks and keys" `Quick test_subgraph_ranks_and_keys;
    Alcotest.test_case "subgraph rename sensitivity" `Quick test_subgraph_no_match_on_label_change;
    prop_lemma2_balanced;
    prop_lemma2_random;
    prop_index_completeness;
    Alcotest.test_case "paper rank windows incomplete (pinned)" `Quick
      test_paper_rank_windows_incomplete;
    Alcotest.test_case "lemma 1 deletion fix (pinned)" `Quick
      test_lemma1_deletion_regression;
    Alcotest.test_case "edit-ball sweep (exhaustive)" `Quick test_edit_ball_sweep;
    prop_probe_matches_linear_scan;
    Alcotest.test_case "index counters" `Quick test_index_counters;
    Alcotest.test_case "index rejects negative tau" `Quick test_index_rejects_negative_tau;
    Alcotest.test_case "index exact duplicates (tau=0)" `Quick test_index_exact_duplicate_found;
    Alcotest.test_case "compact subgraph encoding (exhaustive)" `Quick
      test_compact_encoding_exhaustive;
    Alcotest.test_case "list-model labels make keys collide" `Quick test_colliding_labels;
    prop_probe_matches_model;
    Alcotest.test_case "incremental words per stored node" `Quick
      test_incremental_words_per_node;
    Alcotest.test_case "one walk = reference builders (exhaustive)" `Quick
      test_one_walk_exhaustive;
    Alcotest.test_case "one walk = reference builders (profiles)" `Quick
      test_one_walk_profiles;
    Alcotest.test_case "Two_layer_index.probe = list model on (ε, ε) twigs" `Quick
      test_probe_model_empty_twigs;
    Alcotest.test_case "probe finds a window across a bucket boundary" `Quick
      test_probe_window_across_buckets;
  ]
