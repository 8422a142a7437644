module Binary_tree = Tsj_tree.Binary_tree
module Prng = Tsj_util.Prng

type t = {
  btree : Binary_tree.t;
  delta : int;
  gamma : int;
  roots : int array;
  sizes : int array;
}

(* Greedy γ-subtree cutting (paper Algorithm 2).  Node ids are postorder
   numbers and children have smaller ids than parents, so a single
   ascending loop is the postorder traversal.  [live.(i)] holds the
   nodes remaining in the subtree rooted at [i] after all the
   detachments so far (= size - detached of the paper); each cell is
   written before it is read, so one [live] serves every call on the
   tree.  The first [delta - 1] detached γ-subtrees (detection order is
   ascending postorder) write their roots, and their remaining sizes,
   which are their components' sizes, to [roots] and [sizes]. *)
let greedy_cut (b : Binary_tree.t) live roots sizes ~delta ~gamma =
  let n = b.Binary_tree.size in
  let found = ref 0 in
  let i = ref 0 in
  while !found < delta && !i < n do
    let node = !i in
    let l = b.Binary_tree.left.(node) and r = b.Binary_tree.right.(node) in
    let v = 1 + (if l >= 0 then live.(l) else 0) + (if r >= 0 then live.(r) else 0) in
    if v >= gamma then begin
      (* γ-subtree identified: detach it. *)
      if !found < delta - 1 then begin
        roots.(!found) <- node;
        sizes.(!found) <- v
      end;
      live.(node) <- 0;
      incr found
    end
    else live.(node) <- v;
    incr i
  done;
  !found >= delta

(* [live], [roots] and [sizes] for a [delta]-partitioning of [b]; the
   last root is the tree root. *)
let scratch (b : Binary_tree.t) ~delta =
  (Array.make b.Binary_tree.size 0, Array.make delta (b.Binary_tree.size - 1), Array.make delta 0)

let partitionable b ~delta ~gamma =
  if delta < 1 then invalid_arg "Partition.partitionable: delta must be >= 1";
  if gamma < 1 then invalid_arg "Partition.partitionable: gamma must be >= 1";
  gamma * delta <= b.Binary_tree.size
  &&
  let live, roots, sizes = scratch b ~delta in
  greedy_cut b live roots sizes ~delta ~gamma

let check_size name b ~delta =
  if delta < 1 then invalid_arg (Printf.sprintf "Partition.%s: delta must be >= 1" name);
  let n = b.Binary_tree.size in
  if n < delta then
    invalid_arg
      (Printf.sprintf "Partition.%s: tree of %d nodes has no %d-partitioning" name n delta)

(* Paper Algorithm 3: binary search on γ between the trivial upper bound
   ⌊n/δ⌋ and the always-feasible lower bound ⌊(n + δ - 1)/(2δ - 1)⌋.
   Leaves the cut at the γ found in the scratch. *)
let search b (live, roots, sizes) ~delta =
  let n = b.Binary_tree.size in
  let gamma_min = ref (max 1 ((n + delta - 1) / ((2 * delta) - 1))) in
  let c = ref ((n / delta) - !gamma_min + 1) in
  while !c > 1 do
    let gamma_mid = !gamma_min + (!c / 2) in
    if greedy_cut b live roots sizes ~delta ~gamma:gamma_mid then begin
      gamma_min := gamma_mid;
      c := !c - (!c / 2)
    end
    else c := !c / 2
  done;
  let ok = greedy_cut b live roots sizes ~delta ~gamma:!gamma_min in
  assert ok;
  !gamma_min

let max_min_size b ~delta =
  check_size "max_min_size" b ~delta;
  search b (scratch b ~delta) ~delta

(* The remainder of the final cut, which holds the tree root, is
   component [delta - 1]. *)
let partition b ~delta =
  check_size "max_min_size" b ~delta;
  let ((_, roots, sizes) as s) = scratch b ~delta in
  let gamma = search b s ~delta in
  sizes.(delta - 1) <- b.Binary_tree.size - Array.fold_left ( + ) 0 sizes;
  { btree = b; delta; gamma; roots; sizes }

(* Component k < delta - 1 is the subtree of its root minus the earlier
   cuts nested inside it; the rest is component delta - 1.  Because node
   ids are postorder numbers, the subtree of root r occupies exactly the
   contiguous id range [r - subtree_size(r) + 1, r]. *)
let assign (b : Binary_tree.t) roots =
  let delta = Array.length roots in
  let subtree_size = Binary_tree.subtree_sizes b in
  let a = Array.make b.Binary_tree.size (-1) in
  for k = 0 to delta - 2 do
    let root = roots.(k) in
    for v = root - subtree_size.(root) + 1 to root do
      if a.(v) < 0 then a.(v) <- k
    done
  done;
  Array.map (fun k -> if k < 0 then delta - 1 else k) a

let assignment p = assign p.btree p.roots

let random_partition rng b ~delta =
  check_size "random_partition" b ~delta;
  let n = b.Binary_tree.size in
  (* An edge is identified with its child endpoint: every node except the
     root has exactly one incoming edge.  Cut delta - 1 distinct ones. *)
  let children = Array.init (n - 1) (fun i -> i) in
  Prng.shuffle rng children;
  let cut_roots = Array.sub children 0 (delta - 1) in
  Array.sort compare cut_roots;
  let roots = Array.append cut_roots [| n - 1 |] in
  let sizes = Array.make delta 0 in
  Array.iter (fun k -> sizes.(k) <- sizes.(k) + 1) (assign b roots);
  { btree = b; delta; gamma = 0; roots; sizes }

let component_sizes p = Array.copy p.sizes

(* A removed edge is the incoming edge of a cut root. *)
let bridging_edges p =
  let parent = Binary_tree.parents p.btree in
  List.init (p.delta - 1) (fun k -> (parent.(p.roots.(k)), p.roots.(k)))
