module Tree = Tsj_tree.Tree
module Postorder = Tsj_tree.Postorder

type prep = {
  tree : Tree.t;
  size : int;
  left_po : Postorder.t;
  right_po : Postorder.t; (* postorder form of the mirrored tree *)
}

let of_form tree (f : Tsj_tree.Form.t) =
  { tree; size = f.size; left_po = f.left; right_po = f.mirror }

let preprocess tree = of_form tree (Tsj_tree.Form.of_tree tree)

let tree p = p.tree

let size p = p.size

let left_postorder p = p.left_po

let right_postorder p = p.right_po

(* Mirroring both trees is a bijection on edit scripts, so both
   decompositions yield the same distance; run the one with fewer
   relevant subproblems.  The keyroot costs are counted on the call:
   nothing else reads them. *)
let distance_prep p1 p2 =
  let cost = Postorder.keyroot_cost in
  if cost p1.left_po * cost p2.left_po <= cost p1.right_po * cost p2.right_po then
    Zhang_shasha.distance_postorder p1.left_po p2.left_po
  else Zhang_shasha.distance_postorder p1.right_po p2.right_po

let distance t1 t2 = distance_prep (preprocess t1) (preprocess t2)

(* The band, not the decomposition, bounds the banded kernel's cost, so
   it always runs on the left postorders. *)
let bounded_distance_prep p1 p2 k =
  Zhang_shasha.bounded_distance_postorder p1.left_po p2.left_po k
