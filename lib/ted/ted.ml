module Tree = Tsj_tree.Tree
module Postorder = Tsj_tree.Postorder

type algorithm = Zs_left | Zs_right | Hybrid | Naive

type prep = {
  tree : Tree.t;
  size : int;
  left_po : Postorder.t;
  right_po : Postorder.t; (* postorder form of the mirrored tree *)
  left_cost : int;        (* keyroot cost of the left decomposition *)
  right_cost : int;
}

let preprocess tree =
  let left_po, right_po = Postorder.both tree in
  {
    tree;
    size = left_po.size;
    left_po;
    right_po;
    left_cost = Postorder.keyroot_cost left_po;
    right_cost = Postorder.keyroot_cost right_po;
  }

let tree p = p.tree

let size p = p.size

let left_postorder p = p.left_po

let right_postorder p = p.right_po

let distance_prep ?(algorithm = Hybrid) p1 p2 =
  match algorithm with
  | Zs_left -> Zhang_shasha.distance_postorder p1.left_po p2.left_po
  | Zs_right -> Zhang_shasha.distance_postorder p1.right_po p2.right_po
  | Naive -> Naive.distance p1.tree p2.tree
  | Hybrid ->
    (* Mirroring both trees is a bijection on edit scripts, so both
       decompositions yield the same distance; run the one with fewer
       relevant subproblems. *)
    if p1.left_cost * p2.left_cost <= p1.right_cost * p2.right_cost then
      Zhang_shasha.distance_postorder p1.left_po p2.left_po
    else Zhang_shasha.distance_postorder p1.right_po p2.right_po

let distance ?algorithm t1 t2 =
  distance_prep ?algorithm (preprocess t1) (preprocess t2)

let bounded_distance_prep ?(algorithm = Hybrid) p1 p2 k =
  match algorithm with
  | Zs_left -> Zhang_shasha.bounded_distance_postorder p1.left_po p2.left_po k
  | Zs_right -> Zhang_shasha.bounded_distance_postorder p1.right_po p2.right_po k
  | Naive -> min (Naive.distance p1.tree p2.tree) (k + 1)
  | Hybrid ->
    if p1.left_cost * p2.left_cost <= p1.right_cost * p2.right_cost then
      Zhang_shasha.bounded_distance_postorder p1.left_po p2.left_po k
    else Zhang_shasha.bounded_distance_postorder p1.right_po p2.right_po k

let within ?algorithm p1 p2 tau =
  if tau < 0 then false
  else if abs (p1.size - p2.size) > tau then false
  else bounded_distance_prep ?algorithm p1 p2 tau <= tau
