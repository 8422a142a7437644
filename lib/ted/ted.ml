module Tree = Tsj_tree.Tree

type prep = {
  tree : Tree.t;
  size : int;
  left_po : Tsj_tree.Postorder.t;
  right_po : Tsj_tree.Postorder.t; (* postorder form of the mirrored tree *)
}

let of_form tree (f : Tsj_tree.Form.t) =
  { tree; size = f.size; left_po = f.left; right_po = f.mirror }

let preprocess tree = of_form tree (Tsj_tree.Form.of_tree tree)

let tree p = p.tree

let size p = p.size

let left_postorder p = p.left_po

let right_postorder p = p.right_po

let bounded_distance_prep p1 p2 k =
  Zhang_shasha.bounded_distance_postorder p1.left_po p2.left_po k

(* TED <= |T1| + |T2| - 1, so the banded kernel at that band clamps
   nothing. *)
let distance_prep p1 p2 = bounded_distance_prep p1 p2 (p1.size + p2.size - 1)

let distance t1 t2 = distance_prep (preprocess t1) (preprocess t2)
