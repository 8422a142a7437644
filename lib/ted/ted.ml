type prep = Tsj_tree.Form.t

let preprocess = Tsj_tree.Form.of_tree

let bounded_distance_prep (p1 : prep) (p2 : prep) k =
  Zhang_shasha.bounded_distance_postorder p1.left p2.left k

(* TED <= |T1| + |T2| - 1, so the banded kernel at that band clamps
   nothing. *)
let distance_prep (p1 : prep) (p2 : prep) = bounded_distance_prep p1 p2 (p1.size + p2.size - 1)

let distance t1 t2 = distance_prep (preprocess t1) (preprocess t2)
