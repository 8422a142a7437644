let preorder_labels t =
  let acc = Tsj_util.Vec_int.create ~capacity:(Tree.size t) () in
  Tree.iter_preorder (fun (n : Tree.t) -> Tsj_util.Vec_int.push acc n.label) t;
  Tsj_util.Vec_int.to_array acc

let postorder_labels t =
  let acc = Tsj_util.Vec_int.create ~capacity:(Tree.size t) () in
  Tree.iter_postorder (fun (n : Tree.t) -> Tsj_util.Vec_int.push acc n.label) t;
  Tsj_util.Vec_int.to_array acc
