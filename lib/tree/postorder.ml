type t = {
  size : int;
  labels : int array;
  lld : int array;
  keyroots : int array;
}

(* A node is an LR-keyroot iff no proper ancestor shares its lld; i.e. it
   is the highest node of its left path.  Equivalently: the root, plus
   every node that is not the leftmost child of its parent — which both
   walks below know when they number a node, so the keyroots come out in
   ascending postorder without a parent array. *)

let of_tree tree =
  let n = Tree.size tree in
  let labels = Array.make n 0 in
  let lld = Array.make n 0 in
  let keyroots = Tsj_util.Vec_int.create () in
  let counter = ref 0 in
  (* Numbers the subtree and returns its root's leftmost leaf
     descendant; [first] says whether it is its parent's first child. *)
  let rec go ~first (node : Tree.t) =
    let first_lld = ref (-1) in
    List.iteri
      (fun c child ->
        let l = go ~first:(c = 0) child in
        if c = 0 then first_lld := l)
      node.children;
    let me = !counter in
    incr counter;
    labels.(me) <- node.label;
    let my_lld = if !first_lld < 0 then me else !first_lld in
    lld.(me) <- my_lld;
    if not first then Tsj_util.Vec_int.push keyroots me;
    my_lld
  in
  ignore (go ~first:false tree);
  { size = n; labels; lld; keyroots = Tsj_util.Vec_int.to_array keyroots }

let n_leaves t =
  let count = ref 0 in
  for i = 0 to t.size - 1 do
    if t.lld.(i) = i then incr count
  done;
  !count

let subtree_size t i = i - t.lld.(i) + 1

let keyroot_cost t =
  Array.fold_left (fun acc k -> acc + subtree_size t k) 0 t.keyroots
