type t = {
  size : int;
  labels : int array;
  lld : int array;
  keyroots : int array;
}

(* A node is an LR-keyroot iff no proper ancestor shares its lld; i.e. it
   is the highest node of its left path.  Equivalently: the root, plus
   every node that is not the leftmost child of its parent — which the
   walk below knows when it numbers a node, so the keyroots come out in
   ascending postorder without a parent array.

   The mirror's postorder is the preorder reversed: node [x] with
   preorder number [pre] is mirror node [n - 1 - pre].  Its mirror
   subtree holds the same nodes, so its mirror lld is its mirror id less
   its subtree size plus one, and it is a mirror keyroot iff it is the
   root or not its parent's last child.  One walk fills both forms. *)
let both tree =
  let n = Tree.size tree in
  let labels = Array.make n 0 and lld = Array.make n 0 in
  let m_labels = Array.make n 0 and m_lld = Array.make n 0 in
  let keyroots = Tsj_util.Vec_int.create () and m_keyroots = Tsj_util.Vec_int.create () in
  let post = ref 0 and pre = ref 0 in
  (* Numbers the subtree and returns its root's leftmost leaf
     descendant. *)
  let rec go ~first ~last (node : Tree.t) =
    let m = n - 1 - !pre in
    incr pre;
    m_labels.(m) <- node.label;
    if not last then Tsj_util.Vec_int.push m_keyroots m;
    let my_lld =
      match node.children with
      | [] -> !post
      | c :: rest ->
        let l = go ~first:true ~last:(rest = []) c in
        siblings rest;
        l
    in
    let me = !post in
    incr post;
    labels.(me) <- node.label;
    lld.(me) <- my_lld;
    m_lld.(m) <- m - me + my_lld;
    if not first then Tsj_util.Vec_int.push keyroots me;
    my_lld
  and siblings = function
    | [] -> ()
    | c :: rest ->
      ignore (go ~first:false ~last:(rest = []) c);
      siblings rest
  in
  ignore (go ~first:false ~last:false tree);
  (* Mirror keyroots were met in preorder, so in descending mirror id. *)
  let m_keyroots = Tsj_util.Vec_int.to_array m_keyroots in
  let k = Array.length m_keyroots in
  let m_keyroots = Array.init k (fun i -> m_keyroots.(k - 1 - i)) in
  ( { size = n; labels; lld; keyroots = Tsj_util.Vec_int.to_array keyroots },
    { size = n; labels = m_labels; lld = m_lld; keyroots = m_keyroots } )

let of_tree tree = fst (both tree)

let n_leaves t =
  let count = ref 0 in
  for i = 0 to t.size - 1 do
    if t.lld.(i) = i then incr count
  done;
  !count

let subtree_size t i = i - t.lld.(i) + 1

let keyroot_cost t =
  Array.fold_left (fun acc k -> acc + subtree_size t k) 0 t.keyroots
