type child_kind = Root | Left_of_parent | Right_of_parent

type t = {
  size : int;
  label : int array;
  left : int array;
  right : int array;
  parent : int array;
  kind : child_kind array;
  subtree_size : int array;
  gpost : int array;
}

(* One recursion over the sibling chains: [go node siblings] numbers
   the binary subtree of [node] — its general descendants (the left
   subtree), then its later siblings (the right subtree), then [node]
   itself — and returns [node]'s binary-postorder id.  The Knuth
   transform is a bijection on nodes, so each binary node keeps its
   source node's general-postorder number: the descendants come before
   it in general postorder and the later siblings after it, so it is
   numbered between the two subtrees. *)
let of_tree tree =
  let n = Tree.size tree in
  let label = Array.make n 0 in
  let left = Array.make n (-1) in
  let right = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let kind = Array.make n Root in
  let subtree_size = Array.make n 1 in
  let gpost = Array.make n 0 in
  let bcount = ref 0 and gcount = ref 0 in
  let attach me child k lane =
    lane.(me) <- child;
    parent.(child) <- me;
    kind.(child) <- k;
    subtree_size.(me) <- subtree_size.(me) + subtree_size.(child)
  in
  let rec go (node : Tree.t) siblings =
    let l = match node.children with [] -> -1 | c :: rest -> go c rest in
    let g = !gcount in
    incr gcount;
    let r = match siblings with [] -> -1 | s :: rest -> go s rest in
    let me = !bcount in
    incr bcount;
    label.(me) <- node.label;
    gpost.(me) <- g;
    if l >= 0 then attach me l Left_of_parent left;
    if r >= 0 then attach me r Right_of_parent right;
    me
  in
  let root_id = go tree [] in
  assert (root_id = n - 1);
  { size = n; label; left; right; parent; kind; subtree_size; gpost }

let root t = t.size - 1

let has_left t i = t.left.(i) >= 0

let has_right t i = t.right.(i) >= 0

let to_tree t =
  (* [general i] rebuilds the general-tree node for binary node [i];
     [sibling_chain i] follows right pointers collecting a child list. *)
  let rec general i =
    Tree.node t.label.(i) (match t.left.(i) with -1 -> [] | l -> sibling_chain l)
  and sibling_chain i =
    general i :: (match t.right.(i) with -1 -> [] | r -> sibling_chain r)
  in
  general (root t)

let pp fmt t =
  for i = 0 to t.size - 1 do
    Format.fprintf fmt "%3d %-10s left=%-3d right=%-3d parent=%-3d %s@." i
      (Label.name t.label.(i))
      t.left.(i) t.right.(i) t.parent.(i)
      (match t.kind.(i) with
      | Root -> "root"
      | Left_of_parent -> "L"
      | Right_of_parent -> "R")
  done
