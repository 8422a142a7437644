module Binary_tree = Tsj_tree.Binary_tree
module Label = Tsj_tree.Label

type t = {
  tree_id : int;
  tree_size : int;
  root : int;
  root_gpost : int;
  rank : int;
  n_nodes : int;
  code : int array;
}

(* Edge codes: two bits per side, left in bits 0-1, right in bits 2-3. *)
let no_edge = 0
let bridging = 1
let inside = 2

(* [code.(0)] is 1 when the component root is the tree root; then each
   component node in preorder (node, left subtree, right subtree) as
   its label and its left/right edge code.  A child edge is bridging
   iff the child is a cut root: the partition removed exactly the
   incoming edges of its cut roots. *)
let encode (b : Binary_tree.t) cut ~root ~n_nodes =
  let code = Array.make (1 + (2 * n_nodes)) 0 in
  code.(0) <- (if root = Binary_tree.root b then 1 else 0);
  let edge child =
    if child < 0 then no_edge else if Bytes.get cut child <> '\000' then bridging else inside
  in
  let next = ref 1 in
  let rec emit u =
    let l = b.Binary_tree.left.(u) and r = b.Binary_tree.right.(u) in
    let el = edge l and er = edge r in
    code.(!next) <- b.Binary_tree.label.(u);
    code.(!next + 1) <- el lor (er lsl 2);
    next := !next + 2;
    if el = inside then emit l;
    if er = inside then emit r
  in
  emit root;
  code

let of_partition ~tree_id (p : Partition.t) =
  let b = p.Partition.btree in
  let roots = p.Partition.roots in
  let cut = Bytes.make b.Binary_tree.size '\000' in
  for k = 0 to p.Partition.delta - 2 do
    Bytes.set cut roots.(k) '\001'
  done;
  (* The paper orders a tree's subgraphs by the general-postorder number of
     their root (the identifiers p_1 < ... < p_delta of Section 3.4); that
     order defines the rank k.  It can differ from the binary-postorder
     order of the component roots. *)
  let by_gpost = Array.init p.Partition.delta (fun k -> k) in
  Array.sort
    (fun k1 k2 -> compare b.Binary_tree.gpost.(roots.(k1)) b.Binary_tree.gpost.(roots.(k2)))
    by_gpost;
  Array.mapi
    (fun rank0 k ->
      let root = roots.(k) and n_nodes = p.Partition.sizes.(k) in
      {
        tree_id;
        tree_size = b.Binary_tree.size;
        root;
        root_gpost = b.Binary_tree.gpost.(root);
        rank = rank0 + 1;
        n_nodes;
        code = encode b cut ~root ~n_nodes;
      })
    by_gpost

(* The code index just past the subtree whose node starts at [i]. *)
let rec skip code i =
  let e = code.(i + 1) in
  let i = if e land 3 = inside then skip code (i + 2) else i + 2 in
  if e lsr 2 = inside then skip code i else i

let label_key s =
  let code = s.code in
  let e = code.(2) in
  let left_inside = e land 3 = inside in
  let left = if left_inside then code.(3) else Label.epsilon in
  (* The right child follows the root's left subtree in preorder. *)
  let right =
    if e lsr 2 <> inside then Label.epsilon
    else code.(if left_inside then skip code 3 else 3)
  in
  (code.(1), left, right)

(* [walk code target i v] matches the node encoded at [i] and its
   component subtree against [v]: the code index past that subtree, or
   -1 on a mismatch. *)
let rec walk code (target : Binary_tree.t) i v =
  if code.(i) <> target.Binary_tree.label.(v) then -1
  else
    let e = code.(i + 1) in
    let i = edge code target (e land 3) target.Binary_tree.left.(v) (i + 2) in
    if i < 0 then -1 else edge code target (e lsr 2) target.Binary_tree.right.(v) i

and edge code target kind child i =
  if kind = no_edge then if child < 0 then i else -1 (* none in T either *)
  else if child < 0 then -1
  else if kind = bridging then i (* T's child there is unconstrained *)
  else walk code target i child

let matches s (target : Binary_tree.t) v =
  (* The component root must preserve whether it has an incoming edge at
     all (tree root vs. hanging off a bridging edge), but NOT the edge's
     left/right category: deleting a node makes its first child take the
     deleted node's place in the sibling chain, flipping that child's
     incoming category even though the child's subgraph is otherwise
     untouched.  Matching the category (as the paper's Figure 7 narrative
     does) would make deletions touch three subgraphs and break Lemma 1 /
     Lemma 2 at delta = 2*tau + 1 — see DESIGN.md, finding 3. *)
  (s.code.(0) = 1) = (v = Binary_tree.root target)
  && walk s.code target 1 v >= 0

let occurs_in s target =
  let n = target.Binary_tree.size in
  let rec scan v = v < n && (matches s target v || scan (v + 1)) in
  scan 0
