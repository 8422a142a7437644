type t = {
  size : int;
  left : Postorder.t;
  mirror : Postorder.t;
  degrees : int array;
}

(* Node count, leaf count and largest degree, in a walk ahead of the
   main one so that every array is allocated at its final length: a
   tree has as many keyroots as leaves. *)
let shape tree =
  let n = ref 0 and leaves = ref 0 and max_deg = ref 0 in
  let rec node (x : Tree.t) =
    incr n;
    match x.children with
    | [] -> incr leaves
    | children ->
      let d = siblings children 0 in
      if d > !max_deg then max_deg := d
  and siblings l d =
    match l with
    | [] -> d
    | c :: rest ->
      node c;
      siblings rest (d + 1)
  in
  node tree;
  (!n, !leaves, !max_deg)

(* One recursion over the sibling chains, [go node siblings], enters
   [node], numbers its descendants (the call on its first child, which
   carries the rest of the child list), then its later siblings (the
   call on [siblings]).  So it meets the nodes in preorder, and:

   - [node]'s postorder number is taken between its descendants and its
     later siblings; its leftmost leaf is the first node numbered after
     it was entered;
   - it is a keyroot iff it is the root or not its parent's first child
     ([rank > 0]), so the keyroots come out in ascending postorder;
   - the mirror's postorder is the preorder reversed: [node] is mirror
     node [m = n - 1 - pre], its mirror subtree holds the same nodes, so
     its mirror lld is [m] less its subtree size plus one (its
     keyroots are left empty: no kernel runs on the mirror);
   - a leaf counts one node of degree 0, and the last child of a parent
     counts one of degree [rank + 1]. *)
let of_tree tree =
  let n, leaves, max_deg = shape tree in
  let labels = Array.make n 0 and lld = Array.make n 0 in
  let m_labels = Array.make n 0 and m_lld = Array.make n 0 in
  let keyroots = Array.make leaves 0 in
  let degrees = Array.make (max_deg + 1) 0 in
  let pre = ref 0 and post = ref 0 in
  let n_kr = ref 0 in
  let rec go (node : Tree.t) siblings ~root ~rank =
    let m = n - 1 - !pre in
    incr pre;
    let lab = node.label in
    m_labels.(m) <- lab;
    let first_leaf = !post in
    (match node.children with
    | [] -> degrees.(0) <- degrees.(0) + 1
    | c :: rest -> go c rest ~root:false ~rank:0);
    let g = !post in
    incr post;
    labels.(g) <- lab;
    lld.(g) <- first_leaf;
    m_lld.(m) <- m - g + first_leaf;
    if root || rank > 0 then begin
      keyroots.(!n_kr) <- g;
      incr n_kr
    end;
    match siblings with
    | [] -> if not root then degrees.(rank + 1) <- degrees.(rank + 1) + 1
    | s :: rest -> go s rest ~root:false ~rank:(rank + 1)
  in
  go tree [] ~root:true ~rank:0;
  {
    size = n;
    left = { Postorder.size = n; labels; lld; keyroots };
    mirror = { Postorder.size = n; labels = m_labels; lld = m_lld; keyroots = [||] };
    degrees;
  }

(* Node [g] of a postorder form has the children [g - 1], then [lld c - 1]
   for each child [c] met, while at or after [lld g]: right to left. *)
let to_tree (p : Postorder.t) =
  let rec node g =
    let rec children c acc =
      if c < p.lld.(g) then acc else children (p.lld.(c) - 1) (node c :: acc)
    in
    Tree.node p.labels.(g) (children (g - 1) [])
  in
  node (p.size - 1)

(* [walk p x post]: [x]'s subtree, its first node numbered [post],
   against [p]; the number after the subtree, or -1 at the first node
   whose label or leftmost leaf differs.  Labels and llds determine the
   tree, so a walk that matches [p.size] nodes has met [p]'s tree. *)
let rec walk (p : Postorder.t) (x : Tree.t) post =
  let g = walk_siblings p x.children post in
  if g < 0 || g >= p.size || p.labels.(g) <> x.label || p.lld.(g) <> post then -1 else g + 1

and walk_siblings p l post =
  match l with
  | [] -> post
  | c :: rest ->
    let g = walk p c post in
    if g < 0 then g else walk_siblings p rest g

let equal_tree x p = walk p x 0 = p.size
