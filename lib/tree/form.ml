type t = {
  size : int;
  left : Postorder.t;
  mirror : Postorder.t;
  degrees : int array;
  lcrs : Binary_tree.t;
}

(* Node count, leaf count and largest degree, in a walk ahead of the
   main one so that every array is allocated at its final length: a
   tree has as many keyroots, and mirror keyroots, as leaves. *)
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
     its mirror lld is [m] less its subtree size plus one, and it is a
     mirror keyroot iff it is the root or not its parent's last child
     (met in descending mirror id);
   - its LC-RS node is numbered last, after its binary left subtree (its
     descendants) and right subtree (its later siblings): that is the
     binary postorder, and the binary node keeps its general postorder
     number;
   - a leaf counts one node of degree 0, and the last child of a parent
     counts one of degree [rank + 1]. *)
let of_tree tree =
  let n, leaves, max_deg = shape tree in
  let labels = Array.make n 0 and lld = Array.make n 0 in
  let m_labels = Array.make n 0 and m_lld = Array.make n 0 in
  let keyroots = Array.make leaves 0 and m_keyroots = Array.make leaves 0 in
  let label = Array.make n 0 and left = Array.make n 0 and right = Array.make n 0 in
  let gpost = Array.make n 0 in
  let degrees = Array.make (max_deg + 1) 0 in
  let pre = ref 0 and post = ref 0 and bpost = ref 0 in
  let n_kr = ref 0 and n_mkr = ref 0 in
  let rec go (node : Tree.t) siblings ~root ~rank =
    let m = n - 1 - !pre in
    incr pre;
    let lab = node.label in
    m_labels.(m) <- lab;
    (match siblings with
    | [] when not root -> ()
    | _ ->
      (* Met in descending mirror id: filled from the back. *)
      incr n_mkr;
      m_keyroots.(leaves - !n_mkr) <- m);
    let first_leaf = !post in
    let l =
      match node.children with
      | [] ->
        degrees.(0) <- degrees.(0) + 1;
        -1
      | c :: rest -> go c rest ~root:false ~rank:0
    in
    let g = !post in
    incr post;
    labels.(g) <- lab;
    lld.(g) <- first_leaf;
    m_lld.(m) <- m - g + first_leaf;
    if root || rank > 0 then begin
      keyroots.(!n_kr) <- g;
      incr n_kr
    end;
    let r =
      match siblings with
      | [] ->
        if not root then degrees.(rank + 1) <- degrees.(rank + 1) + 1;
        -1
      | s :: rest -> go s rest ~root:false ~rank:(rank + 1)
    in
    let me = !bpost in
    incr bpost;
    label.(me) <- lab;
    gpost.(me) <- g;
    left.(me) <- l;
    right.(me) <- r;
    me
  in
  ignore (go tree [] ~root:true ~rank:0);
  {
    size = n;
    left = { Postorder.size = n; labels; lld; keyroots };
    mirror = { Postorder.size = n; labels = m_labels; lld = m_lld; keyroots = m_keyroots };
    degrees;
    lcrs = { Binary_tree.size = n; label; left; right; gpost };
  }
