(* The per-tree builders as they were before one walk filled every form
   ({!Tsj_tree.Form.of_tree}): the two postorders in one walk, the
   degree histogram in two passes over the postorder, the LC-RS form in
   a walk of its own, the label bag by merge sort, and the partition with
   a fresh scratch per greedy cut and a component map that the subgraph
   encoder read.  Kept only as the references the one walk, the LC-RS
   form derived from its postorder and the partition are compared
   against; with them the LC-RS form's inverse, which rebuilds the tree
   from it. *)

module Tree = Tsj_tree.Tree
module Postorder = Tsj_tree.Postorder
module Binary_tree = Tsj_tree.Binary_tree
module Subgraph = Tsj_core.Subgraph

(* The left postorder and the mirror's, in one walk over the general
   tree: the mirror's postorder is the preorder reversed.  The mirror's
   keyroots are left empty, as in the stored form. *)
let postorders tree =
  let n = Tree.size tree in
  let labels = Array.make n 0 and lld = Array.make n 0 in
  let m_labels = Array.make n 0 and m_lld = Array.make n 0 in
  let keyroots = Tsj_util.Vec_int.create () in
  let post = ref 0 and pre = ref 0 in
  let rec go ~first (node : Tree.t) =
    let m = n - 1 - !pre in
    incr pre;
    m_labels.(m) <- node.label;
    let my_lld =
      match node.children with
      | [] -> !post
      | c :: rest ->
        let l = go ~first:true c in
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
      ignore (go ~first:false c);
      siblings rest
  in
  ignore (go ~first:false tree);
  ( { Postorder.size = n; labels; lld; keyroots = Tsj_util.Vec_int.to_array keyroots },
    { Postorder.size = n; labels = m_labels; lld = m_lld; keyroots = [||] } )

(* Number of children of postorder node [i], read off the lld array. *)
let n_children (po : Postorder.t) i =
  let stop = po.lld.(i) in
  let rec go c k = if c < stop then k else go (po.lld.(c) - 1) (k + 1) in
  go (i - 1) 0

let degrees (po : Postorder.t) =
  let max_deg = ref 0 in
  for i = 0 to po.size - 1 do
    max_deg := Int.max !max_deg (n_children po i)
  done;
  let degrees = Array.make (!max_deg + 1) 0 in
  for i = 0 to po.size - 1 do
    let d = n_children po i in
    degrees.(d) <- degrees.(d) + 1
  done;
  degrees

let sorted_bag labels = List.sort Int.compare (Array.to_list labels)

(* The LC-RS form in its own walk over the sibling chains. *)
let lcrs tree =
  let n = Tree.size tree in
  let label = Array.make n 0 in
  let left = Array.make n (-1) in
  let right = Array.make n (-1) in
  let gpost = Array.make n 0 in
  let bcount = ref 0 and gcount = ref 0 in
  let rec go (node : Tree.t) siblings =
    let l = match node.children with [] -> -1 | c :: rest -> go c rest in
    let g = !gcount in
    incr gcount;
    let r = match siblings with [] -> -1 | s :: rest -> go s rest in
    let me = !bcount in
    incr bcount;
    label.(me) <- node.label;
    gpost.(me) <- g;
    left.(me) <- l;
    right.(me) <- r;
    me
  in
  ignore (go tree []);
  { Binary_tree.size = n; label; left; right; gpost }

(* The inverse of the LC-RS transformation: [general i] rebuilds the
   general-tree node for binary node [i], [sibling_chain i] follows the
   right pointers collecting a child list. *)
let lcrs_to_tree (b : Binary_tree.t) =
  let rec general i =
    Tree.node b.label.(i) (match b.left.(i) with -1 -> [] | l -> sibling_chain l)
  and sibling_chain i =
    general i :: (match b.right.(i) with -1 -> [] | r -> sibling_chain r)
  in
  general (b.size - 1)

(* Binary subtree sizes, children before parents. *)
let subtree_sizes (b : Binary_tree.t) =
  let s = Array.make b.size 1 in
  for i = 0 to b.size - 1 do
    List.iter (fun c -> if c >= 0 then s.(i) <- s.(i) + s.(c)) [ b.left.(i); b.right.(i) ]
  done;
  s

(* Greedy cutting with a fresh [live] per call; [cuts] collects the first
   [delta - 1] detected roots. *)
let greedy_cut (b : Binary_tree.t) ~delta ~gamma ~cuts =
  let n = b.size in
  let live = Array.make n 0 in
  let found = ref 0 and i = ref 0 in
  while !found < delta && !i < n do
    let node = !i in
    let l = b.left.(node) and r = b.right.(node) in
    let v = 1 + (if l >= 0 then live.(l) else 0) + if r >= 0 then live.(r) else 0 in
    if v >= gamma then begin
      if !found < delta - 1 then cuts := node :: !cuts;
      live.(node) <- 0;
      incr found
    end
    else live.(node) <- v;
    incr i
  done;
  !found >= delta

type partition = { gamma : int; roots : int array; assignment : int array }

(* Algorithm 3's binary search, then the cut at the found γ and the
   component map read off the cut roots' subtree ranges. *)
let partition (b : Binary_tree.t) ~delta =
  let n = b.size in
  let gamma_min = ref (max 1 ((n + delta - 1) / ((2 * delta) - 1))) in
  let c = ref ((n / delta) - !gamma_min + 1) in
  while !c > 1 do
    let mid = !gamma_min + (!c / 2) in
    if greedy_cut b ~delta ~gamma:mid ~cuts:(ref []) then begin
      gamma_min := mid;
      c := !c - (!c / 2)
    end
    else c := !c / 2
  done;
  let cuts = ref [] in
  assert (greedy_cut b ~delta ~gamma:!gamma_min ~cuts);
  let cut_roots = Array.of_list (List.rev !cuts) in
  let assignment = Array.make n (-1) and subtree_size = subtree_sizes b in
  Array.iteri
    (fun k root ->
      for v = root - subtree_size.(root) + 1 to root do
        if assignment.(v) < 0 then assignment.(v) <- k
      done)
    cut_roots;
  Array.iteri (fun v k -> if k < 0 then assignment.(v) <- delta - 1) assignment;
  { gamma = !gamma_min; roots = Array.append cut_roots [| n - 1 |]; assignment }

(* The subgraph encoder that read the component map: a child edge is
   bridging iff the child lies in another component. *)
let subgraphs ~tree_id (b : Binary_tree.t) p =
  let delta = Array.length p.roots in
  let sizes = Array.make delta 0 in
  Array.iter (fun k -> sizes.(k) <- sizes.(k) + 1) p.assignment;
  let encode ~component ~root =
    let code = Array.make (1 + (2 * sizes.(component))) 0 in
    code.(0) <- (if root = b.size - 1 then 1 else 0);
    let edge child =
      if child < 0 then 0 else if p.assignment.(child) <> component then 1 else 2
    in
    let next = ref 1 in
    let rec emit u =
      let l = b.left.(u) and r = b.right.(u) in
      code.(!next) <- b.label.(u);
      code.(!next + 1) <- edge l lor (edge r lsl 2);
      next := !next + 2;
      if edge l = 2 then emit l;
      if edge r = 2 then emit r
    in
    emit root;
    code
  in
  let by_gpost = Array.init delta Fun.id in
  Array.sort (fun k1 k2 -> compare b.gpost.(p.roots.(k1)) b.gpost.(p.roots.(k2))) by_gpost;
  Array.mapi
    (fun rank0 k ->
      let root = p.roots.(k) in
      {
        Subgraph.tree_id;
        tree_size = b.size;
        root;
        root_gpost = b.gpost.(root);
        rank = rank0 + 1;
        n_nodes = sizes.(k);
        code = encode ~component:k ~root;
      })
    by_gpost
