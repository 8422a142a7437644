type t = {
  size : int;
  label : int array;
  left : int array;
  right : int array;
  gpost : int array;
}

let root t = t.size - 1

let has_left t i = t.left.(i) >= 0

let has_right t i = t.right.(i) >= 0

let subtree_sizes t =
  let s = Array.make t.size 1 in
  for i = 0 to t.size - 1 do
    if t.left.(i) >= 0 then s.(i) <- s.(i) + s.(t.left.(i));
    if t.right.(i) >= 0 then s.(i) <- s.(i) + s.(t.right.(i))
  done;
  s

let parents t =
  let parent = Array.make t.size (-1) in
  for i = 0 to t.size - 1 do
    if t.left.(i) >= 0 then parent.(t.left.(i)) <- i;
    if t.right.(i) >= 0 then parent.(t.right.(i)) <- i
  done;
  parent

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
  let parent = parents t in
  for i = 0 to t.size - 1 do
    Format.fprintf fmt "%3d %-10s left=%-3d right=%-3d parent=%-3d %s@." i
      (Label.name t.label.(i))
      t.left.(i) t.right.(i) parent.(i)
      (if parent.(i) < 0 then "root" else if t.left.(parent.(i)) = i then "L" else "R")
  done
