type t = { label : Label.t; children : t list }

let leaf label = { label; children = [] }

let node label children = { label; children }

let rec size t = List.fold_left (fun acc c -> acc + size c) 1 t.children

let rec depth t =
  1 + List.fold_left (fun acc c -> max acc (depth c)) 0 t.children

let rec degree t =
  List.fold_left (fun acc c -> max acc (degree c)) (List.length t.children) t.children

let label_set t =
  let module S = Set.Make (Int) in
  let rec go acc t = List.fold_left go (S.add t.label acc) t.children in
  S.elements (go S.empty t)

(* Physical equality short-circuits both: a tree compared with itself,
   or with a tree that shares the subtree, costs O(1) instead of
   O(size). *)
let rec equal a b =
  a == b || (a.label = b.label && List.equal equal a.children b.children)

let rec compare a b =
  if a == b then 0
  else
    let c = Stdlib.compare a.label b.label in
    if c <> 0 then c else List.compare compare a.children b.children

let rec hash t =
  List.fold_left (fun acc c -> (acc * 1000003) + hash c) (t.label + 17) t.children

let rec map_labels f t =
  { label = f t.label; children = List.map (map_labels f) t.children }

let rec fold f t = f t.label (List.map (fold f) t.children)

let rec iter_preorder f t =
  f t;
  List.iter (iter_preorder f) t.children

let rec iter_postorder f t =
  List.iter (iter_postorder f) t.children;
  f t

let nodes_postorder t =
  let acc = ref [] in
  iter_postorder (fun n -> acc := n :: !acc) t;
  Array.of_list (List.rev !acc)

let nodes_preorder t =
  let acc = ref [] in
  iter_preorder (fun n -> acc := n :: !acc) t;
  Array.of_list (List.rev !acc)

let subtree_at_postorder t i =
  let nodes = nodes_postorder t in
  if i < 0 || i >= Array.length nodes then
    invalid_arg "Tree.subtree_at_postorder: index out of range";
  nodes.(i)

let rec pp fmt t =
  Format.fprintf fmt "{%s" (Label.name t.label);
  List.iter (pp fmt) t.children;
  Format.fprintf fmt "}"

let pp_ascii fmt t =
  let rec go prefix is_last t =
    Format.fprintf fmt "%s%s%s@." prefix
      (if prefix = "" then "" else if is_last then "└─ " else "├─ ")
      (Label.name t.label);
    let child_prefix =
      if prefix = "" then " "
      else prefix ^ (if is_last then "   " else "│  ")
    in
    let rec each = function
      | [] -> ()
      | [ c ] -> go child_prefix true c
      | c :: rest ->
        go child_prefix false c;
        each rest
    in
    each t.children
  in
  go "" true t
