module Label = Tsj_tree.Label
module Binary_tree = Tsj_tree.Binary_tree
module Multiset = Tsj_util.Multiset

type bag = Multiset.t

(* Branches (label triples) are interned into dense ids through a global
   table, like labels themselves: the mapping only ever grows, so encoded
   bags stay comparable across trees, joins and datasets. *)
let ids : (int * int * int, int) Hashtbl.t = Hashtbl.create 1024
let triples : (int * int * int) array ref = ref (Array.make 64 (0, 0, 0))
let n_ids = ref 0

let encode triple =
  match Hashtbl.find_opt ids triple with
  | Some id -> id
  | None ->
    let id = !n_ids in
    if id = Array.length !triples then begin
      let bigger = Array.make (2 * id) (0, 0, 0) in
      Array.blit !triples 0 bigger 0 id;
      triples := bigger
    end;
    !triples.(id) <- triple;
    incr n_ids;
    Hashtbl.add ids triple id;
    id

let decode id =
  if id < 0 || id >= !n_ids then invalid_arg "Binary_branch.decode: unknown branch id";
  !triples.(id)

let bag_of_tree t =
  let b = Tsj_tree.Binary_tree.of_postorder (Tsj_tree.Form.of_tree t).left in
  let n = b.Binary_tree.size in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    let left =
      match b.Binary_tree.left.(i) with
      | -1 -> Label.epsilon
      | l -> b.Binary_tree.label.(l)
    in
    let right =
      match b.Binary_tree.right.(i) with
      | -1 -> Label.epsilon
      | r -> b.Binary_tree.label.(r)
    in
    out.(i) <- encode (b.Binary_tree.label.(i), left, right)
  done;
  Multiset.of_unsorted out

let distance x1 x2 = Multiset.symmetric_difference_size x1 x2

let lower_bound x1 x2 = (distance x1 x2 + 4) / 5
