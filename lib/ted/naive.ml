module Tree = Tsj_tree.Tree

module Forest_pair = struct
  type t = Tree.t list * Tree.t list

  let equal (a1, b1) (a2, b2) =
    List.equal Tree.equal a1 a2 && List.equal Tree.equal b1 b2

  let hash (a, b) =
    List.fold_left
      (fun acc t -> (acc * 8191) + Tree.hash t)
      (List.fold_left (fun acc t -> (acc * 8191) + Tree.hash t) 5381 a)
      b
end

module Memo = Hashtbl.Make (Forest_pair)

let forest_size f = List.fold_left (fun acc t -> acc + Tree.size t) 0 f

let forest_distance f1 f2 =
  let memo = Memo.create 4096 in
  let rec go f1 f2 =
    match (f1, f2) with
    | [], _ -> forest_size f2
    | _, [] -> forest_size f1
    | (t1 : Tree.t) :: rest1, (t2 : Tree.t) :: rest2 ->
      let key = (f1, f2) in
      (match Memo.find_opt memo key with
      | Some d -> d
      | None ->
        let delete = 1 + go (t1.children @ rest1) f2 in
        let insert = 1 + go f1 (t2.children @ rest2) in
        let relabel = if t1.label = t2.label then 0 else 1 in
        let match_roots = relabel + go t1.children t2.children + go rest1 rest2 in
        let d = Int.min (Int.min delete insert) match_roots in
        Memo.add memo key d;
        d)
  in
  go f1 f2

let distance t1 t2 = forest_distance [ t1 ] [ t2 ]
