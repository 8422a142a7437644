type t = {
  size : int;
  labels : int array;
  lld : int array;
  keyroots : int array;
}

let n_leaves t =
  let count = ref 0 in
  for i = 0 to t.size - 1 do
    if t.lld.(i) = i then incr count
  done;
  !count

let subtree_size t i = i - t.lld.(i) + 1

let keyroot_cost t =
  Array.fold_left (fun acc k -> acc + subtree_size t k) 0 t.keyroots
