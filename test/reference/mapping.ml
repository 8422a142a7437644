module Postorder = Tsj_tree.Postorder
module Label = Tsj_tree.Label

type op = Match of int * int | Rename of int * int | Delete of int | Insert of int

type t = { ops : op list; cost : int }

(* Zhang–Shasha with a backtrace.  First the full treedist matrix is
   computed (the same DP as the reference distance); then the
   forest DP of a subproblem is recomputed on demand and walked backwards.
   The recomputation keeps memory at O(n^2) while the total work stays
   within a constant factor of the forward pass. *)
let compute t1 t2 =
  let p1 = (Tsj_tree.Form.of_tree t1).left and p2 = (Tsj_tree.Form.of_tree t2).left in
  let n1 = p1.Postorder.size and n2 = p2.Postorder.size in
  let lld1 = p1.Postorder.lld and lld2 = p2.Postorder.lld in
  let lab1 = p1.Postorder.labels and lab2 = p2.Postorder.labels in
  let treedist = Array.make_matrix (Int.max n1 1) (Int.max n2 1) 0 in
  let fd = Array.make_matrix (n1 + 1) (n2 + 1) 0 in
  (* Forward forest DP for the keyroot pair (k1, k2). *)
  let forest k1 k2 ~record =
    let l1 = lld1.(k1) and l2 = lld2.(k2) in
    let m = k1 - l1 + 1 and n = k2 - l2 + 1 in
    fd.(0).(0) <- 0;
    for x = 1 to m do
      fd.(x).(0) <- x
    done;
    for y = 1 to n do
      fd.(0).(y) <- y
    done;
    for x = 1 to m do
      let a = l1 + x - 1 in
      for y = 1 to n do
        let b = l2 + y - 1 in
        if lld1.(a) = l1 && lld2.(b) = l2 then begin
          let cost = if lab1.(a) = lab2.(b) then 0 else 1 in
          let v =
            Int.min (Int.min (fd.(x - 1).(y) + 1) (fd.(x).(y - 1) + 1)) (fd.(x - 1).(y - 1) + cost)
          in
          fd.(x).(y) <- v;
          if record then treedist.(a).(b) <- v
        end
        else
          fd.(x).(y) <-
            Int.min
              (Int.min (fd.(x - 1).(y) + 1) (fd.(x).(y - 1) + 1))
              (fd.(lld1.(a) - l1).(lld2.(b) - l2) + treedist.(a).(b))
      done
    done
  in
  (* Forward pass to fill treedist. *)
  Array.iter
    (fun k1 -> Array.iter (fun k2 -> forest k1 k2 ~record:true) p2.Postorder.keyroots)
    p1.Postorder.keyroots;
  let ops = ref [] in
  (* Backtrace of the subtree pair (k1, k2): recompute its forest table,
     then walk from (|F1|, |F2|) back to (0, 0). *)
  let rec backtrace k1 k2 =
    forest k1 k2 ~record:false;
    let l1 = lld1.(k1) and l2 = lld2.(k2) in
    let x = ref (k1 - l1 + 1) and y = ref (k2 - l2 + 1) in
    while !x > 0 || !y > 0 do
      if !x > 0 && fd.(!x).(!y) = fd.(!x - 1).(!y) + 1 then begin
        ops := Delete (l1 + !x - 1) :: !ops;
        decr x
      end
      else if !y > 0 && fd.(!x).(!y) = fd.(!x).(!y - 1) + 1 then begin
        ops := Insert (l2 + !y - 1) :: !ops;
        decr y
      end
      else begin
        let a = l1 + !x - 1 and b = l2 + !y - 1 in
        if lld1.(a) = l1 && lld2.(b) = l2 then begin
          ops :=
            (if lab1.(a) = lab2.(b) then Match (a, b) else Rename (a, b)) :: !ops;
          decr x;
          decr y
        end
        else begin
          (* A whole subtree pair aligns: recurse (this clobbers fd, so
             restore our table afterwards by recomputing). *)
          let x' = lld1.(a) - l1 and y' = lld2.(b) - l2 in
          backtrace a b;
          forest k1 k2 ~record:false;
          x := x';
          y := y'
        end
      end
    done
  in
  if n1 = 0 || n2 = 0 then begin
    for i = 0 to n1 - 1 do
      ops := Delete i :: !ops
    done;
    for j = 0 to n2 - 1 do
      ops := Insert j :: !ops
    done;
    { ops = !ops; cost = Int.max n1 n2 }
  end
  else begin
    backtrace (n1 - 1) (n2 - 1);
    let cost =
      List.fold_left
        (fun acc op ->
          match op with
          | Match _ -> acc
          | Rename _ | Delete _ | Insert _ -> acc + 1)
        0 !ops
    in
    { ops = !ops; cost }
  end

let mapped_pairs m =
  List.filter_map
    (function Match (i, j) | Rename (i, j) -> Some (i, j) | Delete _ | Insert _ -> None)
    m.ops
  |> List.sort compare

let pp ~source ~target fmt m =
  let lab1 = Tsj_tree.Traversal.postorder_labels source in
  let lab2 = Tsj_tree.Traversal.postorder_labels target in
  Format.fprintf fmt "@[<v>cost %d@," m.cost;
  List.iter
    (fun op ->
      match op with
      | Match (i, j) ->
        Format.fprintf fmt "match  %d:%s = %d:%s@," i (Label.name lab1.(i)) j
          (Label.name lab2.(j))
      | Rename (i, j) ->
        Format.fprintf fmt "rename %d:%s -> %d:%s@," i (Label.name lab1.(i)) j
          (Label.name lab2.(j))
      | Delete i -> Format.fprintf fmt "delete %d:%s@," i (Label.name lab1.(i))
      | Insert j -> Format.fprintf fmt "insert %d:%s@," j (Label.name lab2.(j)))
    m.ops;
  Format.fprintf fmt "@]"
