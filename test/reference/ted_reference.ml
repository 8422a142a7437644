module Postorder = Tsj_tree.Postorder
module Naive = Naive
module Mapping = Mapping
module Constrained = Constrained

(* The LR-keyroots, read off [lld] rather than the form's [keyroots]
   (a mirror's are not stored): the highest node with each leftmost
   leaf, ascending. *)
let keyroots (p : Postorder.t) =
  let seen = Array.make p.size false and kr = ref [] in
  for k = p.size - 1 downto 0 do
    if not seen.(p.lld.(k)) then begin
      seen.(p.lld.(k)) <- true;
      kr := k :: !kr
    end
  done;
  Array.of_list !kr

(* Zhang–Shasha: one forest DP per pair of keyroots, in ascending
   order, so that td (the subtree-pair distances) holds every entry a
   forest DP reads before it reads it. *)
let distance_postorder (p1 : Postorder.t) (p2 : Postorder.t) =
  let n1 = p1.size and n2 = p2.size in
  if n1 = 0 || n2 = 0 then Int.max n1 n2
  else begin
    let td = Array.make_matrix n1 n2 0 in
    let fd = Array.make_matrix (n1 + 1) (n2 + 1) 0 in
    let forest k1 k2 =
      let l1 = p1.lld.(k1) and l2 = p2.lld.(k2) in
      for x = 1 to k1 - l1 + 1 do
        fd.(x).(0) <- x
      done;
      for y = 1 to k2 - l2 + 1 do
        fd.(0).(y) <- y
      done;
      for x = 1 to k1 - l1 + 1 do
        let a = l1 + x - 1 in
        for y = 1 to k2 - l2 + 1 do
          let b = l2 + y - 1 in
          let edit = Int.min (fd.(x - 1).(y) + 1) (fd.(x).(y - 1) + 1) in
          if p1.lld.(a) = l1 && p2.lld.(b) = l2 then begin
            let rename = if p1.labels.(a) = p2.labels.(b) then 0 else 1 in
            fd.(x).(y) <- Int.min edit (fd.(x - 1).(y - 1) + rename);
            td.(a).(b) <- fd.(x).(y)
          end
          else fd.(x).(y) <- Int.min edit (fd.(p1.lld.(a) - l1).(p2.lld.(b) - l2) + td.(a).(b))
        done
      done
    in
    let kr2 = keyroots p2 in
    Array.iter (fun k1 -> Array.iter (forest k1) kr2) (keyroots p1);
    td.(n1 - 1).(n2 - 1)
  end

let distance t1 t2 =
  distance_postorder (Tsj_tree.Form.of_tree t1).left (Tsj_tree.Form.of_tree t2).left

let sed a b =
  let la = Array.length a and lb = Array.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do
    d.(i).(0) <- i
  done;
  for j = 0 to lb do
    d.(0).(j) <- j
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if a.(i - 1) = b.(j - 1) then 0 else 1 in
      d.(i).(j) <- Int.min (Int.min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1)) (d.(i - 1).(j - 1) + cost)
    done
  done;
  d.(la).(lb)
