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

(* A node's binary subtree holds its descendants and its later siblings
   with theirs: for a child [c] of [g], the general postorder ids
   [lld c .. g - 1].  So when [c]'s binary subtree starts at binary id
   [s], [c] is binary node [s + (g - lld c) - 1]; its first child heads
   its descendants' [c - lld c] ids, at [s + (c - lld c) - 1]; and its
   next sibling heads the rest, right below [c].  A child with [r]
   earlier siblings starts where their descendants end, at
   [start g + (lld c - lld g) - r].  The parents are visited in
   descending postorder, so a parent's start is known before its
   children are placed.  A parent's children are [g - 1], then
   [lld c - 1] while that is at least [lld g], last child first; they
   are walked twice, to count them and then to place them. *)
let of_postorder (p : Postorder.t) =
  let { Postorder.size = n; labels; lld; _ } = p in
  let label = Array.make n 0 and left = Array.make n (-1) and right = Array.make n (-1) in
  let gpost = Array.make n 0 and start = Array.make n 0 in
  if n > 0 then begin
    label.(n - 1) <- labels.(n - 1);
    gpost.(n - 1) <- n - 1;
    if n > 1 then left.(n - 1) <- n - 2
  end;
  for g = n - 1 downto 0 do
    let lg = lld.(g) in
    let k = ref 0 and c = ref (g - 1) in
    while !c >= lg do
      incr k;
      c := lld.(!c) - 1
    done;
    let sg = start.(g) and r = ref (!k - 1) and c = ref (g - 1) in
    while !c >= lg do
      let x = !c in
      let lx = lld.(x) in
      let s = sg + (lx - lg) - !r in
      let b = s + (g - lx) - 1 in
      start.(x) <- s;
      label.(b) <- labels.(x);
      gpost.(b) <- x;
      if lx < x then left.(b) <- s + (x - lx) - 1;
      if x < g - 1 then right.(b) <- b - 1;
      decr r;
      c := lx - 1
    done
  done;
  { size = n; label; left; right; gpost }

let pp fmt t =
  let parent = parents t in
  for i = 0 to t.size - 1 do
    Format.fprintf fmt "%3d %-10s left=%-3d right=%-3d parent=%-3d %s@." i
      (Label.name t.label.(i))
      t.left.(i) t.right.(i) parent.(i)
      (if parent.(i) < 0 then "root" else if t.left.(parent.(i)) = i then "L" else "R")
  done
