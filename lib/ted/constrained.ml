module Postorder = Tsj_tree.Postorder

(* The children of every node of a postorder form, left to right: node
   [g]'s last child is [g - 1], and each child [c]'s left sibling is
   [lld c - 1], while at or after [lld g]. *)
let children (p : Postorder.t) =
  Array.init p.size (fun g ->
      let rec collect c acc =
        if c < p.lld.(g) then Array.of_list acc else collect (p.lld.(c) - 1) (c :: acc)
      in
      collect (g - 1) [])

(* Subtree sizes ([lld g .. g]), as an array: computing them in the
   DP's inner loops made the kernel about a third slower. *)
let sizes (p : Postorder.t) = Array.init p.size (fun g -> g - p.lld.(g) + 1)

(* Zhang's O(|T1| |T2|) dynamic program, over the postorder numbering.

   d.(i).(j): constrained distance between the subtrees rooted at i, j.
   df.(i).(j): constrained distance between the forests of their children.

   Recurrences (unit costs; [del i] = delete the whole subtree of i;
   deleting its child forest costs one less):

   df i j = min
     - alignment of the child sequences, where matching child pair (a, b)
       costs d a b, skipping a child costs its full deletion/insertion;
     - j's child forest entirely inserted except one child b whose child
       forest swallows all of F_i:  ins j - ins b + df i b;
     - symmetrically with one child a of i swallowing F_j.

   d i j = min
     - df i j + (0 or 1 for the root labels);
     - ins j - ins b + d i b for some child b of j (i's tree maps inside
       one subtree of j, everything else in j inserted);
     - symmetrically for some child a of i. *)
let distance (a : Postorder.t) (b : Postorder.t) =
  if a == b then 0
    (* A tree against itself is trivially at distance 0. *)
  else
  let a_children = children a and b_children = children b in
  let d = Array.make_matrix a.size b.size 0 in
  let df = Array.make_matrix a.size b.size 0 in
  let a_sizes = sizes a and b_sizes = sizes b in
  let del i = a_sizes.(i) and ins j = b_sizes.(j) in
  for i = 0 to a.size - 1 do
    let ca = a_children.(i) in
    let m = Array.length ca in
    for j = 0 to b.size - 1 do
      let cb = b_children.(j) in
      let n = Array.length cb in
      (* --- forest distance: first the alignment of the child trees --- *)
      let dp = Array.make_matrix (m + 1) (n + 1) 0 in
      for x = 1 to m do
        dp.(x).(0) <- dp.(x - 1).(0) + del ca.(x - 1)
      done;
      for y = 1 to n do
        dp.(0).(y) <- dp.(0).(y - 1) + ins cb.(y - 1)
      done;
      for x = 1 to m do
        for y = 1 to n do
          dp.(x).(y) <-
            Int.min
              (Int.min (dp.(x - 1).(y) + del ca.(x - 1)) (dp.(x).(y - 1) + ins cb.(y - 1)))
              (dp.(x - 1).(y - 1) + d.(ca.(x - 1)).(cb.(y - 1)))
        done
      done;
      let best = ref dp.(m).(n) in
      Array.iter (fun c -> best := Int.min !best (ins j - ins c + df.(i).(c))) cb;
      Array.iter (fun c -> best := Int.min !best (del i - del c + df.(c).(j))) ca;
      df.(i).(j) <- !best;
      (* --- tree distance --- *)
      best := !best + if a.labels.(i) = b.labels.(j) then 0 else 1;
      Array.iter (fun c -> best := Int.min !best (ins j - ins c + d.(i).(c))) cb;
      Array.iter (fun c -> best := Int.min !best (del i - del c + d.(c).(j))) ca;
      d.(i).(j) <- !best
    done
  done;
  d.(a.size - 1).(b.size - 1)

let within p1 p2 k = k >= 0 && distance p1 p2 <= k
