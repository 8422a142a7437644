module Postorder = Tsj_tree.Postorder
module Traversal = Tsj_tree.Traversal
module Multiset = Tsj_util.Multiset

(* The per-tree form: the TED prep plus the two arrays no postorder
   holds.  Everything else the bounds read comes from the prep's
   postorders: the postorder labels from the left one, the preorder
   reversed (the mirror's postorder) and the greedy walk from the right
   one. *)
type t = {
  prep : Ted.prep;
  labels : Multiset.t;  (* sorted label bag *)
  degrees : int array;  (* degrees.(d): number of nodes with d children *)
}

(* Number of children of postorder node [i]: its last child is [i - 1],
   each earlier sibling ends just before the previous one's leftmost
   leaf, and the first child's subtree starts at [lld.(i)]. *)
let n_children (po : Postorder.t) i =
  let stop = po.lld.(i) in
  let rec go c k = if c < stop then k else go (po.lld.(c) - 1) (k + 1) in
  go (i - 1) 0

let of_prep prep =
  let po = Ted.left_postorder prep in
  let max_deg = ref 0 in
  for i = 0 to po.size - 1 do
    max_deg := Int.max !max_deg (n_children po i)
  done;
  let degrees = Array.make (!max_deg + 1) 0 in
  for i = 0 to po.size - 1 do
    let d = n_children po i in
    degrees.(d) <- degrees.(d) + 1
  done;
  { prep; labels = Multiset.of_unsorted po.labels; degrees }

let prep f = f.prep

let postorder f = (Ted.left_postorder f.prep).labels

(* The mirrored tree's postorder is the preorder reversed.  Reversing
   both strings of a pair keeps their edit distance, banded or not, so
   it stands in for the preorder in every SED bound. *)
let rev_preorder f = (Ted.right_postorder f.prep).labels

(* Pairwise lower bounds.  Each runs without any per-pair allocation
   except the Euler bound: the bag bounds are merge walks over the
   sorted label arrays and the degree histograms, the banded SED draws
   its rolling rows from the per-domain arena. *)

let size_bound a b = abs (Ted.size a.prep - Ted.size b.prep)

let label_bound a b = (Multiset.symmetric_difference_size a.labels b.labels + 1) / 2

let degree_bound a b =
  let ha = a.degrees and hb = b.degrees in
  let la = Array.length ha and lb = Array.length hb in
  let diff = ref 0 in
  for d = 0 to Int.max la lb - 1 do
    let ca = if d < la then ha.(d) else 0 and cb = if d < lb then hb.(d) else 0 in
    diff := !diff + abs (ca - cb)
  done;
  (!diff + 2) / 3

let traversal_bound a b =
  Int.max
    (String_edit.distance (rev_preorder a) (rev_preorder b))
    (String_edit.distance (postorder a) (postorder b))

(* The Euler string is built on demand, so no form keeps it. *)
let euler_bound a b =
  let euler f = Traversal.euler_tour (Ted.tree f.prep) in
  (String_edit.distance (euler a) (euler b) + 1) / 2

let linear_lower a b = Int.max (size_bound a b) (Int.max (label_bound a b) (degree_bound a b))

(* Greedy-mapping upper bound: rename the roots if their labels differ,
   recursively edit the children matched position by position, and
   delete / insert the unmatched tails.  This is the cost of a concrete
   edit script whose mapping sends disjoint subtrees to disjoint
   subtrees, so it upper-bounds not only the unrestricted TED but also
   every restricted metric whose scripts include it — in particular the
   constrained edit distance, which is what keeps the early-accept
   stage lossless under [Sweep.Constrained].

   It walks the mirrors' postorders: there the children of node [i] are
   [i - 1], [lld (i - 1) - 1], ... down to [lld i], which is the
   original left-to-right order, and the unmatched tail after child [c]
   is the contiguous range [lld i .. c].  O(min size) time, zero
   allocation. *)
let upper a b =
  let pa = Ted.right_postorder a.prep and pb = Ted.right_postorder b.prep in
  let la = pa.labels and lb = pb.labels in
  let llda = pa.lld and lldb = pb.lld in
  let rec go i j =
    let c = ref (if la.(i) = lb.(j) then 0 else 1) in
    let stop_a = llda.(i) and stop_b = lldb.(j) in
    let x = ref (i - 1) and y = ref (j - 1) in
    while !x >= stop_a && !y >= stop_b do
      c := !c + go !x !y;
      x := llda.(!x) - 1;
      y := lldb.(!y) - 1
    done;
    !c + (!x - stop_a + 1) + (!y - stop_b + 1)
  in
  go (pa.size - 1) (pb.size - 1)

(* --- the verification filter cascade --- *)

type stage = Size | Labels | Degrees | Sed

type outcome =
  | Pruned of stage
  | Accept of int
  | Verify of { band : int }

let cascade ~tau a b =
  if tau < 0 then invalid_arg "Bounds.cascade: negative threshold";
  (* Stages run cheapest first and short-circuit on the first lower
     bound exceeding τ.  Each stage is a TED lower bound, so pruning is
     lossless; surviving stage values accumulate into [lb]. *)
  let lb = size_bound a b in
  if lb > tau then Pruned Size
  else begin
    (* [label_bound] exceeds τ iff the bags differ in at least 2τ + 1
       labels, so the walk may stop there: below that it is exact. *)
    let l = (Multiset.symmetric_difference_at_most a.labels b.labels ((2 * tau) + 1) + 1) / 2 in
    if l > tau then Pruned Labels
    else begin
      let lb = Int.max lb l in
      let d = degree_bound a b in
      if d > tau then Pruned Degrees
      else begin
        let lb = Int.max lb d in
        (* Banded traversal SED: each tree edit operation edits the
           preorder (resp. postorder) label sequence in exactly one
           position, so both are TED lower bounds; within the band the
           returned values are exact. *)
        let s1 = String_edit.bounded_distance (rev_preorder a) (rev_preorder b) tau in
        if s1 > tau then Pruned Sed
        else begin
          let s2 = String_edit.bounded_distance (postorder a) (postorder b) tau in
          if s2 > tau then Pruned Sed
          else begin
            let lb = Int.max lb (Int.max s1 s2) in
            let ub = upper a b in
            if ub = lb then
              (* The bounds sandwich closes: lb <= TED <= ub = lb, so
                 the exact distance is known without running the kernel
                 (and it also pins every metric between TED and the
                 greedy script's cost, e.g. the constrained distance). *)
              Accept lb
            else if ub <= tau then
              (* The pair is certainly a result (TED <= ub <= τ), but
                 the exact distance is still needed: run the kernel with
                 the band shrunk to ub - 1.  The banded kernel returns
                 min(TED, band + 1) = min(TED, ub) = TED. *)
              Verify { band = ub - 1 }
            else Verify { band = tau }
          end
        end
      end
    end
  end

let distance ~tau a b =
  match cascade ~tau a b with
  | Pruned _ -> tau + 1
  | Accept d -> d
  | Verify { band } -> Ted.bounded_distance_prep a.prep b.prep band
