module Multiset = Tsj_util.Multiset
module Postorder = Tsj_tree.Postorder

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

let of_form tree (f : Tsj_tree.Form.t) =
  { prep = Ted.of_form tree f; labels = Multiset.of_unsorted f.left.labels; degrees = f.degrees }

let of_tree tree = of_form tree (Tsj_tree.Form.of_tree tree)

let prep f = f.prep

(* Pairwise lower bounds.  Each runs without any per-pair allocation:
   the bag bounds are merge walks over the sorted label arrays and the
   degree histograms, the banded SED draws its rolling rows from the
   per-domain arena. *)

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

let linear_lower a b = Int.max (size_bound a b) (Int.max (label_bound a b) (degree_bound a b))

(* Greedy-mapping upper bound: rename the roots if their labels differ,
   recursively edit the children matched position by position, and
   delete / insert the unmatched tails.  This is the cost of a concrete
   edit script whose mapping sends disjoint subtrees to disjoint
   subtrees, so it upper-bounds not only the unrestricted TED but also
   every restricted metric whose scripts include it — in particular the
   constrained edit distance, which is what keeps the early-accept
   stage lossless under [Constrained].

   It walks the mirrors' postorders: there the children of node [i] are
   [i - 1], [lld (i - 1) - 1], ... down to [lld i], which is the
   original left-to-right order, and the unmatched tail after child [c]
   is the contiguous range [lld i .. c].  O(min size) time, zero
   allocation. *)
let rec greedy (la : int array) (lb : int array) llda lldb i j =
  let c = ref (if la.(i) = lb.(j) then 0 else 1) in
  let stop_a = llda.(i) and stop_b = lldb.(j) in
  let x = ref (i - 1) and y = ref (j - 1) in
  while !x >= stop_a && !y >= stop_b do
    c := !c + greedy la lb llda lldb !x !y;
    x := llda.(!x) - 1;
    y := lldb.(!y) - 1
  done;
  !c + (!x - stop_a + 1) + (!y - stop_b + 1)

let upper a b =
  let pa = Ted.right_postorder a.prep and pb = Ted.right_postorder b.prep in
  greedy pa.labels pb.labels pa.lld pb.lld (pa.size - 1) (pb.size - 1)

(* --- the alignment certificate --- *)

(* A set of node pairs is a valid edit mapping when it keeps both the
   postorder and the preorder order; its cost (renames plus unmapped
   nodes of both trees) is then the cost of an edit script, so it
   bounds TED from above.  [check_mapping] checks a mapping given as
   [mate.(x)], the postorder node of [b] mapped to postorder node [x]
   of [a] (or -1), with three tests:
   - the pairs strictly increase on both sides (postorder order);
   - their cost is at most [limit];
   - ancestry is kept.  Given the first test, node [x'] < [x] is a
     descendant of [x] iff [x' >= lld x], so the mapped nodes below
     [x] are the pairs just before [(x, y)] whose [a] side is at or
     after [lld x]; they are the ones below [y] iff as many mapped
     nodes come before [lld x] as before [lld y].  Two prefix counts
     of mapped nodes answer that for every pair in O(1).
   Together the first and last test keep the preorder order as well,
   so a mapping that passes is valid and TED <= its cost <= [limit],
   whatever produced it.  The counts live in [arena], reserved for the
   two trees by the caller. *)
let check_mapping arena (pa : Postorder.t) (pb : Postorder.t) (mate : int array) limit =
  let na = pa.size and nb = pb.size in
  let ca = arena.Arena.count_a and cb = arena.Arena.count_b in
  let m = ref 0 and last = ref (-1) and renames = ref 0 and ok = ref true in
  for x = 0 to na - 1 do
    ca.(x) <- !m;
    let y = mate.(x) in
    if y >= 0 then
      if y <= !last || y >= nb then ok := false
      else begin
        for j = !last + 1 to y do
          cb.(j) <- !m
        done;
        if pa.labels.(x) <> pb.labels.(y) then incr renames;
        last := y;
        incr m
      end
  done;
  ok := !ok && !renames + (na - !m) + (nb - !m) <= limit;
  let x = ref 0 in
  while !ok && !x < na do
    let y = mate.(!x) in
    if y >= 0 && ca.(pa.lld.(!x)) <> cb.(pb.lld.(y)) then ok := false;
    incr x
  done;
  !ok

(* One side's certificate, right after [String_edit.rounds] on its
   postorder labels answered [e <= k]: trace back an optimal alignment
   of the labels and check it as a mapping. *)
let aligned arena (pa : Postorder.t) (pb : Postorder.t) k e limit =
  Arena.reserve_alignment arena pa.size pb.size;
  String_edit.alignment arena pa.labels pb.labels k e
  && check_mapping arena pa pb arena.Arena.mate limit

let side_certifies arena (pa : Postorder.t) (pb : Postorder.t) k limit =
  let e = String_edit.rounds arena pa.labels pb.labels k in
  e <= limit && aligned arena pa pb k e limit

let certify a b k =
  if k < 0 then invalid_arg "Bounds.certify: negative threshold";
  Arena.use (fun arena ->
      side_certifies arena (Ted.left_postorder a.prep) (Ted.left_postorder b.prep) k k
      || side_certifies arena (Ted.right_postorder a.prep) (Ted.right_postorder b.prep) k k)

let mapping_certifies a b mate k =
  if Array.length mate < Ted.size a.prep then invalid_arg "Bounds.mapping_certifies: short mapping";
  let pa = Ted.left_postorder a.prep and pb = Ted.left_postorder b.prep in
  Arena.use (fun arena ->
      Arena.reserve_alignment arena pa.size pb.size;
      check_mapping arena pa pb mate k)

(* --- the verification filter cascade --- *)

type stage = Size | Labels | Degrees | Sed

type outcome =
  | Pruned of stage
  | Accept of int
  | Verify of { band : int }

type metric = Ted | Constrained

(* The traversal SED stages and the decision, on one claimed arena:
   the postorder's rounds stay in it for the certificate. *)
let sed_stages arena certify tau lb a b =
  (* Banded traversal SED: each tree edit operation edits the preorder
     (resp. postorder) label sequence in exactly one position, so both
     are TED lower bounds; within the band the returned values are
     exact.  The mirrored tree's postorder is the preorder reversed, and
     reversing both strings of a pair keeps their edit distance, so it
     stands in for the preorder. *)
  let ra = Ted.right_postorder a.prep and rb = Ted.right_postorder b.prep in
  let s1 = String_edit.rounds arena ra.labels rb.labels tau in
  if s1 > tau then Pruned Sed
  else begin
    let pa = Ted.left_postorder a.prep and pb = Ted.left_postorder b.prep in
    let s2 = String_edit.rounds arena pa.labels pb.labels tau in
    if s2 > tau then Pruned Sed
    else begin
      let lb = Int.max lb (Int.max s1 s2) in
      let ub = upper a b in
      if ub = lb then
        (* The bounds sandwich closes: lb <= TED <= ub = lb, so the
           exact distance is known without running the kernel (and it
           also pins every metric between TED and the greedy script's
           cost, e.g. the constrained distance). *)
        Accept lb
      else if
        (* A traversal SED that equals [lb] may come with an optimal
           alignment that is a valid mapping, of cost lb: then
           TED = lb.  The postorder's rounds are still in the arena;
           the mirror's are recomputed.  A Tai mapping need not be a
           constrained one, so only the TED metric takes it. *)
        certify
        && ((s2 = lb && aligned arena pa pb tau s2 lb)
           || (s1 = lb && side_certifies arena ra rb tau lb))
      then Accept lb
      else if ub <= tau then
        (* The pair is certainly a result (TED <= ub <= τ), but the
           exact distance is still needed: run the kernel with the band
           shrunk to ub - 1.  The banded kernel returns
           min(TED, band + 1) = min(TED, ub) = TED. *)
        Verify { band = ub - 1 }
      else Verify { band = tau }
    end
  end

let cascade ?(metric = Ted) ~tau a b =
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
        (* Claimed without a closure, so that no stage allocates. *)
        let arena = Arena.acquire () in
        match sed_stages arena (metric = Ted) tau (Int.max lb d) a b with
        | o ->
          Arena.release arena;
          o
        | exception e ->
          Arena.release arena;
          raise e
      end
    end
  end

(* --- the pair verifier --- *)

type verdict = Pruned of stage | Accepted of int | Verified of int | Unverified

(* The only call sites of the exact kernels.  [admit] runs first: a
   pair it refuses stays undecided. *)
let kernel metric admit a b band =
  match admit with
  | Some admit when not (admit a b) -> Unverified
  | _ -> (
    match metric with
    | Ted -> Verified (Ted.bounded_distance_prep a.prep b.prep band)
    | Constrained ->
      Verified
        (Int.min (Constrained.distance (Ted.tree a.prep) (Ted.tree b.prep)) (band + 1)))

let verify ?(metric = Ted) ?admit ~cascade:staged ~tau a b =
  if tau < 0 then invalid_arg "Bounds.verify: negative threshold";
  if not staged then kernel metric admit a b tau
  else
    match cascade ~metric ~tau a b with
    | Pruned stage -> Pruned stage
    | Accept d -> Accepted d
    | Verify { band } -> kernel metric admit a b band

let sandwich a b = (linear_lower a b, upper a b)
