module Postorder = Tsj_tree.Postorder

(* DP scratch.

   The two tables of the Zhang–Shasha DP — treedist (n1 × n2) and the
   forest-distance table fd ((n1+1) × (n2+1)) — are not allocated per
   call.  For join-sized trees that would be ~100 KB of major-heap
   allocation and an O(n1·n2) initialization per verified pair, which
   dominates the τ-banded DP's work of O(rows · (2τ+1)) cells per
   keyroot pair.  Instead the kernel draws on the per-domain {!Arena}
   (pool workers are domains, and systhreads sharing a domain claim it
   per call, so concurrent verification is safe) and the tables are
   reused without clearing:

   - [fd] needs no initialization at all: every cell the DP reads is
     either written earlier in the same keyroot-pair computation or
     rejected by the band check.
   - [td] must distinguish "computed this call" from "out of band"
     (which defaults to the clamp value), so each cell carries a stamp:
     the serial number of the call that wrote it.  Stale stamps read as
     the clamp, exactly like a fresh matrix of [k + 1].

   The kernel uses [Array.unsafe_get]/[unsafe_set] on the scratch
   tables and the postorder arrays.  Safety: [Arena.reserve_matrices]
   guarantees [rows > n1] and [cols > n2]; every flat offset is [x * stride + y] or
   [a * stride + b] with [x, a <= n1 - 1 < rows] and [y, b <= n2 - 1 <
   cols], hence [< rows * cols]; and [a] ranges over [l1 .. k1] within
   [0 .. n1), [b] over [l2 .. k2] within [0 .. n2), the index ranges of
   the lld / label arrays.  The verifier spends nearly all its time in
   these loops, and the bounds checks were a measurable fraction of the
   per-cell cost. *)

(* Threshold-banded variant: the DP restricted to Touzet's postorder
   strip ("A linear tree edit distance algorithm for similar ordered
   trees", CPM 2005), with every value clamped at k + 1.

   Nodes are numbered in postorder from 0.  The keyroot pair (k1, k2)
   has leftmost leaves l1 = lld1(k1), l2 = lld2(k2), and its forest
   cell (x, y) holds the distance between the prefix forests
   T1[l1, l1 + x) and T2[l2, l2 + y).  Let d = l1 - l2.  The kernel

   - skips every keyroot pair with |d| > k, and
   - in a kept pair computes only the cells with
     y - x in [dlo, dhi] = [max 0 d - k, min 0 d + k];

   every other forest or td cell reads as the clamp k + 1.  The result
   is exactly [min (TED, k + 1)]:

   - Never too small.  A cell left out reads k + 1, which is at least
     its true value clamped at k + 1.  The recurrence is a monotone
     min-plus one, so every computed value is at least its true value
     clamped, and so is the result.
   - Never too large.  Let M be an optimal mapping, of cost c <= k
     (when TED > k the first point and the clamp already give k + 1).
     Zhang–Shasha realises M along a canonical path: delete, insert and
     rename steps between forest cells, plus reads of td(a, b) only for
     (a, b) in M, each computed along its own canonical path in the
     keyroot pair whose left paths hold a and b.  Every cell (x, y) on
     these paths has M-closed prefixes: M maps the nodes of
     [0, l1 + x) exactly onto mapped nodes of [0, l2 + y).  (Nodes
     before l1 lie left of the subtree of k1; a mapping preserves
     ancestry and left-of, and inside the forests the path keeps M
     within the prefixes.)  If both prefixes hold p mapped nodes, then
     |(l1 + x) - (l2 + y)| <= (l1 + x - p) + (l2 + y - p), the number
     of unmapped nodes, which is at most c <= k.  So y - x lies in
     [d - k, d + k].  Forest sizes give |x - y| <= k as well, which
     together is [dlo, dhi].  A td(a, b) with (a, b) in M belongs to
     the pair with l1 = lld1(a), l2 = lld2(b), whose prefixes [0, l1)
     and [0, l2) are M-closed, so |d| <= k and that pair is kept.
     Every cell of the canonical paths is therefore computed, with a
     value of at most what M pays on it, at most k; the clamp never
     touches it, and the result is at most c.

   The kernel also runs on mirrored postorders (the right-path
   decomposition, which the tests check).  Mirroring both trees maps M
   to a mapping of the mirrors of the same cost, so the argument holds
   there too.

   The full band.  TED <= |T1| + |T2| - 1 (keep the roots mapped,
   delete the rest of T1, insert the rest of T2), so at
   k = |T1| + |T2| - 1 nothing is clamped and the kernel returns the
   exact TED; {!Ted.distance_prep} calls it so.  A narrower band such
   as max (|T1|, |T2|) is not enough: {a{b{c{d}}}} and {w{x}{y}{z}}
   are at TED 6 with 4 nodes each.

   Keyroot window.  The kept pairs are found, not filtered: every leaf
   of T2 is the leftmost leaf of exactly one keyroot (the top of its
   left path), so for each k1 the kept k2 are the keyroots of the leaves
   in [l1 - k, l1 + k], at most 2k + 1 of them, read off a leaf ->
   keyroot map of T2 built once per call.  A call then visits
   O(|keyroots1| * (2k + 1)) pairs instead of every pair of keyroots.
   The window is visited in ascending k2, which keeps the order of the
   full double loop minus its skipped pairs, and order matters: the
   pair (k1, k2) reads td(a, b) for a on k1's left path and b in the
   subtree of k2, a cell written by the pair (k1, kr(b)), where kr(b) is
   the keyroot of b's left path, and kr(b) < k2 whenever b is not on
   k2's own left path.  In lld order that writer may come later, and the
   read would see the clamp instead of a value <= k.

   A kept pair costs O(rows * (2k + 1 - |d|)) cells instead of the
   O(rows * (2k + 1)) of the size band alone.  The strip is also why
   keyroot-pair results cannot be shared across pairs of trees keyed by
   subtree identity: which cells a pair computes, and hence the td
   values it writes, depends on d, that is on where both subtrees sit
   in their whole trees.  A write set recorded at one offset may hold
   k + 1 where the DP at another offset computes a value <= k, and
   replaying it would turn a match into a miss. *)
let bounded_distance_postorder (p1 : Postorder.t) (p2 : Postorder.t) k =
  if k < 0 then invalid_arg "Zhang_shasha.bounded_distance_postorder: negative threshold";
  let n1 = p1.size and n2 = p2.size in
  if abs (n1 - n2) > k then k + 1
  else if n1 = 0 || n2 = 0 then Int.min (Int.max n1 n2) (k + 1)
  else
    Arena.use (fun s ->
    Arena.reserve_matrices s n1 n2;
    let id = Arena.next_serial s in
    let stride = s.Arena.cols in
    let inf = k + 1 in
    let lld1 = p1.lld and lld2 = p2.lld in
    let lab1 = p1.labels and lab2 = p2.labels in
    let td = s.Arena.td and td_stamp = s.Arena.td_stamp and fd = s.Arena.fd in
    (* td entries not written during this call lie outside the strip
       (or in a skipped keyroot pair): read as the clamp value. *)
    let td_get a b =
      let off = (a * stride) + b in
      if Array.unsafe_get td_stamp off = id then Array.unsafe_get td off else inf
    in
    (* Only called on kept pairs: [|d| <= k]. *)
    let compute k1 k2 =
      let l1 = lld1.(k1) and l2 = lld2.(k2) in
      let d = l1 - l2 in
      let m = k1 - l1 + 1 and n = k2 - l2 + 1 in
      if m = 1 && n = 1 then begin
        (* Leaf keyroot pair: the single DP cell (1, 1), always in the
           strip, reduces to min (2, label cost) = label cost. *)
        let off = (k1 * stride) + k2 in
        Array.unsafe_set td off
          (if Array.unsafe_get lab1 k1 = Array.unsafe_get lab2 k2 then 0 else 1);
        Array.unsafe_set td_stamp off id
      end
      else begin
      let dlo = Int.max 0 d - k and dhi = Int.min 0 d + k in
      (* In-strip cells are always written before they are read within
         this keyroot pair, so the uncleared scratch is never observed:
         row 0 holds [0 .. dhi], column 0 holds [0 .. -dlo]. *)
      fd.(0) <- 0;
      for y = 1 to Int.min n dhi do
        Array.unsafe_set fd y y
      done;
      (* Rows beyond [n - dlo] contain no in-strip cell, and the td
         entries they would write lie outside the strip — the clamp
         value for every later read.  Skip them. *)
      for x = 1 to Int.min m (n - dlo) do
        let a = l1 + x - 1 in
        let la = Array.unsafe_get lld1 a in
        let on_path1 = la = l1 in
        let lab_a = Array.unsafe_get lab1 a in
        let ylo = Int.max 1 (x + dlo) and yhi = Int.min n (x + dhi) in
        if x <= -dlo then Array.unsafe_set fd (x * stride) x;
        let row = x * stride and prev = (x - 1) * stride in
        (* Within [ylo .. yhi], the up neighbour (x-1, y) leaves the
           strip only at [y = x + dhi], the left neighbour (x, y-1) only
           at [y = x + dlo], and the diagonal (x-1, y-1) never does — so
           the three reads need one equality test each instead of a full
           strip check. *)
        let y_up_out = x + dhi and y_left_out = x + dlo in
        for y = ylo to yhi do
          let b = l2 + y - 1 in
          let lb = Array.unsafe_get lld2 b in
          let up = if y = y_up_out then inf else Array.unsafe_get fd (prev + y) in
          let left = if y = y_left_out then inf else Array.unsafe_get fd (row + y - 1) in
          let v =
            if on_path1 && lb = l2 then begin
              let cost = if lab_a = Array.unsafe_get lab2 b then 0 else 1 in
              let diag = Array.unsafe_get fd (prev + y - 1) in
              let v = Int.min (Int.min (up + 1) (left + 1)) (diag + cost) in
              let v = if v > inf then inf else v in
              let off = (a * stride) + b in
              Array.unsafe_set td off v;
              Array.unsafe_set td_stamp off id;
              v
            end
            else begin
              (* The forest cell before subtree pair (a, b), read as the
                 clamp outside the strip. *)
              let x' = la - l1 and y' = lb - l2 in
              let e = y' - x' in
              let before =
                if e < dlo || e > dhi then inf
                else Array.unsafe_get fd ((x' * stride) + y')
              in
              let off = (a * stride) + b in
              let tdv =
                if Array.unsafe_get td_stamp off = id then Array.unsafe_get td off else inf
              in
              Int.min (Int.min (up + 1) (left + 1)) (before + tdv)
            end
          in
          Array.unsafe_set fd (row + y) (if v > inf then inf else v)
        done
      done
      end
    in
    (* The keyroot window (see above): [kr.(p)] is the keyroot of T2
       whose leftmost leaf is the leaf [p]; for each k1 the keyroots of
       the leaves in [l1 - k, l1 + k] are insertion-sorted into [win]
       and run in ascending order. *)
    Arena.reserve_keyroots s n2 (Int.min n2 ((2 * k) + 1));
    let kr = s.Arena.leaf_keyroot and win = s.Arena.window in
    Array.iter (fun k2 -> kr.(lld2.(k2)) <- k2) p2.keyroots;
    Array.iter
      (fun k1 ->
        let l1 = lld1.(k1) in
        let c = ref 0 in
        for p = Int.max 0 (l1 - k) to Int.min (n2 - 1) (l1 + k) do
          if lld2.(p) = p then begin
            let k2 = kr.(p) in
            let j = ref !c in
            while !j > 0 && win.(!j - 1) > k2 do
              win.(!j) <- win.(!j - 1);
              decr j
            done;
            win.(!j) <- k2;
            incr c
          end
        done;
        for i = 0 to !c - 1 do
          compute k1 win.(i)
        done)
      p1.keyroots;
    Int.min (td_get (n1 - 1) (n2 - 1)) inf)
