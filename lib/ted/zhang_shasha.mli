(** The Zhang–Shasha tree edit distance (SIAM J. Comput. 1989), banded.

    The one exact-TED kernel: one forest-distance dynamic program per
    pair of LR-keyroots over the left-path decomposition, with unit
    costs, restricted to Touzet's postorder strip of width [k].  At
    [k = |T1| + |T2| - 1] the strip holds every cell and the result is
    the exact TED, in [O(|T1| |T2| min(d1,l1) min(d2,l2))] time; that is
    {!Ted.distance_prep}.

    The kernel reuses a growable domain-local scratch (via {!Arena})
    for the DP tables instead of allocating O(|T1| |T2|) matrices per
    call — for join workloads the per-pair allocation and
    initialization used to dwarf the banded DP itself.  Concurrent
    calls from different domains are safe (each domain owns its
    scratch); recursive calls from the cost functions of the DP would
    not be, and do not occur. *)

val bounded_distance_postorder : Tsj_tree.Postorder.t -> Tsj_tree.Postorder.t -> int -> int
(** [bounded_distance_postorder p1 p2 k] is [min (distance, k + 1)].
    This is the τ-aware verifier: a join needs [distance <= τ], never
    the exact distance of dissimilar pairs.

    The DP is restricted to Touzet's postorder strip.  For a keyroot
    pair whose leftmost leaves sit at postorder positions [l1] and [l2],
    let [d = l1 - l2]:
    - if [|d| > k] the pair is skipped;
    - otherwise only the forest cells [(x, y)] with
      [y - x] in [[max 0 d - k, min 0 d + k]] are computed.
    Every cell left out reads as [k + 1], and values above [k] are
    clamped by the monotone min-plus recurrence, so every value [<= k]
    stays exact (the argument is in the implementation's comment).  The
    kept pairs are read off a leaf -> keyroot map of [p2]: at most
    [2k + 1] per keyroot of [p1], visited in ascending order, instead
    of a test of every keyroot pair.  A kept keyroot pair costs
    O(rows * (2k + 1 - |d|)) cells instead of [rows * cols].  The stamp-tracked scratch avoids any O(rows * cols)
    per-call initialization, and size-incompatible pairs exit at once.
    @raise Invalid_argument if [k < 0]. *)
