(** The Zhang–Shasha tree edit distance algorithm (SIAM J. Comput. 1989).

    Computes the exact TED between two rooted ordered labeled trees with
    unit costs, in [O(|T1| |T2| min(d1,l1) min(d2,l2))] time and
    [O(|T1| |T2|)] space, by solving one forest-distance dynamic program
    per pair of LR-keyroots.

    This left-path decomposition is one half of the RTED-style hybrid in
    {!Ted}; its mirror image (running on mirrored trees) gives the
    right-path decomposition.

    Both entry points reuse a growable domain-local scratch (via
    [Domain.DLS]) for the DP tables instead of allocating O(|T1| |T2|)
    matrices per call — for join workloads the per-pair allocation and
    initialization used to dwarf the banded DP itself.  Concurrent calls
    from different domains are safe (each domain owns its scratch);
    recursive calls from the cost functions of the DP would not be, and
    do not occur. *)

val distance_postorder : Tsj_tree.Postorder.t -> Tsj_tree.Postorder.t -> int
(** TED between two trees already compiled to postorder form. *)

val distance : Tsj_tree.Tree.t -> Tsj_tree.Tree.t -> int
(** Convenience wrapper compiling both trees first. *)

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

val bounded_distance : Tsj_tree.Tree.t -> Tsj_tree.Tree.t -> int -> int
