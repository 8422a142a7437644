(** Constrained tree edit distance (Zhang, Pattern Recognition 1995) —
    one of the restricted edit distances the paper's related work cites
    ([15], [24]) and an instance of its "support other tree distance
    metrics" future-work point.

    The constrained (isolated-subtree) edit distance admits only mappings
    in which disjoint subtrees map to disjoint subtrees — equivalently,
    the images of two separated nodes must be separated by the image of
    their lowest common ancestor.  This restriction drops the complexity
    from cubic to [O(|T1| |T2|)] while remaining a metric, at the price of
    sometimes overestimating the unrestricted TED:

      [TED(t1, t2) <= constrained_distance t1 t2]

    with equality whenever some optimal unrestricted mapping happens to be
    constrained (very common in practice). *)

val distance : Tsj_tree.Postorder.t -> Tsj_tree.Postorder.t -> int
(** Unit-cost constrained edit distance between the trees whose
    postorder forms are given (the [left] of their {!Tsj_tree.Form.t}),
    by Zhang's [O(|T1| |T2|)] recurrence over the postorder numbering. *)

val within : Tsj_tree.Postorder.t -> Tsj_tree.Postorder.t -> int -> bool
(** [within p1 p2 k] is [distance p1 p2 <= k]. *)
