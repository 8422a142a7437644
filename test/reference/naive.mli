(** Reference tree edit distance by direct forest recursion.

    An implementation independent of Zhang–Shasha, used only for
    differential testing of the kernel and of the reference
    Zhang–Shasha: the classic forest recurrence (delete the first root,
    insert the first root, or match the two first roots) memoized on
    forest pairs.  Exponentially many distinct forests can arise, so this is for
    small trees (tests cap sizes around 12 nodes). *)

val distance : Tsj_tree.Tree.t -> Tsj_tree.Tree.t -> int

val forest_distance : Tsj_tree.Tree.t list -> Tsj_tree.Tree.t list -> int
